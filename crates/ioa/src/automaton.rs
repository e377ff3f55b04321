//! The [`Automaton`] trait: explicit-state I/O automata (paper §2.2).

use std::fmt::Debug;
use std::hash::Hash;
use std::ops::ControlFlow;

use crate::action::ActionClass;

/// Identifier of an equivalence class of the task partition `part(A)`.
///
/// The partition groups the locally-controlled actions of an automaton into
/// at most countably many classes; a *fair* execution gives fair turns to
/// each class (paper §2.2). `TaskId(i)` names the `i`-th class,
/// `0 <= i < task_count()`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

/// An input/output automaton over a shared action universe.
///
/// This mirrors the five components of the paper's definition (§2.2):
///
/// 1. the action signature, via [`classify`](Automaton::classify);
/// 2. the (implicit) state set, the associated type [`State`](Automaton::State);
/// 3. the start state, [`start_state`](Automaton::start_state) (and the
///    set `start(A)` it forms, [`start_states`](Automaton::start_states));
/// 4. the transition relation, [`successors`](Automaton::successors), and
///    the enabled locally-controlled actions,
///    [`for_each_enabled_local`](Automaton::for_each_enabled_local);
/// 5. the task partition, [`task_of`](Automaton::task_of) /
///    [`task_count`](Automaton::task_count).
///
/// Those six methods are the ones an implementation writes (`successors`
/// through [`deterministic_transitions!`](crate::deterministic_transitions)
/// for a [`Deterministic`] automaton). Every other method is derived from
/// them: the `Vec` forms [`start_states`](Automaton::start_states) and
/// [`enabled_local`](Automaton::enabled_local) collect the start state and
/// the enabled walk, so an automaton defines each only once.
///
/// # Input-enabledness
///
/// The model requires that *every input action is enabled in every state*.
/// Implementations must therefore return a non-empty successor list from
/// [`successors`](Automaton::successors) whenever the action classifies as
/// [`ActionClass::Input`]. [`check_input_enabled`](Automaton::check_input_enabled)
/// spot-checks this on given states and is exercised by this workspace's
/// property tests.
///
/// # Nondeterminism
///
/// `successors` returns *all* post-states of the step `(s, a, s')`. Executors
/// resolve the choice (randomly, or deliberately — the impossibility-proof
/// engines pick specific successors, as the paper's constructions do).
pub trait Automaton {
    /// The action universe this automaton's signature draws from.
    type Action: Clone + Eq + Debug;
    /// Automaton states. Cloneable so executions can be recorded, and
    /// hashable so every execution layer — explorer visited sets,
    /// [`StateTable`](crate::intern::StateTable) arenas,
    /// [`InternedSeq`](crate::intern::InternedSeq) recordings — can intern
    /// states instead of storing copies.
    type State: Clone + Eq + Hash + Debug;

    /// The start state. Every automaton in this workspace has exactly one;
    /// a search from other states takes them explicitly (the explorer's
    /// `check_invariant_from`, the permissive channels' `initial_state`).
    ///
    /// Built without a `Vec`: a leaf returns its state, and
    /// [`Compose2`](crate::composition::Compose2) pairs its components'
    /// start states, so a composed start state costs no allocation of its
    /// own.
    fn start_state(&self) -> Self::State;

    /// The set `start(A)` of start states: the one
    /// [`start_state`](Automaton::start_state), in a `Vec`.
    fn start_states(&self) -> Vec<Self::State> {
        vec![self.start_state()]
    }

    /// Classifies `action` within this automaton's signature, or `None` if
    /// the action is not in the signature at all.
    fn classify(&self, action: &Self::Action) -> Option<ActionClass>;

    /// All states `s'` with `(state, action, s') ∈ steps(A)`.
    ///
    /// Empty means the action is not enabled in `state` — which is only
    /// permitted for locally-controlled actions (inputs are always enabled).
    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State>;

    /// Visits every locally-controlled action enabled in `state`, stopping
    /// early when `f` breaks. Returns whatever the last `f` call returned.
    ///
    /// Every action visited must classify as output or internal and have at
    /// least one successor from `state`. This walk is the automaton's one
    /// definition of its enabled actions: the sessions, the fuzzer and the
    /// explorer step it, and [`enabled_local`](Automaton::enabled_local)
    /// collects it for the proof engines and `dl-crosscheck`. The order is
    /// part of the contract, since executors pick actions by position.
    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()>;

    /// The task-partition class of a locally-controlled action.
    ///
    /// Only called for actions that classify as output or internal; the
    /// returned id must be `< task_count()`. Actions related by the
    /// partition share a `TaskId`.
    fn task_of(&self, action: &Self::Action) -> TaskId;

    /// Number of classes in the task partition.
    fn task_count(&self) -> usize;

    /// Visits every successor of `(state, action)` in the same order
    /// [`successors`](Automaton::successors) would return them, stopping
    /// early when `f` breaks. Returns whatever the last `f` call returned.
    ///
    /// Every other transition method has a default derived from this one:
    /// [`successors_into`](Automaton::successors_into),
    /// [`is_enabled`](Automaton::is_enabled),
    /// [`step_first`](Automaton::step_first),
    /// [`successor_count`](Automaton::successor_count) and
    /// [`step_chosen`](Automaton::step_chosen) (and through it
    /// [`step_in_place`](Automaton::step_in_place), which is never
    /// overridden). Those defaults build successor states to answer, so an
    /// automaton on a hot path overrides them too: deterministic automata
    /// derive all six from a guard and an in-place update through
    /// [`Deterministic`] and
    /// [`deterministic_transitions!`](crate::deterministic_transitions),
    /// and [`Compose2`](crate::composition::Compose2) touches only the
    /// components whose signature holds the action. Overrides must
    /// enumerate **exactly** the `successors` list — same states, same
    /// order — since executors pick successors by position.
    fn try_for_each_successor(
        &self,
        state: &Self::State,
        action: &Self::Action,
        f: &mut dyn FnMut(Self::State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for s in self.successors(state, action) {
            f(s)?;
        }
        ControlFlow::Continue(())
    }

    /// Appends all successors of `(state, action)` to `out` — the
    /// buffer-reuse form of [`successors`](Automaton::successors). Callers
    /// own the buffer lifecycle (typically `clear()` + `successors_into` in
    /// a loop), so steady-state stepping performs no allocation once the
    /// buffer has grown to its high-water mark.
    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        let _ = self.try_for_each_successor(state, action, &mut |s| {
            out.push(s);
            ControlFlow::Continue(())
        });
    }

    /// The locally-controlled actions enabled in `state`: the
    /// [`for_each_enabled_local`](Automaton::for_each_enabled_local) walk,
    /// collected in its order. [`Compose2`](crate::composition::Compose2)
    /// overrides it to drop an action the other component refuses, which
    /// its walk only asserts against in debug builds.
    fn enabled_local(&self, state: &Self::State) -> Vec<Self::Action> {
        let mut out = Vec::new();
        let _ = self.for_each_enabled_local(state, &mut |a| {
            out.push(a);
            ControlFlow::Continue(())
        });
        out
    }

    /// Visits the enabled locally-controlled actions of task class `task`
    /// only, in [`for_each_enabled_local`](Automaton::for_each_enabled_local)
    /// order, stopping early when `f` breaks — one fair turn's candidates
    /// (§2.2) without classifying every enabled action.
    ///
    /// The default filters `for_each_enabled_local` by
    /// [`task_of`](Automaton::task_of);
    /// [`Compose2`](crate::composition::Compose2) asks only the component
    /// that owns the class.
    fn for_each_enabled_of_task(
        &self,
        state: &Self::State,
        task: TaskId,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.for_each_enabled_local(state, &mut |a| {
            if self.task_of(&a) == task {
                f(a)
            } else {
                ControlFlow::Continue(())
            }
        })
    }

    /// Convenience: `true` if some locally-controlled action is enabled —
    /// the quiescence test, without materializing the enabled set.
    fn has_enabled_local(&self, state: &Self::State) -> bool {
        self.for_each_enabled_local(state, &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Convenience: `true` if the action is in the signature.
    fn in_signature(&self, action: &Self::Action) -> bool {
        self.classify(action).is_some()
    }

    /// Convenience: `true` if `action` has at least one successor from
    /// `state`. Short-circuits on the first successor found instead of
    /// materializing the full list.
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        self.try_for_each_successor(state, action, &mut |_| ControlFlow::Break(()))
            .is_break()
    }

    /// Takes one step, resolving nondeterminism by picking the first
    /// successor. Returns `None` if the action is not enabled. Stops
    /// enumerating after the first successor.
    ///
    /// Deterministic automata (one successor per step, one start state) can
    /// be driven entirely through `step_first`.
    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        let mut first = None;
        let _ = self.try_for_each_successor(state, action, &mut |s| {
            first = Some(s);
            ControlFlow::Break(())
        });
        first
    }

    /// The number of successors of `(state, action)`: the length
    /// [`successors`](Automaton::successors) would return, without
    /// collecting them. `0` means the action is not enabled.
    fn successor_count(&self, state: &Self::State, action: &Self::Action) -> usize {
        let mut n = 0;
        let _ = self.try_for_each_successor(state, action, &mut |_| {
            n += 1;
            ControlFlow::Continue(())
        });
        n
    }

    /// Counts the successors of `(state, action)` once, asks `choose` for
    /// a position among those `n` (exactly once, and only when `n > 0`),
    /// replaces `state` by the successor at that position in
    /// [`successors`](Automaton::successors) order, and returns `true`.
    /// Returns `false`, leaving `state` untouched, when the action is not
    /// enabled or the pick is `≥ n`.
    ///
    /// This is how a session that owns only its current state takes a
    /// step, and the transition method a hot-path automaton overrides:
    /// overrides update the state where it lies instead of building a new
    /// one, and a composition routes the action to its components once for
    /// both the count and the step.
    fn step_chosen(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        let n = self.successor_count(state, action);
        if n == 0 {
            return false;
        }
        let pick = choose(n);
        let mut k = 0;
        let mut chosen = None;
        let _ = self.try_for_each_successor(state, action, &mut |s| {
            if k == pick {
                chosen = Some(s);
                return ControlFlow::Break(());
            }
            k += 1;
            ControlFlow::Continue(())
        });
        match chosen {
            Some(s) => {
                *state = s;
                true
            }
            None => false,
        }
    }

    /// Replaces `state` by its `pick`-th successor under `action` (the
    /// position in [`successors`](Automaton::successors)) and returns
    /// `true`. A `pick` at or beyond
    /// [`successor_count`](Automaton::successor_count) returns `false` and
    /// leaves `state` untouched.
    ///
    /// [`step_chosen`](Automaton::step_chosen) with a fixed pick; override
    /// that method instead.
    fn step_in_place(&self, state: &mut Self::State, action: &Self::Action, pick: usize) -> bool {
        self.step_chosen(state, action, &mut |_| pick)
    }

    /// Spot-checks determinism: a unique start state and at most one
    /// successor for every `(state, action)` pair in the given samples.
    /// Returns the first nondeterministic pair found, or `Err(())` if the
    /// start state is not unique.
    ///
    /// The impossibility engines assume deterministic protocols (they
    /// replay recorded executions); this audit lets callers fail early
    /// with a clear message instead of diverging mid-replay.
    ///
    /// # Errors
    ///
    /// `Err(())` when `start_states().len() != 1`.
    #[allow(clippy::result_unit_err, clippy::type_complexity)]
    fn check_deterministic<'a>(
        &self,
        states: &'a [Self::State],
        actions: &'a [Self::Action],
    ) -> Result<Option<(&'a Self::State, &'a Self::Action)>, ()> {
        if self.start_states().len() != 1 {
            return Err(());
        }
        for s in states {
            for a in actions {
                // Stop enumerating at the second successor — the audit
                // only needs to know whether more than one exists.
                let mut seen = 0u32;
                let two = self
                    .try_for_each_successor(s, a, &mut |_| {
                        seen += 1;
                        if seen > 1 {
                            ControlFlow::Break(())
                        } else {
                            ControlFlow::Continue(())
                        }
                    })
                    .is_break();
                if two {
                    return Ok(Some((s, a)));
                }
            }
        }
        Ok(None)
    }

    /// Spot-checks input-enabledness: every action of `inputs` that
    /// classifies as an input must be enabled in every state of `states`.
    /// Returns the first violation as `(state, action)`.
    fn check_input_enabled<'a>(
        &self,
        states: &'a [Self::State],
        inputs: &'a [Self::Action],
    ) -> Option<(&'a Self::State, &'a Self::Action)> {
        for s in states {
            for a in inputs {
                if self.classify(a) == Some(ActionClass::Input) && !self.is_enabled(s, a) {
                    return Some((s, a));
                }
            }
        }
        None
    }
}

/// Blanket impl so `&A` can be used wherever an automaton is consumed by
/// value (executors take `&A` internally; this keeps APIs flexible).
impl<A: Automaton + ?Sized> Automaton for &A {
    type Action = A::Action;
    type State = A::State;

    fn start_state(&self) -> Self::State {
        (**self).start_state()
    }
    fn classify(&self, action: &Self::Action) -> Option<ActionClass> {
        (**self).classify(action)
    }
    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State> {
        (**self).successors(state, action)
    }
    // Forwarded so a composition's filtered `enabled_local` survives the
    // reference.
    fn enabled_local(&self, state: &Self::State) -> Vec<Self::Action> {
        (**self).enabled_local(state)
    }
    fn task_of(&self, action: &Self::Action) -> TaskId {
        (**self).task_of(action)
    }
    fn task_count(&self) -> usize {
        (**self).task_count()
    }
    // Forward the hot-path defaults explicitly so a reference does not
    // silently fall back to the allocating defaults when the underlying
    // automaton overrides them.
    fn try_for_each_successor(
        &self,
        state: &Self::State,
        action: &Self::Action,
        f: &mut dyn FnMut(Self::State) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).try_for_each_successor(state, action, f)
    }
    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        (**self).successors_into(state, action, out);
    }
    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).for_each_enabled_local(state, f)
    }
    fn for_each_enabled_of_task(
        &self,
        state: &Self::State,
        task: TaskId,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (**self).for_each_enabled_of_task(state, task, f)
    }
    fn has_enabled_local(&self, state: &Self::State) -> bool {
        (**self).has_enabled_local(state)
    }
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        (**self).is_enabled(state, action)
    }
    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        (**self).step_first(state, action)
    }
    fn successor_count(&self, state: &Self::State, action: &Self::Action) -> usize {
        (**self).successor_count(state, action)
    }
    fn step_chosen(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        (**self).step_chosen(state, action, choose)
    }
    fn in_signature(&self, action: &Self::Action) -> bool {
        (**self).in_signature(action)
    }
}

/// A deterministic transition relation — at most one successor per
/// `(state, action)` — split into a guard that never clones and an
/// update that works in place.
///
/// An automaton implements this pair and writes
/// [`deterministic_transitions!`](crate::deterministic_transitions) inside
/// its `impl Automaton` block. The macro derives every transition method
/// from the pair, so the by-value path (guard, clone, apply) behind
/// `successors` and the in-place path that sessions and the explorer take
/// run the same transition code.
pub trait Deterministic: Automaton {
    /// `true` if `action` has a successor from `state`. Inputs must
    /// answer `true` in every state (input-enabledness).
    fn enabled(&self, state: &Self::State, action: &Self::Action) -> bool;

    /// Replaces `state` by its unique successor under `action`. Called
    /// only when [`enabled`](Deterministic::enabled) holds.
    fn apply(&self, state: &mut Self::State, action: &Self::Action);
}

/// Emits, inside an `impl Automaton` block, the six transition methods of
/// a [`Deterministic`] automaton: `successors`, `try_for_each_successor`,
/// `step_first`, `is_enabled`, `successor_count` and `step_chosen`.
///
/// ```
/// use std::ops::ControlFlow;
///
/// use ioa::{deterministic_transitions, ActionClass, Automaton, Deterministic, TaskId};
///
/// /// Counts `Tick`s modulo 3; `Reset` is an input.
/// struct Counter;
///
/// #[derive(Debug, Clone, PartialEq, Eq)]
/// enum Act { Reset, Tick }
///
/// impl Deterministic for Counter {
///     fn enabled(&self, _s: &u8, _a: &Act) -> bool { true }
///     fn apply(&self, s: &mut u8, a: &Act) {
///         *s = match a { Act::Reset => 0, Act::Tick => (*s + 1) % 3 };
///     }
/// }
///
/// impl Automaton for Counter {
///     type Action = Act;
///     type State = u8;
///     fn start_state(&self) -> u8 { 0 }
///     fn classify(&self, a: &Act) -> Option<ActionClass> {
///         Some(match a { Act::Reset => ActionClass::Input, Act::Tick => ActionClass::Output })
///     }
///     deterministic_transitions!();
///     fn for_each_enabled_local(
///         &self,
///         _s: &u8,
///         f: &mut dyn FnMut(Act) -> ControlFlow<()>,
///     ) -> ControlFlow<()> {
///         f(Act::Tick)
///     }
///     fn task_of(&self, _a: &Act) -> TaskId { TaskId(0) }
///     fn task_count(&self) -> usize { 1 }
/// }
///
/// let mut s = 2;
/// assert_eq!(Counter.successors(&s, &Act::Tick), vec![0]);
/// assert!(Counter.step_chosen(&mut s, &Act::Tick, &mut |n| n - 1));
/// assert_eq!(s, 0);
/// assert!(!Counter.step_in_place(&mut s, &Act::Tick, 1));
/// assert_eq!(Counter.enabled_local(&s), vec![Act::Tick]);
/// ```
#[macro_export]
macro_rules! deterministic_transitions {
    () => {
        fn successors(
            &self,
            state: &Self::State,
            action: &Self::Action,
        ) -> ::std::vec::Vec<Self::State> {
            $crate::automaton::Automaton::step_first(self, state, action)
                .into_iter()
                .collect()
        }

        fn try_for_each_successor(
            &self,
            state: &Self::State,
            action: &Self::Action,
            f: &mut dyn FnMut(Self::State) -> ::std::ops::ControlFlow<()>,
        ) -> ::std::ops::ControlFlow<()> {
            match $crate::automaton::Automaton::step_first(self, state, action) {
                ::std::option::Option::Some(next) => f(next),
                ::std::option::Option::None => ::std::ops::ControlFlow::Continue(()),
            }
        }

        fn step_first(
            &self,
            state: &Self::State,
            action: &Self::Action,
        ) -> ::std::option::Option<Self::State> {
            $crate::automaton::Deterministic::enabled(self, state, action).then(|| {
                let mut next = ::std::clone::Clone::clone(state);
                $crate::automaton::Deterministic::apply(self, &mut next, action);
                next
            })
        }

        fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
            $crate::automaton::Deterministic::enabled(self, state, action)
        }

        fn successor_count(&self, state: &Self::State, action: &Self::Action) -> usize {
            usize::from($crate::automaton::Deterministic::enabled(
                self, state, action,
            ))
        }

        fn step_chosen(
            &self,
            state: &mut Self::State,
            action: &Self::Action,
            choose: &mut dyn FnMut(usize) -> usize,
        ) -> bool {
            let fires =
                $crate::automaton::Deterministic::enabled(self, state, action) && choose(1) == 0;
            if fires {
                $crate::automaton::Deterministic::apply(self, state, action);
            }
            fires
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Modulo-3 counter. Input `Reset`, output `Tick`.
    struct Counter;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Reset,
        Tick,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Reset => ActionClass::Input,
                Act::Tick => ActionClass::Output,
            })
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Reset => vec![0],
                Act::Tick => vec![(s + 1) % 3],
            }
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            f(Act::Tick)
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn stepping() {
        let c = Counter;
        let s0 = c.start_states()[0];
        let s1 = c.step_first(&s0, &Act::Tick).unwrap();
        assert_eq!(s1, 1);
        let s2 = c.step_first(&s1, &Act::Reset).unwrap();
        assert_eq!(s2, 0);
    }

    #[test]
    fn input_enabled_check_passes() {
        let c = Counter;
        assert!(c
            .check_input_enabled(&[0, 1, 2], &[Act::Reset, Act::Tick])
            .is_none());
    }

    #[test]
    fn enabledness() {
        let c = Counter;
        assert!(c.is_enabled(&0, &Act::Tick));
        assert!(c.in_signature(&Act::Reset));
    }

    #[test]
    fn reference_automaton_delegates() {
        let c = Counter;
        let r = &c;
        assert_eq!(r.start_states(), vec![0]);
        assert_eq!(r.start_state(), 0);
        assert_eq!(r.task_count(), 1);
        assert_eq!(r.step_first(&0, &Act::Tick), Some(1));
        assert_eq!(r.classify(&Act::Tick), Some(ActionClass::Output));
        assert_eq!(r.enabled_local(&2), vec![Act::Tick]);
        assert_eq!(r.task_of(&Act::Tick), TaskId(0));
        assert_eq!(r.successor_count(&2, &Act::Tick), 1);
        let mut s = 2;
        assert!(r.step_in_place(&mut s, &Act::Tick, 0));
        assert_eq!(s, 0);
        let mut seen = Vec::new();
        let _ = r.for_each_enabled_of_task(&0, TaskId(0), &mut |a| {
            seen.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(seen, vec![Act::Tick]);
    }

    #[test]
    fn determinism_audit() {
        let c = Counter;
        assert_eq!(
            c.check_deterministic(&[0, 1, 2], &[Act::Reset, Act::Tick]),
            Ok(None)
        );

        /// Coin: two successors for Flip.
        #[derive(Clone)]
        struct Coin;
        impl Automaton for Coin {
            type Action = Act;
            type State = u8;
            fn start_state(&self) -> u8 {
                0
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Input)
            }
            fn successors(&self, _s: &u8, _a: &Act) -> Vec<u8> {
                vec![0, 1]
            }
            fn for_each_enabled_local(
                &self,
                _s: &u8,
                _f: &mut dyn FnMut(Act) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                ControlFlow::Continue(())
            }
            fn task_of(&self, _a: &Act) -> TaskId {
                TaskId(0)
            }
            fn task_count(&self) -> usize {
                1
            }
        }
        let found = Coin.check_deterministic(&[0], &[Act::Reset]).unwrap();
        assert!(found.is_some());

        // The in-place defaults follow the `successors` positions.
        assert_eq!(Coin.successor_count(&5, &Act::Reset), 2);
        for (k, want) in [0u8, 1].into_iter().enumerate() {
            let mut s = 5;
            assert!(Coin.step_in_place(&mut s, &Act::Reset, k));
            assert_eq!(s, want);
        }
        let mut s = 5;
        assert!(!Coin.step_in_place(&mut s, &Act::Reset, 2));
        assert_eq!(s, 5, "an out-of-range pick leaves the state untouched");

        // The default `step_chosen` asks its chooser once, with the count.
        let mut asked = Vec::new();
        let mut s = 5;
        assert!(Coin.step_chosen(&mut s, &Act::Reset, &mut |n| {
            asked.push(n);
            n - 1
        }));
        assert_eq!((s, asked), (1, vec![2]));
    }

    #[test]
    fn default_task_walk_filters_by_task() {
        /// Two tasks: `Tick` in class 1, `Reset` (locally controlled
        /// here) in class 0, enabled in the order `Tick, Reset, Tick`.
        #[derive(Clone)]
        struct TwoTask;
        impl Automaton for TwoTask {
            type Action = Act;
            type State = u8;
            fn start_state(&self) -> u8 {
                0
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Output)
            }
            fn successors(&self, s: &u8, _a: &Act) -> Vec<u8> {
                vec![*s]
            }
            fn for_each_enabled_local(
                &self,
                _s: &u8,
                f: &mut dyn FnMut(Act) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                for a in [Act::Tick, Act::Reset, Act::Tick] {
                    f(a)?;
                }
                ControlFlow::Continue(())
            }
            fn task_of(&self, a: &Act) -> TaskId {
                TaskId(usize::from(*a == Act::Tick))
            }
            fn task_count(&self) -> usize {
                2
            }
        }
        let of_task = |t| {
            let mut seen = Vec::new();
            let _ = TwoTask.for_each_enabled_of_task(&0, TaskId(t), &mut |a| {
                seen.push(a);
                ControlFlow::Continue(())
            });
            seen
        };
        assert_eq!(of_task(0), vec![Act::Reset]);
        assert_eq!(of_task(1), vec![Act::Tick, Act::Tick]);
        assert_eq!(of_task(2), vec![]);
    }

    #[test]
    fn buffer_reuse_and_callback_defaults_match_vec_apis() {
        let c = Counter;
        let mut buf = Vec::new();
        c.successors_into(&1, &Act::Tick, &mut buf);
        assert_eq!(buf, c.successors(&1, &Act::Tick));
        // Append semantics: the caller owns clearing.
        c.successors_into(&1, &Act::Reset, &mut buf);
        assert_eq!(buf, vec![2, 0]);

        let mut seen = Vec::new();
        let flow = c.for_each_enabled_local(&0, &mut |a| {
            seen.push(a);
            ControlFlow::Continue(())
        });
        assert_eq!(flow, ControlFlow::Continue(()));
        assert_eq!(seen, c.enabled_local(&0));
        assert!(c.has_enabled_local(&0));
    }

    #[test]
    fn is_enabled_short_circuits_enumeration() {
        /// Two successors; counts how many the visitor materialized.
        #[derive(Clone)]
        struct Pair2(std::sync::Arc<std::sync::atomic::AtomicUsize>);
        impl Automaton for Pair2 {
            type Action = Act;
            type State = u8;
            fn start_state(&self) -> u8 {
                0
            }
            fn classify(&self, _a: &Act) -> Option<ActionClass> {
                Some(ActionClass::Input)
            }
            fn successors(&self, _s: &u8, _a: &Act) -> Vec<u8> {
                vec![0, 1]
            }
            fn try_for_each_successor(
                &self,
                _s: &u8,
                _a: &Act,
                f: &mut dyn FnMut(u8) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                for s in [0u8, 1] {
                    self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    f(s)?;
                }
                ControlFlow::Continue(())
            }
            fn for_each_enabled_local(
                &self,
                _s: &u8,
                _f: &mut dyn FnMut(Act) -> ControlFlow<()>,
            ) -> ControlFlow<()> {
                ControlFlow::Continue(())
            }
            fn task_of(&self, _a: &Act) -> TaskId {
                TaskId(0)
            }
            fn task_count(&self) -> usize {
                1
            }
        }

        let made = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let p = Pair2(std::sync::Arc::clone(&made));
        assert!(p.is_enabled(&0, &Act::Reset));
        assert_eq!(
            made.load(std::sync::atomic::Ordering::Relaxed),
            1,
            "is_enabled must stop at the first successor"
        );
        assert_eq!(p.step_first(&0, &Act::Reset), Some(0));
        assert_eq!(
            made.load(std::sync::atomic::Ordering::Relaxed),
            2,
            "step_first must stop at the first successor"
        );
    }
}
