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
/// Six of those methods are required: all but `start_states`, which
/// collects the start state (a [`Deterministic`] automaton writes
/// `successors` through
/// [`deterministic_transitions!`](crate::deterministic_transitions)).
/// Beside them, the transition core has defaults that an automaton may
/// override:
/// [`successor_count`](Automaton::successor_count) and
/// [`step_chosen`](Automaton::step_chosen), the in-place step that
/// sessions and the explorer take;
/// [`for_each_enabled_of_task`](Automaton::for_each_enabled_of_task); and
/// [`parts`](Automaton::parts),
/// [`touched_parts`](Automaton::touched_parts) and
/// [`restore_parts`](Automaton::restore_parts). Every other method is
/// derived from those, is defined only here, and is never overridden, so
/// a wrapper that forwards the core keeps each derived method as fast as
/// its inner automaton's.
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
    /// hashable so recordings ([`InternedSeq`](crate::intern::InternedSeq))
    /// can intern states instead of storing copies. The explorer stores
    /// packed encodings ([`PackedCodec`](crate::intern::PackedCodec))
    /// instead.
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

    /// All states `s'` with `(state, action, s') ∈ steps(A)`, in the order
    /// executors pick them by position.
    ///
    /// Empty means the action is not enabled in `state` — which is only
    /// permitted for locally-controlled actions (inputs are always enabled).
    /// This by-value form is the specification the in-place core
    /// ([`successor_count`](Automaton::successor_count),
    /// [`step_chosen`](Automaton::step_chosen)) is checked against.
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

    /// Appends all successors of `(state, action)` to `out`, in
    /// [`successors`](Automaton::successors) order — the buffer-reuse
    /// form. Callers own the buffer lifecycle (typically `clear()` +
    /// `successors_into` in a loop). Each counted pick is stepped in place
    /// on a clone of `state`.
    fn successors_into(
        &self,
        state: &Self::State,
        action: &Self::Action,
        out: &mut Vec<Self::State>,
    ) {
        for pick in 0..self.successor_count(state, action) {
            let mut next = state.clone();
            let stepped = self.step_in_place(&mut next, action, pick);
            debug_assert!(stepped, "a counted pick must step");
            out.push(next);
        }
    }

    /// The locally-controlled actions enabled in `state`: the
    /// [`for_each_enabled_local`](Automaton::for_each_enabled_local) walk,
    /// collected in its order.
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
    /// `state` — a nonzero [`successor_count`](Automaton::successor_count).
    fn is_enabled(&self, state: &Self::State, action: &Self::Action) -> bool {
        self.successor_count(state, action) > 0
    }

    /// Takes one step on a clone of `state`, resolving nondeterminism by
    /// picking the first successor. Returns `None` if the action is not
    /// enabled.
    ///
    /// Deterministic automata (one successor per step, one start state) can
    /// be driven entirely through `step_first`.
    fn step_first(&self, state: &Self::State, action: &Self::Action) -> Option<Self::State> {
        let mut next = state.clone();
        self.step_chosen(&mut next, action, &mut |_| 0)
            .then_some(next)
    }

    /// The number of successors of `(state, action)`: the length
    /// [`successors`](Automaton::successors) returns. `0` means the action
    /// is not enabled. The default builds that list; a hot-path automaton
    /// counts without building a state.
    fn successor_count(&self, state: &Self::State, action: &Self::Action) -> usize {
        self.successors(state, action).len()
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
    /// both the count and the step. The default builds the `successors`
    /// list once and moves the chosen one in.
    fn step_chosen(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        let successors = self.successors(state, action);
        if successors.is_empty() {
            return false;
        }
        let pick = choose(successors.len());
        match successors.into_iter().nth(pick) {
            Some(next) => {
                *state = next;
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

    /// The number of leaf components whose states make up this
    /// automaton's state: 1 for a leaf, and the sum of both sides for a
    /// [`Compose2`](crate::composition::Compose2), left first. Its parts
    /// are the parts of its state's packed encoding
    /// ([`PackedCodec`](crate::intern::PackedCodec)), in the same order.
    fn parts(&self) -> usize {
        1
    }

    /// The parts a step on `action` may change, as a mask over
    /// [`parts`](Automaton::parts) (bit `i` is part `i`): a leaf sets its
    /// bit when `action` is in its signature. A step leaves every other
    /// part as it was (§2.5), which lets the explorer re-encode and
    /// [restore](Automaton::restore_parts) only the touched ones.
    fn touched_parts(&self, action: &Self::Action) -> u64 {
        u64::from(self.in_signature(action))
    }

    /// Copies the parts that `touched` marks back from `parent` into
    /// `state`; a leaf `clone_from`s `parent` when its bit is set. After a
    /// step of a copy of `parent` on an action, restoring
    /// [`touched_parts`](Automaton::touched_parts) of that action makes
    /// the copy equal `parent` again.
    fn restore_parts(&self, state: &mut Self::State, parent: &Self::State, touched: u64) {
        if touched & 1 != 0 {
            state.clone_from(parent);
        }
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
/// value (executors take `&A` internally; this keeps APIs flexible). It
/// forwards the required methods and the overridable transition core, so
/// every derived method of a reference runs its automaton's own core.
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
    fn task_of(&self, action: &Self::Action) -> TaskId {
        (**self).task_of(action)
    }
    fn task_count(&self) -> usize {
        (**self).task_count()
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
    fn parts(&self) -> usize {
        (**self).parts()
    }
    fn touched_parts(&self, action: &Self::Action) -> u64 {
        (**self).touched_parts(action)
    }
    fn restore_parts(&self, state: &mut Self::State, parent: &Self::State, touched: u64) {
        (**self).restore_parts(state, parent, touched);
    }
}

/// A deterministic transition relation — at most one successor per
/// `(state, action)` — split into a guard that never clones and an
/// update that works in place.
///
/// An automaton implements this pair and writes
/// [`deterministic_transitions!`](crate::deterministic_transitions) inside
/// its `impl Automaton` block. The macro writes the transition core from
/// the pair, so the by-value path (guard, clone, apply) behind
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

/// Emits, inside an `impl Automaton` block, the three transition methods of
/// a [`Deterministic`] automaton: `successors`, `successor_count` and
/// `step_chosen`. Every other transition method derives from those.
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
            if $crate::automaton::Deterministic::enabled(self, state, action) {
                let mut next = ::std::clone::Clone::clone(state);
                $crate::automaton::Deterministic::apply(self, &mut next, action);
                ::std::vec![next]
            } else {
                ::std::vec::Vec::new()
            }
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
}
