//! Composition of strongly compatible automata (paper §2.5).
//!
//! We provide *binary* composition [`Compose2`]; n-ary composition is
//! obtained by nesting (composition is associative up to state-tuple
//! re-bracketing, which is all the paper's proofs need). Each step of the
//! composition consists of every component that has the action in its
//! signature taking that action simultaneously, while the others' states are
//! unchanged.

use std::fmt;
use std::ops::ControlFlow;

use crate::action::ActionClass;
use crate::automaton::{Automaton, TaskId};
use crate::execution::Execution;

/// Product state of a binary composition.
///
/// A plain pair with readable `Debug` output; fields are public because the
/// impossibility engines inspect and splice component states, mirroring the
/// paper's `s[i]` notation.
#[derive(PartialEq, Eq, Hash)]
pub struct Pair<S, T> {
    /// State of the left component.
    pub left: S,
    /// State of the right component.
    pub right: T,
}

/// Written out because a derived `Clone` does not forward `clone_from`,
/// and only a field-wise `clone_from` reuses the halves' buffers. The
/// explorer copies each frontier state onto its reused successor once,
/// and after each edge restores only the parts the step touched
/// ([`Automaton::restore_parts`]), a leaf's part by its own
/// `clone_from`.
impl<S: Clone, T: Clone> Clone for Pair<S, T> {
    #[inline]
    fn clone(&self) -> Self {
        Pair {
            left: self.left.clone(),
            right: self.right.clone(),
        }
    }

    #[inline]
    fn clone_from(&mut self, source: &Self) {
        self.left.clone_from(&source.left);
        self.right.clone_from(&source.right);
    }
}

impl<S, T> Pair<S, T> {
    /// Creates a product state.
    pub fn new(left: S, right: T) -> Self {
        Pair { left, right }
    }
}

impl<S: fmt::Debug, T: fmt::Debug> fmt::Debug for Pair<S, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:?}, {:?})", self.left, self.right)
    }
}

impl<S: crate::intern::PackedCodec, T: crate::intern::PackedCodec> crate::intern::PackedCodec
    for Pair<S, T>
{
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.left.encode(out);
        self.right.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        Pair {
            left: S::decode(input),
            right: T::decode(input),
        }
    }
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        self.left.decode_into(input);
        self.right.decode_into(input);
    }
    #[inline]
    fn decode_parts_into(&mut self, input: &mut &[u8], ends: &mut Vec<usize>) {
        self.left.decode_parts_into(input, ends);
        self.right.decode_parts_into(input, ends);
    }
    #[inline]
    fn encode_spliced(&self, splice: &mut crate::intern::Splice<'_>) {
        self.left.encode_spliced(splice);
        self.right.encode_spliced(splice);
    }
}

/// Why two automata failed the strong-compatibility check (paper §2.5.1).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CompatibilityError<A> {
    /// The action is an output of both components.
    SharedOutput(A),
    /// The action is internal to one component but in the signature of the
    /// other.
    InternalShared(A),
}

impl<A: fmt::Debug> fmt::Display for CompatibilityError<A> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompatibilityError::SharedOutput(a) => {
                write!(f, "action {a:?} is an output of both components")
            }
            CompatibilityError::InternalShared(a) => write!(
                f,
                "action {a:?} is internal to one component but shared with the other"
            ),
        }
    }
}

impl<A: fmt::Debug> std::error::Error for CompatibilityError<A> {}

/// The composition `L × R` of two (strongly compatible) automata over the
/// same action universe.
///
/// The composite signature follows §2.5.1: an action is an *output* if it is
/// an output of either component, *internal* if internal to either, and an
/// *input* if it is an input of some component and an output of none.
/// Task ids of the right component are shifted by `left.task_count()` so the
/// composite partition is the disjoint union of the component partitions.
///
/// Strong compatibility is **checked per action on demand** (the action
/// universe may be infinite): [`Compose2::check_compatible`] validates a
/// sample of actions, and every `classify` call asserts compatibility for
/// the action it sees in debug builds. Debug builds of
/// [`for_each_enabled_local`](Automaton::for_each_enabled_local) and
/// [`for_each_enabled_of_task`](Automaton::for_each_enabled_of_task)
/// likewise assert that the other side takes every action one side enables
/// (input enabledness, §2.2).
///
/// Three methods route an action to the components whose signatures hold
/// it: the by-value [`successors`](Automaton::successors) specification
/// and the in-place core, [`successor_count`](Automaton::successor_count)
/// and [`step_chosen`](Automaton::step_chosen). Every other transition
/// method is the trait's derivation from those.
#[derive(Clone)]
pub struct Compose2<L, R> {
    left: L,
    right: R,
}

impl<L, R, A> Compose2<L, R>
where
    A: Clone + Eq + fmt::Debug,
    L: Automaton<Action = A>,
    R: Automaton<Action = A>,
{
    /// Composes two automata. Compatibility is not exhaustively checkable
    /// (the action universe may be infinite); use
    /// [`check_compatible`](Compose2::check_compatible) to validate a
    /// sample.
    pub fn new(left: L, right: R) -> Self {
        Compose2 { left, right }
    }

    /// The left component.
    pub fn left(&self) -> &L {
        &self.left
    }

    /// The right component.
    pub fn right(&self) -> &R {
        &self.right
    }

    /// Checks strong compatibility on the given sample of actions.
    ///
    /// # Errors
    ///
    /// Returns the first [`CompatibilityError`] found.
    pub fn check_compatible(&self, sample: &[A]) -> Result<(), CompatibilityError<A>> {
        for a in sample {
            let l = self.left.classify(a);
            let r = self.right.classify(a);
            if l == Some(ActionClass::Output) && r == Some(ActionClass::Output) {
                return Err(CompatibilityError::SharedOutput(a.clone()));
            }
            if (l == Some(ActionClass::Internal) && r.is_some())
                || (r == Some(ActionClass::Internal) && l.is_some())
            {
                return Err(CompatibilityError::InternalShared(a.clone()));
            }
        }
        Ok(())
    }

    /// Projects an execution of the composition onto the left component
    /// (Lemma 2.2): keeps steps whose action is in the left signature and
    /// maps states to their left halves.
    pub fn project_left(
        &self,
        exec: &Execution<A, Pair<L::State, R::State>>,
    ) -> Execution<A, L::State> {
        let mut out = Execution::new(exec.first_state().left.clone());
        for step in exec.steps() {
            if self.left.in_signature(&step.action) {
                out.push_unchecked(step.action.clone(), step.post.left.clone());
            }
        }
        out
    }

    /// Where the right component's parts start in a part mask.
    ///
    /// # Panics
    ///
    /// When the composition has more parts than a 64-bit mask holds.
    fn right_shift(&self) -> u32 {
        let parts = self.parts();
        assert!(
            parts <= 64,
            "{} has {parts} parts; a part mask holds 64",
            std::any::type_name::<Self>()
        );
        self.left.parts() as u32
    }

    /// Projects an execution of the composition onto the right component
    /// (Lemma 2.2).
    pub fn project_right(
        &self,
        exec: &Execution<A, Pair<L::State, R::State>>,
    ) -> Execution<A, R::State> {
        let mut out = Execution::new(exec.first_state().right.clone());
        for step in exec.steps() {
            if self.right.in_signature(&step.action) {
                out.push_unchecked(step.action.clone(), step.post.right.clone());
            }
        }
        out
    }
}

/// The input-enabledness check (§2.2) of a composition's enabled walks,
/// in debug builds: `other`, in `state`, takes the action `a` that the
/// composition's `side` component enables, unless `a` is outside its
/// signature.
fn debug_assert_takes<O: Automaton>(other: &O, state: &O::State, a: &O::Action, side: &str) {
    debug_assert!(
        !other.in_signature(a) || other.is_enabled(state, a),
        "input enabledness violated: {a:?} is enabled on the {side} but refused on the other side"
    );
}

impl<L, R, A> Automaton for Compose2<L, R>
where
    A: Clone + Eq + fmt::Debug,
    L: Automaton<Action = A>,
    R: Automaton<Action = A>,
{
    type Action = A;
    type State = Pair<L::State, R::State>;

    fn start_state(&self) -> Self::State {
        Pair::new(self.left.start_state(), self.right.start_state())
    }

    fn classify(&self, action: &A) -> Option<ActionClass> {
        let l = self.left.classify(action);
        let r = self.right.classify(action);
        debug_assert!(
            !(l == Some(ActionClass::Output) && r == Some(ActionClass::Output)),
            "strong compatibility violated: {action:?} is an output of both components"
        );
        debug_assert!(
            !((l == Some(ActionClass::Internal) && r.is_some())
                || (r == Some(ActionClass::Internal) && l.is_some())),
            "strong compatibility violated: {action:?} is internal to one component but shared"
        );
        match (l, r) {
            (None, None) => None,
            (Some(ActionClass::Internal), _) | (_, Some(ActionClass::Internal)) => {
                Some(ActionClass::Internal)
            }
            (Some(ActionClass::Output), _) | (_, Some(ActionClass::Output)) => {
                Some(ActionClass::Output)
            }
            _ => Some(ActionClass::Input),
        }
    }

    fn successors(&self, state: &Self::State, action: &A) -> Vec<Self::State> {
        let in_l = self.left.in_signature(action);
        let in_r = self.right.in_signature(action);
        match (in_l, in_r) {
            (false, false) => vec![],
            (true, false) => self
                .left
                .successors(&state.left, action)
                .into_iter()
                .map(|l| Pair::new(l, state.right.clone()))
                .collect(),
            (false, true) => self
                .right
                .successors(&state.right, action)
                .into_iter()
                .map(|r| Pair::new(state.left.clone(), r))
                .collect(),
            (true, true) => {
                let ls = self.left.successors(&state.left, action);
                let rs = self.right.successors(&state.right, action);
                ls.into_iter()
                    .flat_map(|l| rs.iter().map(move |r| Pair::new(l.clone(), r.clone())))
                    .collect()
            }
        }
    }

    fn successor_count(&self, state: &Self::State, action: &A) -> usize {
        let in_l = self.left.in_signature(action);
        let in_r = self.right.in_signature(action);
        match (in_l, in_r) {
            (false, false) => 0,
            (true, false) => self.left.successor_count(&state.left, action),
            (false, true) => self.right.successor_count(&state.right, action),
            (true, true) => match self.left.successor_count(&state.left, action) {
                0 => 0,
                n => n * self.right.successor_count(&state.right, action),
            },
        }
    }

    fn step_chosen(
        &self,
        state: &mut Self::State,
        action: &A,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        // Only the components whose signature holds the action step; the
        // other keeps its state untouched (§2.5). A one-sided action hands
        // the chooser down. A shared action draws one pick over the product
        // of both counts, split left outer and right inner as the
        // enumeration orders it: the left's chooser lets the right count
        // and step under that draw, then returns the left's share. A zero
        // count or an out-of-range pick on either side moves neither.
        let in_l = self.left.in_signature(action);
        let in_r = self.right.in_signature(action);
        let Pair { left, right } = state;
        match (in_l, in_r) {
            (false, false) => false,
            (true, false) => self.left.step_chosen(left, action, choose),
            (false, true) => self.right.step_chosen(right, action, choose),
            (true, true) => {
                let mut right_stepped = false;
                let left_stepped = self.left.step_chosen(left, action, &mut |nl| {
                    let mut left_pick = nl;
                    right_stepped = self.right.step_chosen(right, action, &mut |nr| {
                        let pick = choose(nl * nr);
                        if pick >= nl * nr {
                            return nr;
                        }
                        left_pick = pick / nr;
                        pick % nr
                    });
                    left_pick
                });
                debug_assert_eq!(left_stepped, right_stepped, "a counted successor must step");
                left_stepped
            }
        }
    }

    fn for_each_enabled_of_task(
        &self,
        state: &Self::State,
        task: TaskId,
        f: &mut dyn FnMut(A) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // The composite partition is the disjoint union of the
        // components' (`task_of`), so one component owns the class; the
        // other is asked nothing beyond the debug input-enabledness check
        // `for_each_enabled_local` makes.
        let split = self.left.task_count();
        if task.0 < split {
            self.left
                .for_each_enabled_of_task(&state.left, task, &mut |a| {
                    debug_assert_takes(&self.right, &state.right, &a, "left");
                    f(a)
                })
        } else {
            let task = TaskId(task.0 - split);
            self.right
                .for_each_enabled_of_task(&state.right, task, &mut |a| {
                    debug_assert_takes(&self.left, &state.left, &a, "right");
                    f(a)
                })
        }
    }

    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(A) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Left's enabled actions, then right's. Strong compatibility
        // (§2.5.1) makes an action one side controls at most an *input* of
        // the other, and inputs are enabled in every state (§2.2), so the
        // other side never refuses one: that is a debug assertion here,
        // like `classify`'s compatibility check. The same argument makes
        // an action both sides enable impossible (an output of both is
        // not compatible), so the union needs no dedup.
        self.left.for_each_enabled_local(&state.left, &mut |a| {
            debug_assert_takes(&self.right, &state.right, &a, "left");
            f(a)
        })?;
        self.right.for_each_enabled_local(&state.right, &mut |a| {
            debug_assert_takes(&self.left, &state.left, &a, "right");
            f(a)
        })
    }

    fn task_of(&self, action: &A) -> TaskId {
        if self
            .left
            .classify(action)
            .is_some_and(ActionClass::is_locally_controlled)
        {
            self.left.task_of(action)
        } else {
            TaskId(self.left.task_count() + self.right.task_of(action).0)
        }
    }

    fn task_count(&self) -> usize {
        self.left.task_count() + self.right.task_count()
    }

    fn parts(&self) -> usize {
        self.left.parts() + self.right.parts()
    }

    fn touched_parts(&self, action: &A) -> u64 {
        self.left.touched_parts(action) | self.right.touched_parts(action) << self.right_shift()
    }

    fn restore_parts(&self, state: &mut Self::State, parent: &Self::State, touched: u64) {
        self.left
            .restore_parts(&mut state.left, &parent.left, touched);
        self.right.restore_parts(
            &mut state.right,
            &parent.right,
            touched >> self.right_shift(),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Producer emits `Mid(n)` (output), consumer takes `Mid(n)` (input) and
    /// emits `Out(n)`.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Go,
        Mid(u8),
        Out(u8),
    }

    #[derive(Clone)]
    struct Producer;
    impl Automaton for Producer {
        type Action = Act;
        type State = Option<u8>;

        fn start_state(&self) -> Self::State {
            None
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Go => Some(ActionClass::Input),
                Act::Mid(_) => Some(ActionClass::Output),
                Act::Out(_) => None,
            }
        }
        fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
            match a {
                Act::Go => vec![Some(7)],
                Act::Mid(n) if *s == Some(*n) => vec![None],
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &Self::State,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            match s {
                Some(n) => f(Act::Mid(*n)),
                None => ControlFlow::Continue(()),
            }
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[derive(Clone)]
    struct Consumer;
    impl Automaton for Consumer {
        type Action = Act;
        type State = Option<u8>;

        fn start_state(&self) -> Self::State {
            None
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Mid(_) => Some(ActionClass::Input),
                Act::Out(_) => Some(ActionClass::Output),
                Act::Go => None,
            }
        }
        fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
            match a {
                Act::Mid(n) => vec![Some(*n)],
                Act::Out(n) if *s == Some(*n) => vec![None],
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &Self::State,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            match s {
                Some(n) => f(Act::Out(*n)),
                None => ControlFlow::Continue(()),
            }
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    fn pipeline() -> Compose2<Producer, Consumer> {
        Compose2::new(Producer, Consumer)
    }

    #[test]
    fn composite_signature() {
        let c = pipeline();
        assert_eq!(c.classify(&Act::Go), Some(ActionClass::Input));
        // Mid is an output of Producer and input of Consumer => output.
        assert_eq!(c.classify(&Act::Mid(1)), Some(ActionClass::Output));
        assert_eq!(c.classify(&Act::Out(1)), Some(ActionClass::Output));
    }

    #[test]
    fn compatibility_check() {
        let c = pipeline();
        assert!(c
            .check_compatible(&[Act::Go, Act::Mid(0), Act::Out(0)])
            .is_ok());
        // Producer composed with itself shares the Mid output.
        let bad = Compose2::new(Producer, Producer);
        assert_eq!(
            bad.check_compatible(&[Act::Mid(0)]),
            Err(CompatibilityError::SharedOutput(Act::Mid(0)))
        );
    }

    #[test]
    fn shared_action_steps_both() {
        let c = pipeline();
        let s0 = c.start_state();
        assert_eq!(
            c.start_states(),
            vec![s0.clone()],
            "the start set is the paired start state"
        );
        let s1 = c.step_first(&s0, &Act::Go).unwrap();
        assert_eq!(s1.left, Some(7));
        assert_eq!(s1.right, None);
        let s2 = c.step_first(&s1, &Act::Mid(7)).unwrap();
        assert_eq!(s2.left, None);
        assert_eq!(s2.right, Some(7));
        let s3 = c.step_first(&s2, &Act::Out(7)).unwrap();
        assert_eq!(s3.right, None);

        // `Go` is in the producer's signature only: stepping it in place
        // leaves the consumer's state exactly as it was.
        let mut s = Pair::new(None, Some(3));
        assert!(c.step_in_place(&mut s, &Act::Go, 0));
        assert_eq!(s, Pair::new(Some(7), Some(3)));
    }

    /// `fan` nondeterministic successors per `Mid` step, taken as an
    /// output (left side) or an input (right side) — enough to exercise
    /// the shared-action cross product.
    #[derive(Clone)]
    struct Fan {
        fan: u8,
        output: bool,
    }

    impl Automaton for Fan {
        type Action = Act;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            match a {
                Act::Mid(_) if self.output => Some(ActionClass::Output),
                Act::Mid(_) => Some(ActionClass::Input),
                _ => None,
            }
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Mid(_) => (0..self.fan).map(|k| s + k).collect(),
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            if self.output {
                f(Act::Mid(0))
            } else {
                ControlFlow::Continue(())
            }
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn shared_action_picks_match_successors() {
        let mid = Act::Mid(0);
        for (lf, rf) in [(1, 1), (2, 3), (3, 1), (1, 3), (0, 2), (2, 0)] {
            let c = Compose2::new(
                Fan {
                    fan: lf,
                    output: true,
                },
                Fan {
                    fan: rf,
                    output: false,
                },
            );
            let s = Pair::new(10, 20);
            let legacy = c.successors(&s, &mid);
            assert_eq!(legacy.len(), usize::from(lf * rf));
            // In place, pick k lands on the k-th product; a pick equal to
            // the count is refused and leaves the state alone. The chooser
            // is asked once, with the product count, and never for an
            // empty fan.
            assert_eq!(c.successor_count(&s, &mid), legacy.len());
            let chosen = |pick: usize| {
                let mut t = s.clone();
                let mut asked = Vec::new();
                let stepped = c.step_chosen(&mut t, &mid, &mut |n| {
                    asked.push(n);
                    pick
                });
                (stepped, t, asked)
            };
            let asked = if legacy.is_empty() {
                vec![]
            } else {
                vec![legacy.len()]
            };
            for (k, want) in legacy.iter().enumerate() {
                let mut t = s.clone();
                assert!(c.step_in_place(&mut t, &mid, k), "fan {lf}x{rf} pick {k}");
                assert_eq!(&t, want, "fan {lf}x{rf} pick {k}");
                assert_eq!(
                    chosen(k),
                    (true, want.clone(), asked.clone()),
                    "fan {lf}x{rf} chosen pick {k}"
                );
            }
            let mut t = s.clone();
            assert!(!c.step_in_place(&mut t, &mid, legacy.len()));
            assert_eq!(t, s);
            assert_eq!(chosen(legacy.len()), (false, s.clone(), asked));
        }
    }

    #[test]
    fn enabled_local_unions_components() {
        let c = pipeline();
        let s0 = c.start_state();
        assert!(c.enabled_local(&s0).is_empty());
        let s1 = c.step_first(&s0, &Act::Go).unwrap();
        assert_eq!(c.enabled_local(&s1), vec![Act::Mid(7)]);
        // Both sides enabled: the left's actions, then the right's.
        let both = Pair::new(Some(7), Some(3));
        assert_eq!(c.enabled_local(&both), vec![Act::Mid(7), Act::Out(3)]);
    }

    /// A consumer that refuses `Mid` while it holds a value: not input
    /// enabled, so composing it breaks the contract the enabled walks
    /// assert in debug builds.
    #[cfg(debug_assertions)]
    #[derive(Clone)]
    struct Picky;
    #[cfg(debug_assertions)]
    impl Automaton for Picky {
        type Action = Act;
        type State = Option<u8>;

        fn start_state(&self) -> Self::State {
            None
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Consumer.classify(a)
        }
        fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
            match a {
                Act::Mid(_) if s.is_some() => vec![],
                _ => Consumer.successors(s, a),
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &Self::State,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            Consumer.for_each_enabled_local(s, f)
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "input enabledness violated")]
    fn enabled_walk_asserts_input_enabledness() {
        let c = Compose2::new(Producer, Picky);
        let _ = c.for_each_enabled_local(&Pair::new(Some(7), Some(3)), &mut |_| {
            ControlFlow::Continue(())
        });
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "input enabledness violated")]
    fn task_walk_asserts_input_enabledness() {
        let c = Compose2::new(Producer, Picky);
        let _ = c.for_each_enabled_of_task(&Pair::new(Some(7), Some(3)), TaskId(0), &mut |_| {
            ControlFlow::Continue(())
        });
    }

    #[test]
    fn task_ids_shift() {
        let c = pipeline();
        assert_eq!(c.task_count(), 2);
        assert_eq!(c.task_of(&Act::Mid(0)), TaskId(0));
        assert_eq!(c.task_of(&Act::Out(0)), TaskId(1));

        // Each class's walk asks only its owner, under the shifted id.
        let s = Pair::new(Some(7), Some(3));
        let of_task = |t| {
            let mut seen = Vec::new();
            let _ = c.for_each_enabled_of_task(&s, TaskId(t), &mut |a| {
                seen.push(a);
                ControlFlow::Continue(())
            });
            seen
        };
        assert_eq!(of_task(0), vec![Act::Mid(7)]);
        assert_eq!(of_task(1), vec![Act::Out(3)]);
    }

    #[test]
    fn projection_yields_component_executions() {
        let c = pipeline();
        let mut e = Execution::new(c.start_state());
        assert!(e.push(&c, Act::Go, 0));
        assert!(e.push(&c, Act::Mid(7), 0));
        assert!(e.push(&c, Act::Out(7), 0));

        let pl = c.project_left(&e);
        assert_eq!(pl.schedule(), vec![Act::Go, Act::Mid(7)]);
        assert_eq!(pl.validate(&Producer), Ok(()));

        let pr = c.project_right(&e);
        assert_eq!(pr.schedule(), vec![Act::Mid(7), Act::Out(7)]);
        assert_eq!(pr.validate(&Consumer), Ok(()));
    }

    #[test]
    fn touched_parts_follow_the_signatures_and_restore_only_those() {
        let c = pipeline();
        assert_eq!(c.parts(), 2);
        assert_eq!(c.touched_parts(&Act::Go), 0b01);
        assert_eq!(c.touched_parts(&Act::Mid(7)), 0b11);
        assert_eq!(c.touched_parts(&Act::Out(7)), 0b10);
        // Nested: the right component's parts follow the left's.
        let nested = Compose2::new(
            pipeline(),
            Fan {
                fan: 2,
                output: false,
            },
        );
        assert_eq!(nested.parts(), 3);
        assert_eq!(nested.touched_parts(&Act::Go), 0b001);
        assert_eq!(nested.touched_parts(&Act::Mid(7)), 0b111);
        assert_eq!(nested.touched_parts(&Act::Out(7)), 0b010);

        // Restoring a step's touched parts undoes it; restoring fewer
        // leaves the others stepped.
        let parent = Pair::new(Pair::new(Some(7), None), 10);
        let mut s = parent.clone();
        for pick in 0..nested.successor_count(&parent, &Act::Mid(7)) {
            assert!(nested.step_in_place(&mut s, &Act::Mid(7), pick));
            assert_eq!(s, Pair::new(Pair::new(None, Some(7)), 10 + pick as u8));
            nested.restore_parts(&mut s, &parent, 0b101);
            assert_eq!(s, Pair::new(Pair::new(Some(7), Some(7)), 10));
            nested.restore_parts(&mut s, &parent, 0b010);
            assert_eq!(s, parent);
        }
    }

    /// Claims 64 parts: any composition with it is too wide for a part
    /// mask.
    #[derive(Clone)]
    struct Wide;
    impl Automaton for Wide {
        type Action = Act;
        type State = Option<u8>;

        fn start_state(&self) -> Self::State {
            Producer.start_state()
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Producer.classify(a)
        }
        fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
            Producer.successors(s, a)
        }
        fn for_each_enabled_local(
            &self,
            s: &Self::State,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            Producer.for_each_enabled_local(s, f)
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
        fn parts(&self) -> usize {
            64
        }
    }

    #[test]
    #[should_panic(expected = "Compose2<ioa::composition::tests::Wide, \
                               ioa::composition::tests::Consumer> has 65 parts")]
    fn a_composition_wider_than_a_part_mask_panics() {
        let _ = Compose2::new(Wide, Consumer).touched_parts(&Act::Go);
    }

    /// A `Pair` records one end per leaf, and a splice copies every
    /// untouched part from the parent's bytes: for every touched mask, the
    /// result equals the successor's own encoding, appended after what
    /// the output held.
    #[test]
    fn spliced_pairs_encode_touched_parts_and_copy_the_rest() {
        use crate::intern::{PackedCodec, Splice};

        let parent = Pair::new(Pair::new(1u64, 300u64), Pair::new(70_000u64, 5u64));
        let lens = [1, 2, 3, 1];
        let mut bytes = Vec::new();
        parent.encode(&mut bytes);
        let mut decoded = Pair::new(Pair::new(9, 9), Pair::new(9, 9));
        let mut ends = vec![42];
        ends.clear();
        decoded.decode_parts_into(&mut &bytes[..], &mut ends);
        assert_eq!(decoded, parent);
        assert_eq!(ends, [6, 4, 1, 0], "bytes left after each part");

        for touched in 0..16u64 {
            let mut child = parent.clone();
            let bit = |i: u32| touched >> i & 1 != 0;
            if bit(0) {
                child.left.left = 1 << 20;
            }
            if bit(1) {
                child.left.right = 0;
            }
            if bit(2) {
                child.right.left = 70_001;
            }
            if bit(3) {
                child.right.right = 200;
            }
            let mut out = vec![0xAB];
            let mut splice = Splice::new(&bytes, &ends, touched, &mut out);
            child.encode_spliced(&mut splice);
            let copied = splice.finish();
            let mut want = vec![0xAB];
            child.encode(&mut want);
            assert_eq!(out, want, "touched {touched:#06b}");
            let untouched: usize = (0..4).filter(|&i| !bit(i)).map(|i| lens[i as usize]).sum();
            assert_eq!(copied, untouched, "touched {touched:#06b}");
        }
    }

    #[test]
    fn compatibility_error_display() {
        let e = CompatibilityError::SharedOutput(Act::Mid(1));
        assert!(e.to_string().contains("output of both"));
        let e = CompatibilityError::InternalShared(Act::Go);
        assert!(e.to_string().contains("internal"));
    }
}
