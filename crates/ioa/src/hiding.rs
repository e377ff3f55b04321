//! The output-hiding operator `hide_Φ(A)` (paper §2.6).
//!
//! `hide_Φ(A)` is identical to `A` except that the outputs in `Φ` become
//! internal. In this paper it is used to hide the `send_pkt`/`receive_pkt`
//! actions of a data link implementation so that only data-link-layer
//! actions remain external (§5.2).

use std::ops::ControlFlow;

use crate::action::ActionClass;
use crate::automaton::{Automaton, TaskId};

/// Wraps an automaton, reclassifying a predicate-selected set of its output
/// actions as internal.
#[derive(Clone)]
pub struct Hide<M, F> {
    inner: M,
    hidden: F,
}

impl<M, F> Hide<M, F>
where
    M: Automaton,
    F: Fn(&M::Action) -> bool,
{
    /// Hides every output action of `inner` for which `hidden` returns
    /// `true`. Actions that are not outputs are unaffected even if the
    /// predicate selects them (the paper requires `Φ ⊆ out(A)`).
    pub fn new(inner: M, hidden: F) -> Self {
        Hide { inner, hidden }
    }

    /// The wrapped automaton.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// Consumes the wrapper, returning the wrapped automaton.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M, F> Automaton for Hide<M, F>
where
    M: Automaton,
    F: Fn(&M::Action) -> bool,
{
    type Action = M::Action;
    type State = M::State;

    fn start_state(&self) -> Self::State {
        self.inner.start_state()
    }

    fn classify(&self, action: &Self::Action) -> Option<ActionClass> {
        match self.inner.classify(action) {
            Some(ActionClass::Output) if (self.hidden)(action) => Some(ActionClass::Internal),
            other => other,
        }
    }

    fn successors(&self, state: &Self::State, action: &Self::Action) -> Vec<Self::State> {
        self.inner.successors(state, action)
    }

    fn task_of(&self, action: &Self::Action) -> TaskId {
        self.inner.task_of(action)
    }

    fn task_count(&self) -> usize {
        self.inner.task_count()
    }

    // Hiding only relabels the signature; the transition core delegates,
    // so every derived method runs the inner automaton's in-place
    // overrides and the explorer splices its parts.
    fn for_each_enabled_local(
        &self,
        state: &Self::State,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.inner.for_each_enabled_local(state, f)
    }

    fn for_each_enabled_of_task(
        &self,
        state: &Self::State,
        task: TaskId,
        f: &mut dyn FnMut(Self::Action) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        self.inner.for_each_enabled_of_task(state, task, f)
    }

    fn successor_count(&self, state: &Self::State, action: &Self::Action) -> usize {
        self.inner.successor_count(state, action)
    }

    fn step_chosen(
        &self,
        state: &mut Self::State,
        action: &Self::Action,
        choose: &mut dyn FnMut(usize) -> usize,
    ) -> bool {
        self.inner.step_chosen(state, action, choose)
    }

    fn parts(&self) -> usize {
        self.inner.parts()
    }

    fn touched_parts(&self, action: &Self::Action) -> u64 {
        self.inner.touched_parts(action)
    }

    fn restore_parts(&self, state: &mut Self::State, parent: &Self::State, touched: u64) {
        self.inner.restore_parts(state, parent, touched);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        In,
        OutA,
        OutB,
    }

    #[derive(Clone)]
    struct M;
    impl Automaton for M {
        type Action = Act;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::In => ActionClass::Input,
                Act::OutA | Act::OutB => ActionClass::Output,
            })
        }
        fn successors(&self, s: &u8, _a: &Act) -> Vec<u8> {
            vec![*s]
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            f(Act::OutA)?;
            f(Act::OutB)
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn hides_selected_outputs_only() {
        let h = Hide::new(M, |a: &Act| matches!(a, Act::OutA));
        assert_eq!(h.classify(&Act::OutA), Some(ActionClass::Internal));
        assert_eq!(h.classify(&Act::OutB), Some(ActionClass::Output));
        assert_eq!(h.classify(&Act::In), Some(ActionClass::Input));
    }

    #[test]
    fn does_not_hide_inputs() {
        let h = Hide::new(M, |_: &Act| true);
        // Predicate selects everything, but inputs stay inputs.
        assert_eq!(h.classify(&Act::In), Some(ActionClass::Input));
        assert_eq!(h.classify(&Act::OutA), Some(ActionClass::Internal));
    }

    #[test]
    fn dynamics_unchanged() {
        let h = Hide::new(M, |a: &Act| matches!(a, Act::OutA));
        assert_eq!(h.start_states(), vec![0]);
        assert_eq!(h.start_state(), 0);
        assert_eq!(h.successors(&0, &Act::OutA), vec![0]);
        assert_eq!(h.enabled_local(&0), vec![Act::OutA, Act::OutB]);
        assert_eq!(h.task_count(), 1);
        assert_eq!(h.task_of(&Act::OutA), TaskId(0));
    }

    #[test]
    fn inner_accessors() {
        let h = Hide::new(M, |_: &Act| false);
        let _: &M = h.inner();
        let _: M = h.into_inner();
    }
}
