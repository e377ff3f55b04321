//! The only place the two formalisms meet: compiling an
//! [`ioa::Automaton`] (plus a permitted-inputs closure) into the
//! independent checker's [`CcModel`].
//!
//! The bridge deliberately consumes the *allocating* `Automaton` API
//! family — [`Automaton::successors`] and [`Automaton::enabled_local`]
//! — while `dl-explore` drives the in-place and callback forms
//! (`step_in_place` / `for_each_enabled_local`). Every leaf writes its
//! enabled actions once, as the walk `enabled_local` collects, so that
//! half is model code both checkers share, for a composition as for a
//! leaf. The successor half still cross-checks the trait
//! contract on every composed automaton it touches: an in-place override
//! whose order drifted from `successors` would show up as a count or
//! trace disagreement.

use std::fmt::Debug;
use std::hash::Hash;

use ioa::Automaton;

use crate::model::CcModel;

/// An automaton-plus-environment compiled into a [`CcModel`].
///
/// The action menu is the explorer's: enabled locally-controlled
/// actions first (in `enabled_local` order), then the permitted
/// environment inputs (in closure order).
pub struct Translated<M, I> {
    automaton: M,
    inputs: I,
}

impl<M> Translated<M, fn(&<M as Automaton>::State) -> Vec<<M as Automaton>::Action>>
where
    M: Automaton,
{
    /// A closed system: no environment inputs, only local actions.
    pub fn closed(automaton: M) -> Self {
        Translated {
            automaton,
            inputs: |_| Vec::new(),
        }
    }
}

impl<M, I> Translated<M, I>
where
    M: Automaton,
    I: Fn(&M::State) -> Vec<M::Action>,
{
    /// Compiles `automaton` with the permitted-inputs closure `inputs`
    /// (the same closure handed to the explorer, so both engines face
    /// the same environment).
    pub fn new(automaton: M, inputs: I) -> Self {
        Translated { automaton, inputs }
    }
}

impl<M, I> CcModel for Translated<M, I>
where
    M: Automaton,
    M::State: Clone + Eq + Hash + Debug,
    M::Action: Clone + Eq + Debug,
    I: Fn(&M::State) -> Vec<M::Action>,
{
    type State = M::State;
    type Action = M::Action;

    fn init_states(&self) -> Vec<M::State> {
        self.automaton.start_states()
    }

    fn actions(&self, state: &M::State, out: &mut Vec<M::Action>) {
        let walked = out.len();
        out.extend(self.automaton.enabled_local(state));
        // The enabled walk yields only enabled actions; one it yields with
        // no successor would vanish from the check.
        for a in &out[walked..] {
            debug_assert!(
                self.automaton.is_enabled(state, a),
                "walked action {a:?} has no successor"
            );
        }
        out.extend((self.inputs)(state));
    }

    fn apply(&self, state: &M::State, action: &M::Action, out: &mut Vec<M::State>) {
        out.extend(self.automaton.successors(state, action));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checker::CcChecker;
    use ioa::{ActionClass, TaskId};

    /// Modulo-3 counter with a local `Tick` and an environment `Reset`.
    struct Counter;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Tick,
        Reset,
    }

    impl Automaton for Counter {
        type State = u8;
        type Action = Act;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Tick => ActionClass::Output,
                Act::Reset => ActionClass::Input,
            })
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Tick => vec![(s + 1) % 3],
                Act::Reset => vec![0],
            }
        }
        fn for_each_enabled_local(
            &self,
            _s: &u8,
            f: &mut dyn FnMut(Act) -> std::ops::ControlFlow<()>,
        ) -> std::ops::ControlFlow<()> {
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
    fn closed_translation_explores_the_local_cycle() {
        let report = CcChecker::new(Translated::closed(Counter), 100, 100).reachable();
        assert!(report.holds());
        assert_eq!(report.states_visited, 3);
        assert_eq!(report.diameter(), 2);
    }

    #[test]
    fn menu_is_local_then_inputs() {
        let model = Translated::new(Counter, |_s: &u8| vec![Act::Reset]);
        let mut menu = Vec::new();
        model.actions(&1, &mut menu);
        assert_eq!(menu, vec![Act::Tick, Act::Reset]);
    }
}
