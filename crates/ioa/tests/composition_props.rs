//! Property tests for the I/O automaton kernel: the §2 lemmas hold on
//! random executions of a composed toy system.
//!
//! The toy system: a token ring of two cells. Cell 0 passes tokens to
//! cell 1 via `Hop(v)` (output of 0, input of 1); each cell can also
//! consume a held token (`Eat(i)`). Inputs `Feed(v)` give cell 0 a token.

use std::ops::ControlFlow;

use proptest::prelude::*;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};
use ioa::composition::Compose2;
use ioa::execution::{behavior_of_schedule, project_schedule, Execution};
use ioa::fairness::{EnvScript, FairExecutor};

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Act {
    Feed(u8),
    Hop(u8),
    Eat(u8), // cell index
}

/// One cell: holds at most one token value.
#[derive(Clone)]
struct Cell {
    index: u8,
}

impl Automaton for Cell {
    type Action = Act;
    type State = Option<u8>;

    fn start_state(&self) -> Option<u8> {
        None
    }

    fn classify(&self, a: &Act) -> Option<ActionClass> {
        match (a, self.index) {
            (Act::Feed(_), 0) => Some(ActionClass::Input),
            (Act::Hop(_), 0) => Some(ActionClass::Output),
            (Act::Hop(_), 1) => Some(ActionClass::Input),
            (Act::Eat(i), _) if *i == self.index => Some(ActionClass::Output),
            _ => None,
        }
    }

    fn successors(&self, s: &Option<u8>, a: &Act) -> Vec<Option<u8>> {
        match (a, self.index) {
            (Act::Feed(v), 0) => vec![Some(*v)], // overwrite: input-enabled
            (Act::Hop(v), 0) => {
                if *s == Some(*v) {
                    vec![None]
                } else {
                    vec![]
                }
            }
            (Act::Hop(v), 1) => vec![Some(*v)],
            (Act::Eat(i), _) if *i == self.index => {
                if s.is_some() {
                    vec![None]
                } else {
                    vec![]
                }
            }
            _ => vec![],
        }
    }

    fn for_each_enabled_local(
        &self,
        s: &Option<u8>,
        f: &mut dyn FnMut(Act) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        if let Some(v) = s {
            if self.index == 0 {
                f(Act::Hop(*v))?;
            }
            f(Act::Eat(self.index))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, a: &Act) -> TaskId {
        match a {
            Act::Hop(_) => TaskId(0),
            _ => TaskId(if self.index == 0 { 1 } else { 0 }),
        }
    }

    fn task_count(&self) -> usize {
        if self.index == 0 {
            2
        } else {
            1
        }
    }
}

fn ring() -> Compose2<Cell, Cell> {
    Compose2::new(Cell { index: 0 }, Cell { index: 1 })
}

fn random_execution(
    feeds: &[u8],
    seed: u64,
) -> Execution<Act, ioa::composition::Pair<Option<u8>, Option<u8>>> {
    let sys = ring();
    let mut exec = FairExecutor::new(seed, 10_000);
    let start = sys.start_states().remove(0);
    let script = EnvScript::with_gap(feeds.iter().map(|v| Act::Feed(*v)).collect(), 1);
    exec.run(&sys, start, script).execution
}

proptest! {
    /// Lemma 2.2: the projection of any execution of the composition onto a
    /// component is an execution of that component.
    #[test]
    fn projections_are_component_executions(
        feeds in prop::collection::vec(0u8..5, 0..10),
        seed in any::<u64>(),
    ) {
        let sys = ring();
        let exec = random_execution(&feeds, seed);
        let left = sys.project_left(&exec);
        let right = sys.project_right(&exec);
        prop_assert_eq!(left.validate(&Cell { index: 0 }), Ok(()));
        prop_assert_eq!(right.validate(&Cell { index: 1 }), Ok(()));
    }

    /// Lemma 2.2 for schedules: β|Aᵢ is a schedule of Aᵢ, and the
    /// projection helpers agree with the execution projections.
    #[test]
    fn schedule_projection_agrees(
        feeds in prop::collection::vec(0u8..5, 0..10),
        seed in any::<u64>(),
    ) {
        let sys = ring();
        let exec = random_execution(&feeds, seed);
        let sched = exec.schedule();
        let left_cell = Cell { index: 0 };
        prop_assert_eq!(
            project_schedule(&left_cell, &sched),
            sys.project_left(&exec).schedule()
        );
    }

    /// The composition's behavior never contains actions outside its
    /// external signature, and conservation holds: every Hop was preceded
    /// by a Feed, every Eat by a holding state.
    #[test]
    fn behaviors_are_external_and_conserving(
        feeds in prop::collection::vec(0u8..5, 0..10),
        seed in any::<u64>(),
    ) {
        let sys = ring();
        let exec = random_execution(&feeds, seed);
        let beh = behavior_of_schedule(&sys, &exec.schedule());
        // All actions of this system are external, so beh == sched.
        prop_assert_eq!(beh.len(), exec.len());
        let mut fed = 0i64;
        let mut consumed = 0i64;
        for a in &beh {
            match a {
                Act::Feed(_) => fed += 1,
                Act::Eat(_) => consumed += 1,
                Act::Hop(_) => {}
            }
            prop_assert!(consumed <= fed, "consumed a token never fed");
        }
    }

    /// Fair runs with no pending input quiesce with no tokens held
    /// (every fed token is eventually eaten — the fairness guarantee).
    #[test]
    fn fair_runs_drain_all_tokens(
        feeds in prop::collection::vec(0u8..5, 0..10),
        seed in any::<u64>(),
    ) {
        let sys = ring();
        let mut exec = FairExecutor::new(seed, 10_000);
        let start = sys.start_states().remove(0);
        let script = EnvScript::with_gap(feeds.iter().map(|v| Act::Feed(*v)).collect(), 1);
        let out = exec.run(&sys, start, script);
        prop_assert!(out.quiescent);
        let last = out.execution.last_state();
        prop_assert_eq!(last.left, None);
        prop_assert_eq!(last.right, None);
    }

    /// Lemma 2.3/2.4 (pasting, restricted form): replaying the composite
    /// schedule through fresh component states step by step succeeds — the
    /// composite schedule *is* consistent with both components.
    #[test]
    fn composite_schedules_replay_through_components(
        feeds in prop::collection::vec(0u8..5, 0..10),
        seed in any::<u64>(),
    ) {
        let exec = random_execution(&feeds, seed);
        for cell in [Cell { index: 0 }, Cell { index: 1 }] {
            let mut s = cell.start_states().remove(0);
            for a in exec.schedule() {
                if cell.in_signature(&a) {
                    let next = cell.step_first(&s, &a);
                    prop_assert!(next.is_some(), "{a:?} rejected during replay");
                    s = next.expect("checked");
                }
            }
        }
    }
}
