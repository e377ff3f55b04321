//! Fair execution of automata (paper §2.2).
//!
//! A fair execution gives fair turns to each class of the task partition:
//! if the execution is infinite, each class either takes infinitely many
//! steps or is disabled infinitely often; if finite, no class is enabled in
//! the final state.
//!
//! [`FairExecutor`] produces finite *fair-so-far* executions by round-robin
//! scheduling over task classes, interleaving environment inputs from an
//! [`EnvScript`]. A run that ends **quiescent** (no locally-controlled
//! action enabled, no pending inputs) is a genuinely fair execution in the
//! paper's sense; a run truncated by the step bound is a fair execution
//! *prefix* (every class got turns at uniform frequency).
//!
//! This is the executable counterpart of Lemma 2.1: from any finite
//! execution and any further sequence of inputs, the executor extends to a
//! run that is fair to every task.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::automaton::{Automaton, TaskId};
use crate::execution::Execution;

/// A script of environment inputs to inject during a run.
///
/// Inputs are injected in order. `gap` controls pacing: the executor
/// performs up to `gap` locally-controlled steps between consecutive
/// injections (0 means inject as fast as possible).
#[derive(Debug, Clone)]
pub struct EnvScript<A> {
    inputs: Vec<A>,
    gap: usize,
}

impl<A> EnvScript<A> {
    /// A script with no inputs: the automaton runs autonomously.
    pub fn empty() -> Self {
        EnvScript {
            inputs: Vec::new(),
            gap: 0,
        }
    }

    /// Injects `inputs` in order, back-to-back.
    pub fn new(inputs: Vec<A>) -> Self {
        EnvScript { inputs, gap: 0 }
    }

    /// Injects `inputs` in order with up to `gap` local steps between
    /// consecutive injections.
    pub fn with_gap(inputs: Vec<A>, gap: usize) -> Self {
        EnvScript { inputs, gap }
    }

    /// Remaining inputs.
    pub fn remaining(&self) -> &[A] {
        &self.inputs
    }

    fn pop(&mut self) -> Option<A>
    where
        A: Clone,
    {
        if self.inputs.is_empty() {
            None
        } else {
            Some(self.inputs.remove(0))
        }
    }
}

impl<A> Default for EnvScript<A> {
    fn default() -> Self {
        EnvScript::empty()
    }
}

/// Result of a [`FairExecutor`] run.
#[derive(Debug, Clone)]
pub struct RunOutcome<A, S> {
    /// The execution produced.
    pub execution: Execution<A, S>,
    /// `true` if the run ended because no locally-controlled action was
    /// enabled and all scripted inputs were consumed — i.e. the finite
    /// execution is fair in the paper's sense.
    pub quiescent: bool,
}

/// Round-robin fair executor with seeded tie-breaking.
///
/// Nondeterminism is resolved in two places: the choice among enabled
/// actions *within* the scheduled task class, and the choice among
/// successors of the chosen action. Both use the seeded RNG, so runs are
/// reproducible.
#[derive(Debug)]
pub struct FairExecutor {
    rng: StdRng,
    max_steps: usize,
}

impl FairExecutor {
    /// Creates an executor with the given RNG seed and step bound.
    pub fn new(seed: u64, max_steps: usize) -> Self {
        FairExecutor {
            rng: StdRng::seed_from_u64(seed),
            max_steps,
        }
    }

    /// Runs `automaton` from `start`, injecting `script` inputs, until
    /// quiescence or the step bound.
    pub fn run<M>(
        &mut self,
        automaton: &M,
        start: M::State,
        mut script: EnvScript<M::Action>,
    ) -> RunOutcome<M::Action, M::State>
    where
        M: Automaton,
    {
        let mut exec = Execution::new(start);
        let tasks = automaton.task_count().max(1);
        let mut next_task = 0usize;
        let mut since_inject = 0usize;
        // Successor scratch, reused across every step of the run.
        let mut succs: Vec<M::State> = Vec::new();

        while exec.len() < self.max_steps {
            // Inject the next scripted input if it is due.
            if !script.remaining().is_empty() && since_inject >= script.gap {
                if let Some(input) = script.pop() {
                    let took = self.take(automaton, &mut exec, input, &mut succs);
                    assert!(
                        took,
                        "input action was not enabled: automaton is not input-enabled"
                    );
                    since_inject = 0;
                    continue;
                }
            }

            // Give the next task class a fair turn: scan classes round-robin
            // until one with an enabled action is found.
            let enabled = automaton.enabled_local(exec.last_state());
            if enabled.is_empty() {
                if script.remaining().is_empty() {
                    return RunOutcome {
                        execution: exec,
                        quiescent: true,
                    };
                }
                // Nothing local to do; force the next injection.
                since_inject = usize::MAX / 2;
                continue;
            }

            let mut stepped = false;
            for offset in 0..tasks {
                let t = TaskId((next_task + offset) % tasks);
                let in_class: Vec<_> = enabled
                    .iter()
                    .filter(|a| automaton.task_of(a) == t)
                    .cloned()
                    .collect();
                if in_class.is_empty() {
                    continue;
                }
                let pick = self.rng.random_range(0..in_class.len());
                let action = in_class[pick].clone();
                let took = self.take(automaton, &mut exec, action, &mut succs);
                debug_assert!(took, "enabled_local returned a non-enabled action");
                next_task = (next_task + offset + 1) % tasks;
                since_inject += 1;
                stepped = true;
                break;
            }
            debug_assert!(stepped, "enabled action belonged to no task class");
            if !stepped {
                break;
            }
        }

        let quiescent =
            script.remaining().is_empty() && !automaton.has_enabled_local(exec.last_state());
        RunOutcome {
            execution: exec,
            quiescent,
        }
    }

    fn take<M>(
        &mut self,
        automaton: &M,
        exec: &mut Execution<M::Action, M::State>,
        action: M::Action,
        succs: &mut Vec<M::State>,
    ) -> bool
    where
        M: Automaton,
    {
        succs.clear();
        automaton.successors_into(exec.last_state(), &action, succs);
        if succs.is_empty() {
            return false;
        }
        let pick = self.rng.random_range(0..succs.len());
        exec.push_unchecked(action, succs.swap_remove(pick));
        true
    }
}

#[cfg(test)]
mod tests {
    use std::ops::ControlFlow;

    use super::*;
    use crate::action::ActionClass;

    /// Two independent "ping" tasks; each may fire up to a budget, then the
    /// automaton quiesces. Input `Refill` restores both budgets.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Refill,
        Fire(u8), // task index 0 or 1
    }

    #[derive(Clone)]
    struct TwoTasks;
    impl Automaton for TwoTasks {
        type Action = Act;
        type State = [u8; 2];

        fn start_state(&self) -> Self::State {
            [3, 3]
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Refill => ActionClass::Input,
                Act::Fire(_) => ActionClass::Output,
            })
        }
        fn successors(&self, s: &Self::State, a: &Act) -> Vec<Self::State> {
            match a {
                Act::Refill => vec![[3, 3]],
                Act::Fire(i) => {
                    let i = *i as usize;
                    if s[i] > 0 {
                        let mut t = *s;
                        t[i] -= 1;
                        vec![t]
                    } else {
                        vec![]
                    }
                }
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &Self::State,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            for i in (0..2u8).filter(|i| s[*i as usize] > 0) {
                f(Act::Fire(i))?;
            }
            ControlFlow::Continue(())
        }
        fn task_of(&self, a: &Act) -> TaskId {
            match a {
                Act::Fire(i) => TaskId(*i as usize),
                Act::Refill => unreachable!("task_of called on input"),
            }
        }
        fn task_count(&self) -> usize {
            2
        }
    }

    #[test]
    fn runs_to_quiescence() {
        let mut ex = FairExecutor::new(0, 1000);
        let out = ex.run(&TwoTasks, [3, 3], EnvScript::empty());
        assert!(out.quiescent);
        assert_eq!(out.execution.len(), 6);
        assert_eq!(*out.execution.last_state(), [0, 0]);
    }

    #[test]
    fn both_tasks_get_turns() {
        let mut ex = FairExecutor::new(42, 1000);
        let out = ex.run(&TwoTasks, [3, 3], EnvScript::empty());
        let sched = out.execution.schedule();
        assert_eq!(sched.iter().filter(|a| **a == Act::Fire(0)).count(), 3);
        assert_eq!(sched.iter().filter(|a| **a == Act::Fire(1)).count(), 3);
        // Round-robin: the two classes alternate while both are enabled.
        assert_ne!(sched[0], sched[1]);
    }

    #[test]
    fn scripted_inputs_are_injected() {
        let mut ex = FairExecutor::new(7, 1000);
        let out = ex.run(&TwoTasks, [0, 0], EnvScript::new(vec![Act::Refill]));
        assert!(out.quiescent);
        assert_eq!(out.execution.action(0), &Act::Refill);
        assert_eq!(out.execution.len(), 7); // refill + 6 fires
    }

    #[test]
    fn gap_paces_injections() {
        let mut ex = FairExecutor::new(7, 1000);
        let out = ex.run(&TwoTasks, [3, 3], EnvScript::with_gap(vec![Act::Refill], 4));
        let sched = out.execution.schedule();
        let refill_at = sched.iter().position(|a| *a == Act::Refill).unwrap();
        assert!(refill_at >= 4, "refill injected too early: {refill_at}");
        assert!(out.quiescent);
    }

    #[test]
    fn step_bound_truncates() {
        let mut ex = FairExecutor::new(0, 3);
        let out = ex.run(&TwoTasks, [3, 3], EnvScript::empty());
        assert!(!out.quiescent);
        assert_eq!(out.execution.len(), 3);
    }

    #[test]
    fn runs_are_reproducible() {
        let a = FairExecutor::new(99, 100).run(&TwoTasks, [3, 3], EnvScript::empty());
        let b = FairExecutor::new(99, 100).run(&TwoTasks, [3, 3], EnvScript::empty());
        assert_eq!(a.execution, b.execution);
    }
}
