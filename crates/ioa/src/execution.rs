//! Executions, schedules, and behaviors (paper §2.2).
//!
//! An execution is an alternating sequence `s0 π1 s1 π2 … πn sn` of states
//! and actions such that every `(s_i, π_{i+1}, s_{i+1})` is a step. The
//! *schedule* is the action subsequence; the *behavior* is the subsequence
//! of external actions.

use std::fmt::Debug;
use std::ops::ControlFlow;

use crate::action::ActionClass;
use crate::automaton::Automaton;

/// `true` if `(state, action, post)` is a step of the automaton.
/// Short-circuits on the matching successor instead of collecting the
/// full list.
fn is_successor<M: Automaton>(
    automaton: &M,
    state: &M::State,
    action: &M::Action,
    post: &M::State,
) -> bool {
    automaton
        .try_for_each_successor(state, action, &mut |s| {
            if s == *post {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })
        .is_break()
}

/// One step of an execution: the action taken and the post-state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Step<A, S> {
    /// The action `π_{i+1}` of the step.
    pub action: A,
    /// The post-state `s_{i+1}`.
    pub post: S,
}

/// A finite execution fragment of an automaton: a start state followed by
/// steps.
///
/// The invariant that consecutive `(state, action, state)` triples are steps
/// of the automaton is maintained by constructing executions only through
/// [`Execution::new`] + [`Execution::push`] (checked) or by an executor that
/// itself only takes legal steps. [`Execution::validate`] re-checks the whole
/// fragment against an automaton.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Execution<A, S> {
    first: S,
    steps: Vec<Step<A, S>>,
}

impl<A, S> Execution<A, S>
where
    A: Clone + Eq + Debug,
    S: Clone + Eq + Debug,
{
    /// Creates an execution fragment consisting of the single state `first`
    /// and no steps.
    pub fn new(first: S) -> Self {
        Execution {
            first,
            steps: Vec::new(),
        }
    }

    /// The first state of the fragment.
    pub fn first_state(&self) -> &S {
        &self.first
    }

    /// The final state of the fragment.
    pub fn last_state(&self) -> &S {
        self.steps.last().map_or(&self.first, |st| &st.post)
    }

    /// Number of steps (actions) in the fragment.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` if the fragment contains no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// The `i`-th state, `0 <= i <= len()`.
    ///
    /// # Panics
    ///
    /// Panics if `i > len()`.
    pub fn state(&self, i: usize) -> &S {
        if i == 0 {
            &self.first
        } else {
            &self.steps[i - 1].post
        }
    }

    /// The `i`-th action, `0 <= i < len()`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn action(&self, i: usize) -> &A {
        &self.steps[i].action
    }

    /// Iterates over the steps.
    pub fn steps(&self) -> impl Iterator<Item = &Step<A, S>> {
        self.steps.iter()
    }

    /// Appends a step by taking `action` from the current last state via the
    /// automaton, resolving nondeterminism with `choose` (an index into the
    /// successor list).
    ///
    /// Returns `false` (and leaves the execution unchanged) if the action is
    /// not enabled or `choose` is out of range.
    pub fn push<M>(&mut self, automaton: &M, action: A, choose: usize) -> bool
    where
        M: Automaton<Action = A, State = S>,
    {
        // Stream successors and stop at index `choose` — no full list.
        let mut seen = 0usize;
        let mut post = None;
        let _ = automaton.try_for_each_successor(self.last_state(), &action, &mut |s| {
            if seen == choose {
                post = Some(s);
                ControlFlow::Break(())
            } else {
                seen += 1;
                ControlFlow::Continue(())
            }
        });
        match post {
            Some(post) => {
                self.steps.push(Step { action, post });
                true
            }
            None => false,
        }
    }

    /// Appends a step **without** validating it against an automaton.
    ///
    /// Used when pasting projections back together (Lemma 2.3), where
    /// validity is established by the lemma rather than re-derived; call
    /// [`validate`](Execution::validate) afterwards in tests.
    pub fn push_unchecked(&mut self, action: A, post: S) {
        self.steps.push(Step { action, post });
    }

    /// The schedule `sched(α)`: the sequence of actions.
    pub fn schedule(&self) -> Vec<A> {
        self.steps.iter().map(|s| s.action.clone()).collect()
    }

    /// The behavior `beh(α)`: the subsequence of external actions, as
    /// classified by `automaton`.
    pub fn behavior<M>(&self, automaton: &M) -> Vec<A>
    where
        M: Automaton<Action = A, State = S>,
    {
        self.steps
            .iter()
            .map(|s| &s.action)
            .filter(|a| automaton.classify(a).is_some_and(ActionClass::is_external))
            .cloned()
            .collect()
    }

    /// Checks that every recorded step is a step of `automaton` and that the
    /// first state is its start state (i.e. this is an execution, not just a
    /// fragment). Returns the index of the first bad step, or `Err(None)` if
    /// the first state is not the start state.
    ///
    /// # Errors
    ///
    /// `Err(None)` — first state not in `start(A)`;
    /// `Err(Some(i))` — step `i` is not in `steps(A)`.
    pub fn validate<M>(&self, automaton: &M) -> Result<(), Option<usize>>
    where
        M: Automaton<Action = A, State = S>,
    {
        if automaton.start_state() != self.first {
            return Err(None);
        }
        let mut cur = &self.first;
        for (i, step) in self.steps.iter().enumerate() {
            if !is_successor(automaton, cur, &step.action, &step.post) {
                return Err(Some(i));
            }
            cur = &step.post;
        }
        Ok(())
    }
}

/// Projects a schedule onto the signature of one automaton: `β|A` keeps the
/// actions that are in `acts(A)` (paper §2.3, used throughout §7–8).
pub fn project_schedule<M: Automaton>(automaton: &M, schedule: &[M::Action]) -> Vec<M::Action> {
    schedule
        .iter()
        .filter(|a| automaton.in_signature(a))
        .cloned()
        .collect()
}

/// Restricts a schedule to its external actions under `automaton`'s
/// signature: `beh(β)`.
pub fn behavior_of_schedule<M: Automaton>(automaton: &M, schedule: &[M::Action]) -> Vec<M::Action> {
    schedule
        .iter()
        .filter(|a| automaton.classify(a).is_some_and(ActionClass::is_external))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::TaskId;

    #[derive(Clone)]
    struct Toggle;

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Flip,
        Obs(bool),
        Silent,
    }

    impl Automaton for Toggle {
        type Action = Act;
        type State = bool;

        fn start_state(&self) -> bool {
            false
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Flip => ActionClass::Input,
                Act::Obs(_) => ActionClass::Output,
                Act::Silent => ActionClass::Internal,
            })
        }
        fn successors(&self, s: &bool, a: &Act) -> Vec<bool> {
            match a {
                Act::Flip => vec![!s],
                Act::Obs(b) if b == s => vec![*s],
                Act::Silent => vec![*s],
                Act::Obs(_) => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &bool,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            f(Act::Obs(*s))?;
            f(Act::Silent)
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    fn sample() -> Execution<Act, bool> {
        let t = Toggle;
        let mut e = Execution::new(false);
        assert!(e.push(&t, Act::Flip, 0));
        assert!(e.push(&t, Act::Obs(true), 0));
        assert!(e.push(&t, Act::Silent, 0));
        e
    }

    #[test]
    fn construction_and_access() {
        let e = sample();
        assert_eq!(e.len(), 3);
        assert!(!e.is_empty());
        assert!(!(*e.first_state()));
        assert!(*e.last_state());
        assert!(*e.state(1));
        assert_eq!(*e.action(0), Act::Flip);
    }

    #[test]
    fn rejects_disabled_action() {
        let t = Toggle;
        let mut e = Execution::new(false);
        assert!(!e.push(&t, Act::Obs(true), 0));
        assert_eq!(e.len(), 0);
    }

    #[test]
    fn schedule_and_behavior() {
        let e = sample();
        assert_eq!(e.schedule(), vec![Act::Flip, Act::Obs(true), Act::Silent]);
        assert_eq!(e.behavior(&Toggle), vec![Act::Flip, Act::Obs(true)]);
    }

    #[test]
    fn validate_accepts_good_execution() {
        assert_eq!(sample().validate(&Toggle), Ok(()));
    }

    #[test]
    fn validate_rejects_bad_start() {
        let mut e = Execution::new(true);
        e.push_unchecked(Act::Flip, false);
        assert_eq!(e.validate(&Toggle), Err(None));
    }

    #[test]
    fn validate_rejects_bad_step() {
        let mut e = sample();
        e.push_unchecked(Act::Obs(false), true); // Obs(false) disabled in state true
        assert_eq!(e.validate(&Toggle), Err(Some(3)));
    }

    #[test]
    fn projection_helpers() {
        let sched = vec![Act::Flip, Act::Silent, Act::Obs(true)];
        assert_eq!(project_schedule(&Toggle, &sched), sched);
        assert_eq!(
            behavior_of_schedule(&Toggle, &sched),
            vec![Act::Flip, Act::Obs(true)]
        );
    }
}
