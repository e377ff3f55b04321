//! Property tests for both search engines: BFS optimality and agreement
//! with a brute-force reference on small random table automata.
//!
//! Every property runs against `dl-explore`'s `ParallelExplorer` at 1 and
//! 2 threads and against the independent `CcChecker`, and all three runs
//! must also agree with each other exactly.

use std::collections::HashSet;
use std::ops::ControlFlow;

use proptest::prelude::*;

use dl_crosscheck::{CcChecker, CcProperty, Translated};
use dl_explore::ParallelExplorer;
use ioa::{ActionClass, Automaton, TaskId};

/// An automaton defined by an explicit random transition table on `n`
/// states: local action `Step(k)` moves state `s` to `table[s][k]`, and
/// the input `Teleport` moves any state to state `1 % n`.
#[derive(Debug, Clone)]
struct Table {
    table: Vec<Vec<u8>>, // table[state][k] = successor
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Act {
    Step(usize),
    Teleport,
}

impl Automaton for Table {
    type Action = Act;
    type State = u8;

    fn start_state(&self) -> u8 {
        0
    }
    fn classify(&self, a: &Act) -> Option<ActionClass> {
        Some(match a {
            Act::Step(_) => ActionClass::Output,
            Act::Teleport => ActionClass::Input,
        })
    }
    fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
        match a {
            Act::Step(k) => self.table[*s as usize]
                .get(*k)
                .map(|t| vec![*t])
                .unwrap_or_default(),
            Act::Teleport => vec![1 % self.table.len() as u8],
        }
    }
    fn for_each_enabled_local(
        &self,
        s: &u8,
        f: &mut dyn FnMut(Act) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        for k in 0..self.table[*s as usize].len() {
            f(Act::Step(k))?;
        }
        ControlFlow::Continue(())
    }
    fn task_of(&self, _a: &Act) -> TaskId {
        TaskId(0)
    }
    fn task_count(&self) -> usize {
        1
    }
}

fn table_strategy() -> impl Strategy<Value = Table> {
    // 3..8 states, each with 0..3 outgoing edges.
    (3u8..8).prop_flat_map(|n| {
        prop::collection::vec(prop::collection::vec(0..n, 0..3), n as usize)
            .prop_map(|table| Table { table })
    })
}

/// Reference: BFS distances by hand.
fn distances(t: &Table) -> Vec<Option<usize>> {
    let n = t.table.len();
    let mut dist = vec![None; n];
    dist[0] = Some(0);
    let mut frontier = vec![0usize];
    let mut d = 0usize;
    while !frontier.is_empty() {
        d += 1;
        let mut next = Vec::new();
        for s in frontier {
            for &succ in &t.table[s] {
                if dist[succ as usize].is_none() {
                    dist[succ as usize] = Some(d);
                    next.push(succ as usize);
                }
            }
        }
        frontier = next;
    }
    dist
}

/// Reference: the set of states reachable from 0.
fn reachable(t: &Table) -> HashSet<usize> {
    distances(t)
        .iter()
        .enumerate()
        .filter_map(|(i, d)| d.map(|_| i))
        .collect()
}

/// One engine's verdict, normalized for comparison.
#[derive(Debug, PartialEq)]
struct Outcome {
    states: usize,
    quiescent: usize,
    exhaustive: bool,
    /// The shortest violating path and the state it reaches.
    violation: Option<(Vec<Act>, u8)>,
}

const BUDGET: usize = 10_000;

/// Checks `invariant` on `t`, with `inputs` offered in every state,
/// through the parallel explorer at 1 and 2 threads and through the
/// independent checker.
fn run_engines<I>(t: &Table, inputs: I, invariant: &(dyn Fn(&u8) -> bool + Sync)) -> Vec<Outcome>
where
    I: Fn(&u8) -> Vec<Act> + Sync,
{
    let mut outcomes: Vec<Outcome> = [1, 2]
        .into_iter()
        .map(|threads| {
            let r = ParallelExplorer::new(t, &inputs, BUDGET, BUDGET)
                .threads(threads)
                .check_invariant(invariant);
            Outcome {
                states: r.states_visited,
                quiescent: r.quiescent_states,
                exhaustive: r.exhaustive(),
                violation: r.violation.map(|v| (v.path, v.state)),
            }
        })
        .collect();
    let props = [CcProperty {
        name: "invariant",
        holds: invariant,
    }];
    let r = CcChecker::new(Translated::new(t, &inputs), BUDGET, BUDGET).check(&props);
    outcomes.push(Outcome {
        states: r.states_visited,
        quiescent: r.quiescent_states,
        exhaustive: r.exhaustive(),
        violation: r.violation.map(|v| (v.path, v.state)),
    });
    outcomes
}

/// The closed system: no environment inputs.
fn closed(_s: &u8) -> Vec<Act> {
    vec![]
}

proptest! {
    /// Every engine visits exactly the reachable states.
    #[test]
    fn reachable_set_agrees_with_reference(t in table_strategy()) {
        let reference = reachable(&t);
        let outcomes = run_engines(&t, closed, &|_| true);
        for o in &outcomes {
            prop_assert!(o.exhaustive && o.violation.is_none());
            prop_assert_eq!(o.states, reference.len());
            prop_assert_eq!(o, &outcomes[0], "engines disagree");
        }
    }

    /// A violation path found by any engine has exactly the BFS distance
    /// of the violating state (shortest counterexamples), and every
    /// engine reports the same path.
    #[test]
    fn violation_paths_are_shortest(t in table_strategy(), target in 1u8..8) {
        let dist = distances(&t);
        let outcomes = run_engines(&t, closed, &|s| *s != target);
        for o in &outcomes {
            prop_assert_eq!(o, &outcomes[0], "engines disagree");
            match dist.get(target as usize).copied().flatten() {
                None => prop_assert!(o.violation.is_none(), "unreachable state 'reached'"),
                Some(d) => {
                    let (path, state) = o.violation.as_ref().expect("reachable target not found");
                    prop_assert_eq!(*state, target);
                    prop_assert_eq!(path.len(), d, "path not shortest");
                    // The path really leads to the target.
                    let mut cur = 0u8;
                    for a in path {
                        cur = t.successors(&cur, a)[0];
                    }
                    prop_assert_eq!(cur, target);
                }
            }
        }
    }

    /// An environment input extends reachability exactly like an extra
    /// edge on every state: offering `Teleport` everywhere reaches the
    /// reference set of the table with an edge to `1 % n` appended to
    /// each row, and leaves no state quiescent.
    #[test]
    fn inputs_extend_reachability(t in table_strategy()) {
        let n = t.table.len() as u8;
        let mut extended = t.clone();
        for row in &mut extended.table {
            row.push(1 % n);
        }
        let reference = reachable(&extended);
        let outcomes = run_engines(&t, |_s: &u8| vec![Act::Teleport], &|_| true);
        for o in &outcomes {
            prop_assert!(o.exhaustive);
            prop_assert_eq!(o.states, reference.len());
            prop_assert!(o.states >= reachable(&t).len());
            prop_assert_eq!(o.quiescent, 0);
            prop_assert_eq!(o, &outcomes[0], "engines disagree");
        }
    }
}
