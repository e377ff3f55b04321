//! A panic anywhere in a search ends it with that panic's own message, at
//! every thread count, and never leaves the worker pool parked: in the
//! automaton on a worker thread (a counted pick that refuses to step, the
//! engine's own `assert!`) and in a state property evaluated by whichever
//! worker claims the state. check.sh runs this file under `timeout`, so a
//! hang fails the stage.

use std::ops::ControlFlow;
use std::panic::{self, AssertUnwindSafe};

use dl_explore::{Invariant, ParallelExplorer};
use ioa::{ActionClass, Automaton, TaskId};

/// Every state `s < n` has eight output actions `k`, each stepping to
/// `(8s + k + 1) mod n`: layers widen eightfold (1, 8, 64, 512, …), so the
/// wide ones fan out at 2 and 4 threads. `successor_count` counts one
/// successor everywhere, but state `refuse`, if any, has none.
struct Spread {
    n: u16,
    refuse: Option<u16>,
}

impl Automaton for Spread {
    type Action = u8;
    type State = u16;

    fn start_state(&self) -> u16 {
        0
    }
    fn classify(&self, _a: &u8) -> Option<ActionClass> {
        Some(ActionClass::Output)
    }
    fn successors(&self, s: &u16, a: &u8) -> Vec<u16> {
        if self.refuse == Some(*s) {
            return vec![];
        }
        let next = (u32::from(*s) * 8 + u32::from(*a) + 1) % u32::from(self.n);
        vec![next as u16]
    }
    fn for_each_enabled_local(
        &self,
        _s: &u16,
        f: &mut dyn FnMut(u8) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        (0..8).try_for_each(f)
    }
    fn successor_count(&self, _s: &u16, _a: &u8) -> usize {
        1
    }
    fn task_of(&self, _a: &u8) -> TaskId {
        TaskId(0)
    }
    fn task_count(&self) -> usize {
        1
    }
}

/// The message `search` panics with; fails the test if it returns.
fn panic_message(search: impl FnOnce()) -> String {
    let payload = panic::catch_unwind(AssertUnwindSafe(search)).expect_err("the search must panic");
    match payload.downcast::<String>() {
        Ok(message) => *message,
        Err(payload) => (*payload.downcast::<&str>().expect("a string payload")).to_string(),
    }
}

#[test]
fn a_refused_pick_ends_the_search_with_its_message() {
    for threads in [1, 2, 4] {
        let spread = Spread {
            n: 4000,
            refuse: Some(3000),
        };
        let explorer =
            ParallelExplorer::new(spread, |_: &u16| vec![], 10_000, 100).threads(threads);
        let message = panic_message(|| {
            explorer.reachable_states();
        });
        assert_eq!(
            message, "counted pick 0 of 0 did not step",
            "{threads} threads"
        );
    }
}

#[test]
fn a_panicking_property_ends_the_search_with_its_message() {
    for threads in [1, 2, 4] {
        let spread = Spread {
            n: 4000,
            refuse: None,
        };
        let explorer =
            ParallelExplorer::new(spread, |_: &u16| vec![], 10_000, 100).threads(threads);
        let refuses = Invariant::new("refuses-3000", |s: &u16| {
            assert!(*s != 3000, "the property refused state {s}");
            true
        });
        let message = panic_message(|| {
            explorer.check_properties_from(vec![0], &[&refuses]);
        });
        assert_eq!(
            message, "the property refused state 3000",
            "{threads} threads"
        );
    }
}
