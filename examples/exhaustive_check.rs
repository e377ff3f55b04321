//! Exhaustive small-model verification: every interleaving of a bounded
//! alternating-bit system, checked against the WDL-safety observer by the
//! parallel `dl-explore` engine — including the shortest crash
//! counterexample, found by brute force.
//!
//! ```text
//! cargo run --example exhaustive_check
//! ```

use datalink::channels::{LossMode, LossyFifoChannel};
use datalink::core::action::{format_trace, Dir, DlAction, Msg, Station};
use datalink::core::observer::{ObserverState, WdlObserver};
use datalink::explore::ParallelExplorer;
use datalink::ioa::composition::Compose2;
use datalink::ioa::Automaton;
use datalink::protocols::{AbpReceiver, AbpTransmitter};

type Sys = Compose2<
    Compose2<AbpTransmitter, AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

fn system(cap: usize) -> Sys {
    let p = datalink::protocols::abp::protocol();
    Compose2::new(
        Compose2::new(p.transmitter, p.receiver),
        Compose2::new(
            Compose2::new(
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, cap),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, cap),
            ),
            WdlObserver,
        ),
    )
}

fn observer_of(s: &<Sys as Automaton>::State) -> &ObserverState {
    &s.right.right
}

fn main() {
    // Part 1: crash-free, all interleavings of 2 messages over lossy
    // bounded channels — exhaustively safe.
    let sys = system(2);
    let s0 = sys.start_state();
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    let start = sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap();

    let explorer = ParallelExplorer::new(
        &sys,
        |s: &<Sys as Automaton>::State| {
            let obs = observer_of(s);
            (0..2)
                .map(Msg)
                .find(|m| !obs.sent.contains(m))
                .map(DlAction::SendMsg)
                .into_iter()
                .collect()
        },
        1_000_000,
        10_000,
    );
    let report = explorer.check_invariant_from(vec![start.clone()], |s| observer_of(s).is_safe());
    assert!(report.holds());
    println!(
        "crash-free ABP, 2 messages, nondet loss, channel capacity 2:\n  \
         {} reachable states, every interleaving WDL-safe\n  \
         ({} threads, {} BFS layers, {} transitions, {:?})\n",
        report.states_visited,
        report.threads,
        report.layers.len(),
        report.edges_expanded(),
        report.duration
    );

    // Part 2: allow receiver crashes — BFS finds the shortest duplicate-
    // delivery counterexample, the same one at any thread count.
    let explorer = ParallelExplorer::new(
        &sys,
        |s: &<Sys as Automaton>::State| {
            let mut out = Vec::new();
            if !observer_of(s).sent.contains(&Msg(0)) {
                out.push(DlAction::SendMsg(Msg(0)));
            }
            out.push(DlAction::Crash(Station::R));
            if !s.left.right.active {
                out.push(DlAction::Wake(Dir::RT));
            }
            out
        },
        1_000_000,
        10_000,
    );
    let report = explorer.check_invariant_from(vec![start], |s| observer_of(s).is_safe());
    let v = report.violation.expect("crash must break ABP");
    println!(
        "with crash^r,t allowed: shortest counterexample after exploring {} states:",
        report.states_visited
    );
    print!("{}", format_trace(&v.path));
    println!("\nobserver flag: {:?}", observer_of(&v.state).flag);
    println!(
        "\n→ the receiver crashed between accepting DATA#0 and the duplicate's\n\
         arrival; its reset expectation re-accepted the stale copy. This is the\n\
         same phenomenon the §7 engine constructs — found here by brute force."
    );
}
