//! E9 (scaling axis): thread-count sweep of the parallel explorer.
//!
//! Runs the largest E9 configuration (ABP + WDL observer over nondet-lossy
//! channels of capacity 4, 4 messages) through `dl-explore` at thread
//! counts 1, 2, 4, … up to the machine's available parallelism, against
//! `dl-crosscheck`'s independent sequential checker as baseline. Asserts
//! on every run that the report — state and quiescent counts, per-layer
//! statistics, safety — agrees field by field with the checker's, then
//! reports the per-thread-count exploration time and speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_crosscheck::{disagreements, CcChecker, CcProperty, EngineSummary, Translated};
use dl_explore::ParallelExplorer;
use ioa::composition::Compose2;
use ioa::Automaton;

type Sys = Compose2<
    Compose2<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

/// The largest configuration E9 verifies: capacity-4 channels, 4 messages
/// (one step beyond `model_check.rs`'s capacity sweep, wide enough that
/// the BFS frontier reaches thousands of states per layer).
const CAP: usize = 4;
const MSGS: u64 = 4;

fn system() -> Sys {
    let p = dl_protocols::abp::protocol();
    Compose2::new(
        Compose2::new(p.transmitter, p.receiver),
        Compose2::new(
            Compose2::new(
                LossyFifoChannel::with_capacity(Dir::TR, LossMode::Nondet, CAP),
                LossyFifoChannel::with_capacity(Dir::RT, LossMode::Nondet, CAP),
            ),
            WdlObserver,
        ),
    )
}

fn observer_of(s: &<Sys as Automaton>::State) -> &ObserverState {
    &s.right.right
}

fn woken(sys: &Sys) -> <Sys as Automaton>::State {
    let s0 = sys.start_states().remove(0);
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap()
}

fn inputs(s: &<Sys as Automaton>::State) -> Vec<DlAction> {
    let obs = observer_of(s);
    (0..MSGS)
        .map(Msg)
        .find(|m| !obs.sent.contains(m))
        .map(DlAction::SendMsg)
        .into_iter()
        .collect()
}

fn safe(s: &<Sys as Automaton>::State) -> bool {
    observer_of(s).is_safe()
}

fn explore_sequential(sys: &Sys) -> EngineSummary {
    let start = woken(sys);
    let props = [CcProperty {
        name: "invariant",
        holds: &safe,
    }];
    let report = CcChecker::new(Translated::new(sys, inputs), 8_000_000, 100_000)
        .check_from(vec![start], &props);
    assert!(report.holds(), "independent checker must verify safety");
    EngineSummary::from_crosscheck(&report)
}

fn explore_parallel(
    sys: &Sys,
    threads: usize,
) -> dl_explore::ExploreReport<DlAction, <Sys as Automaton>::State> {
    let start = woken(sys);
    let report = ParallelExplorer::new(sys, inputs, 8_000_000, 100_000)
        .threads(threads)
        .check_invariant_from(vec![start], safe);
    assert!(report.holds(), "parallel engine must verify safety");
    report
}

/// Thread counts to sweep: 1, 2, 4, then doublings up to the machine's
/// available parallelism (the acceptance gate compares 4 threads even on
/// smaller machines).
fn thread_counts() -> Vec<usize> {
    let max = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let mut counts = vec![1usize, 2, 4];
    let mut t = 8;
    while t <= max {
        counts.push(t);
        t *= 2;
    }
    if max > 4 && !counts.contains(&max) {
        counts.push(max);
    }
    counts
}

fn bench_parallel_explore(c: &mut Criterion) {
    let sys = system();
    eprintln!(
        "E9 scaling: ABP + observer, capacity {CAP}, {MSGS} messages, \
         {} hardware threads",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );

    // Verdict gate: every thread count agrees with the independent checker.
    let t0 = std::time::Instant::now();
    let oracle = explore_sequential(&sys);
    let seq_time = t0.elapsed();
    eprintln!(
        "  independent checker: {} states ({} quiescent) in {seq_time:?}",
        oracle.states, oracle.quiescent
    );
    for &threads in &thread_counts() {
        let t0 = std::time::Instant::now();
        let report = explore_parallel(&sys, threads);
        let par_time = t0.elapsed();
        let diff = disagreements(&EngineSummary::from_explore(&report), &oracle);
        assert!(
            diff.is_empty(),
            "report diverged from the independent checker at {threads} threads:\n{}",
            diff.join("\n")
        );
        eprintln!(
            "  {threads} threads: {} states in {par_time:?} ({:.2}x vs checker; \
             arena {} B, {} dedup hits)",
            report.states_visited,
            seq_time.as_secs_f64() / par_time.as_secs_f64(),
            report.arena_bytes,
            report.dedup_hits()
        );
    }

    let mut group = c.benchmark_group("e9_parallel_explore");
    group.sample_size(10);
    group.bench_function("independent_checker", |b| {
        b.iter(|| explore_sequential(&sys))
    });
    for threads in thread_counts() {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| b.iter(|| explore_parallel(&sys, threads)),
        );
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_explore);
criterion_main!(benches);
