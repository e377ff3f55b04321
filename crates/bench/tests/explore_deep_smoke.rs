//! Release smoke for the `explore/deep` workload: scaled-down instances
//! go through the exact `explore_deep_n` path the published ≥10⁶-state
//! `explore/deep` ledger entry uses. One (channel capacity 5, 3 messages
//! — 9129 states in well under a second) pins the packed backend's
//! counts, its exact `arena_bytes`, `admitted_bytes`, `encoded_bytes`
//! and `copied_bytes`, and the lock-free visited set's thread-count
//! independence without the full run's wall-clock cost; a wider one
//! (capacity 7, 6 messages — 119,300 states) is the one real model whose
//! layers are wide enough to split the barrier.

use dl_bench::ledger_runs::explore_deep_n;

#[test]
fn scaled_deep_run_is_thread_count_independent() {
    let oracle = explore_deep_n(5, 3, 9_000, 1, 0);
    assert_eq!(oracle.engine, "explore");
    assert_eq!(oracle.run_id, "deep");
    assert_eq!(oracle.counters["states"], 9129);
    assert_eq!(oracle.counters["violation"], 0);
    assert_eq!(oracle.counters["truncated"], 0);
    // Allocated capacity, exact: ten encoding chunks of 512 bytes doubling
    // to 256 KiB (523,776 bytes), 16,368 8-byte records in 10 segments
    // (130,944), and a 16,384-slot index of 8-byte tagged slots (131,072).
    // Chunk or segment sizes or the record or slot layout move it. A codec
    // change moves it only when the encodings need another number of
    // chunks: ten hold these 271,565 bytes, and held the 419,107 of an
    // earlier, longer packet and message-set coding.
    assert_eq!(oracle.counters["arena_bytes"], 785_792);
    // The encodings' own bytes, exact: any change to a codec of the
    // composed state moves this figure.
    assert_eq!(oracle.counters["admitted_bytes"], 271_565);
    // The successors' encoding bytes, every edge's, exact: the parts each
    // action touched are encoded anew (40 %), the rest copied from the
    // parent. Together they are the 1,619,606 bytes a worker that encodes
    // every successor whole writes.
    assert_eq!(oracle.counters["encoded_bytes"], 648_330);
    assert_eq!(oracle.counters["copied_bytes"], 971_276);
    // The run's own 2-thread leg agreed with its main pass, or it would
    // have panicked; its gauges ride along ungated.
    assert!(oracle.gauges["speedup_2t"] > 0.0);
    assert!((0.0..1.0).contains(&oracle.gauges["barrier_share_2t"]));
    assert!(oracle.gauges["available_parallelism"] >= 1.0);

    for threads in [2, 4] {
        let run = explore_deep_n(5, 3, 9_000, threads, 0);
        let mut a = oracle.counters.clone();
        let mut b = run.counters.clone();
        a.remove("threads");
        b.remove("threads");
        assert_eq!(a, b, "counters diverged at {threads} threads");
        assert_eq!(
            run.histograms, oracle.histograms,
            "layer histograms diverged at {threads} threads"
        );
    }
}

/// A leg wide enough to split barriers: channel capacity 7 and 6
/// messages reach 119,300 states in layers of which nine admit at least
/// 4,096 new states, so at two or more threads their barriers are
/// split with a pool helper (drain and sort, then the index placement).
/// Every counter but `threads` and both layer histograms must agree at
/// 1, 2 and 4 threads; each call's own 2-thread leg checks the same.
#[test]
fn split_barrier_leg_is_thread_count_independent() {
    let oracle = explore_deep_n(7, 6, 100_000, 1, 0);
    assert_eq!(oracle.counters["states"], 119_300);
    assert_eq!(oracle.counters["violation"], 0);
    assert_eq!(oracle.counters["truncated"], 0);
    // Layers by bit length of their new states: bucket 13 holds
    // 4,096–8,191, and nine layers fall in it.
    assert_eq!(
        oracle.histograms["layer_discovered"].buckets.last(),
        Some(&(13, 9))
    );
    for threads in [2, 4] {
        let run = explore_deep_n(7, 6, 100_000, threads, 0);
        let mut a = oracle.counters.clone();
        let mut b = run.counters.clone();
        a.remove("threads");
        b.remove("threads");
        assert_eq!(a, b, "counters diverged at {threads} threads");
        assert_eq!(
            run.histograms, oracle.histograms,
            "layer histograms diverged at {threads} threads"
        );
    }
}
