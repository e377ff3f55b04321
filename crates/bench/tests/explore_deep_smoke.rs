//! Release smoke for the `explore/deep` workload: a scaled-down instance
//! (channel capacity 5, 3 messages — 9129 states in well under a second)
//! goes through the exact `explore_deep_n` path the published ≥10⁶-state
//! `explore/deep` ledger entry uses, pinning the packed backend's counts,
//! its exact `arena_bytes` and `admitted_bytes`, and the lock-free visited
//! set's thread-count independence without the full run's wall-clock
//! cost.

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
