//! Ledger-emitting release runs of the headline experiments.
//!
//! One function per workload — E3 (ARQ overhead over lossy links), E9
//! (exhaustive ABP model check), E15 (the same model pushed past 10⁶
//! states), E11 (monitored simulation run, the
//! streaming monitor against the quadratic reference, and sharded
//! monitor ingest), E12 (fuzz rediscovery), E13 (fleet traffic engine),
//! E14 (self-stabilization from corrupted configurations), E16 (the
//! cross-formalism differential), and the two impossibility
//! constructions — each returning a [`RunLedger`] whose
//! **counters** are pure functions of the run configuration (the ledger
//! round-trip tests compare them exactly across re-runs) and whose
//! **gauges** are wall-clock measurements consumed by the bench gate.
//!
//! Timing is measured *here*, around the whole engine invocation, and the
//! throughput/latency gauges are recomputed from that outer wall clock.
//! That keeps one definition of "elapsed" across engines — and it is what
//! makes the synthetic-slowdown test honest: every function takes
//! `sleep_micros`, a deliberate stall injected inside the measured window
//! (`scripts/bench.sh` forwards the `DL_BENCH_SLEEP_US` environment
//! variable through the `ledger_run` binary), so a fake 30 % slowdown
//! provably fails the gate while leaving every counter untouched.

use std::time::{Duration, Instant};

use dl_channels::{LossMode, LossyFifoChannel};
use dl_core::action::{Dir, DlAction, Msg, Packet};
use dl_core::observer::{ObserverState, WdlObserver};
use dl_core::spec::monitor::TraceMonitor;
use dl_core::spec::reference;
use dl_crosscheck::zoo;
use dl_crosscheck::ZooOutcome;
use dl_explore::ParallelExplorer;
use dl_fuzz::{fuzz, target, FuzzConfig};
use dl_impossibility::crash::CrashConfig;
use dl_impossibility::headers::HeaderConfig;
use dl_impossibility::{crash_ledger, header_ledger};
use dl_obs::{BenchFile, RunLedger};
use dl_sim::{link_system, ConformancePolicy, Runner, Script};
use ioa::composition::Compose2;
use ioa::schedule_module::{TraceKind, Verdict};
use ioa::Automaton;

use crate::deliver_n_over_fifo;

/// The E9 system: ABP over capacity-bounded nondeterministically-lossy
/// channels, composed with the WDL-safety observer (closed and finite).
type E9Sys = Compose2<
    Compose2<dl_protocols::AbpTransmitter, dl_protocols::AbpReceiver>,
    Compose2<Compose2<LossyFifoChannel, LossyFifoChannel>, WdlObserver>,
>;

fn e9_system(cap: usize) -> E9Sys {
    let p = dl_protocols::abp::protocol();
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

fn e9_observer(s: &<E9Sys as Automaton>::State) -> &ObserverState {
    &s.right.right
}

fn e9_woken(sys: &E9Sys) -> <E9Sys as Automaton>::State {
    let s0 = sys.start_states().remove(0);
    let s1 = sys.step_first(&s0, &DlAction::Wake(Dir::TR)).unwrap();
    sys.step_first(&s1, &DlAction::Wake(Dir::RT)).unwrap()
}

fn stall(sleep_micros: u64) {
    if sleep_micros > 0 {
        std::thread::sleep(Duration::from_micros(sleep_micros));
    }
}

/// Passes timed by a workload whose single pass lasts only milliseconds:
/// it reports the fastest, so one scheduler hiccup cannot fail the gate.
const TIMING_REPS: usize = 5;

/// Runs `pass` `TIMING_REPS` times; returns the first pass's result and
/// the fastest pass's wall-clock time.
fn fastest_of<T>(mut pass: impl FnMut() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = pass();
    let mut best = t0.elapsed();
    for _ in 1..TIMING_REPS {
        let t0 = Instant::now();
        std::hint::black_box(pass());
        best = best.min(t0.elapsed());
    }
    (out, best)
}

/// Reads the `DL_BENCH_SLEEP_US` synthetic-stall knob (0 when unset or
/// unparsable). This is the *only* place the environment reaches the
/// workloads — everything else takes the stall as an explicit parameter.
#[must_use]
pub fn sleep_from_env() -> u64 {
    std::env::var("DL_BENCH_SLEEP_US")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// E9: exhaustive crash-free ABP verification at channel capacity 3
/// (1178 reachable states, 2 messages), on `threads` worker threads.
/// The gauges time the fastest of `TIMING_REPS` searches.
///
/// Counters are thread-count-independent by the engine's determinism
/// contract; the round-trip test relies on that.
///
/// # Panics
///
/// Panics if the exhaustively-verified safety result ever changes — a
/// bench must not silently measure a broken model.
#[must_use]
pub fn explore_e9(threads: usize, sleep_micros: u64) -> RunLedger {
    let sys = e9_system(3);
    let start = e9_woken(&sys);
    let explorer = ParallelExplorer::new(&sys, e9_inputs(2), 4_000_000, 100_000).threads(threads);
    let (report, search_time) = fastest_of(|| {
        explorer.check_invariant_from(vec![start.clone()], |s| e9_observer(s).is_safe())
    });
    let t0 = Instant::now();
    stall(sleep_micros);
    let elapsed = search_time + t0.elapsed();
    assert!(report.holds(), "E9: ABP crash-free safety must hold");

    let mut ledger = report.to_ledger("e9");
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("states_per_sec", report.states_visited as f64 / secs);
    ledger.gauge("edges_per_sec", report.edges_expanded() as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// The deep-exploration inputs closure: sends the first message in
/// `0..msgs` the observer has not seen yet.
fn e9_inputs(msgs: u64) -> impl Fn(&<E9Sys as Automaton>::State) -> Vec<DlAction> + Sync {
    move |s: &<E9Sys as Automaton>::State| {
        let obs = e9_observer(s);
        (0..msgs)
            .map(Msg)
            .find(|m| !obs.sent.contains(m))
            .map(DlAction::SendMsg)
            .into_iter()
            .collect()
    }
}

/// E15: the deep-exploration workload — the E9 system pushed three
/// orders of magnitude past E9 (channel capacity 6, 16 messages,
/// 1,172,809 reachable states). The ledger's `arena_bytes` counter is
/// the packed-encoding ceiling the bench gate enforces (an alloc-ceiling
/// rule: +25 % fails).
///
/// Counters are thread-count-independent by the engine's determinism
/// contract, exactly as for E9.
///
/// # Panics
///
/// Panics if safety stops holding, the search truncates, or the state
/// count drops below 10⁶ — the workload exists to pin deep reach.
#[must_use]
pub fn explore_deep(threads: usize, sleep_micros: u64) -> RunLedger {
    explore_deep_n(6, 16, 1_000_000, threads, sleep_micros)
}

/// Parameterized deep exploration (capacity, message alphabet, minimum
/// reach): [`explore_deep`] is the published `explore/deep` point; the
/// check-gate smoke stage runs a small instance through the same path.
///
/// Beside its main pass on `threads` workers, the run searches again on
/// two workers and asserts that every counter but `threads` and both
/// layer histograms come out equal. That leg adds three ungated gauges:
/// `speedup_2t` (main-pass search time over the 2-thread time),
/// `barrier_share_2t` (the 2-thread run's barrier span over its
/// duration; 0 without the `obs` feature) and `available_parallelism`.
///
/// # Panics
///
/// Panics if safety stops holding, the search truncates, it reaches
/// fewer than `min_states` states, or the 2-thread leg disagrees with
/// the main pass.
#[must_use]
pub fn explore_deep_n(
    cap: usize,
    msgs: u64,
    min_states: usize,
    threads: usize,
    sleep_micros: u64,
) -> RunLedger {
    let sys = e9_system(cap);
    let start = e9_woken(&sys);
    let search = |threads: usize| {
        ParallelExplorer::new(&sys, e9_inputs(msgs), 16_000_000, 100_000)
            .threads(threads)
            .check_invariant_from(vec![start.clone()], |s| e9_observer(s).is_safe())
    };
    let t0 = Instant::now();
    let report = search(threads);
    let search_time = t0.elapsed();
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    assert!(report.holds(), "deep: ABP crash-free safety must hold");
    assert!(
        report.truncation.is_none(),
        "deep: the search must complete, not truncate"
    );
    assert!(
        report.states_visited >= min_states,
        "deep: reached only {} of the required {min_states} states",
        report.states_visited
    );

    let mut ledger = report.to_ledger("deep");
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("states_per_sec", report.states_visited as f64 / secs);
    ledger.gauge("edges_per_sec", report.edges_expanded() as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);

    let t0 = Instant::now();
    let two = search(2);
    let two_time = t0.elapsed();
    let two_ledger = two.to_ledger("deep");
    let without_threads = |l: &RunLedger| {
        let mut counters = l.counters.clone();
        counters.remove("threads");
        counters
    };
    assert_eq!(
        without_threads(&two_ledger),
        without_threads(&ledger),
        "deep: the 2-thread leg's counters diverged from the main pass"
    );
    assert_eq!(
        two_ledger.histograms, ledger.histograms,
        "deep: the 2-thread leg's layer histograms diverged from the main pass"
    );
    ledger.gauge(
        "speedup_2t",
        search_time.as_secs_f64() / two_time.as_secs_f64().max(1e-9),
    );
    ledger.gauge(
        "barrier_share_2t",
        two.barrier_nanos as f64 / (two.duration.as_nanos() as f64).max(1.0),
    );
    ledger.gauge(
        "available_parallelism",
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get) as f64,
    );
    ledger
}

/// E11 (runner side): a monitored ABP run over nondeterministically-lossy
/// channels delivering 50 messages, online conformance on — the monitor
/// span plus verdict-latency cost lands in the ledger. The gauges time
/// the fastest of `TIMING_REPS` runs, each on a fresh runner.
///
/// # Panics
///
/// Panics if the run fails to quiesce or delivers short.
#[must_use]
pub fn sim_e11(sleep_micros: u64) -> RunLedger {
    let p = dl_protocols::abp::protocol();
    let sys = link_system(
        p.transmitter,
        p.receiver,
        LossyFifoChannel::new(Dir::TR, LossMode::Nondet),
        LossyFifoChannel::new(Dir::RT, LossMode::Nondet),
    );
    let (report, run_time) = fastest_of(|| {
        Runner::new(7, 2_000_000)
            .with_online_conformance(ConformancePolicy::default())
            .run(&sys, &Script::deliver_n(50))
    });
    let t0 = Instant::now();
    stall(sleep_micros);
    let elapsed = run_time + t0.elapsed();
    assert!(report.quiescent, "E11: monitored ABP run must quiesce");
    assert_eq!(report.metrics.msgs_received, 50, "E11: short delivery");
    report.to_ledger("e11", elapsed)
}

/// E3: ARQ overhead over lossy FIFO links. ABP, go-back-2/4/8,
/// selective-repeat-2/4 and Stenning each deliver 20 messages (seed 7)
/// with no loss, every 4th packet lost, and nondeterministic loss. Each
/// of the 21 cells becomes one counter, `data_pkts_<protocol>_<loss>`:
/// the data packets sent `t → r` to deliver the batch, so a cell's
/// overhead ratio is its counter over 20. The gauges time the fastest of
/// `TIMING_REPS` sweeps over all 21 cells.
///
/// # Panics
///
/// Panics if a cell fails to quiesce or delivers short
/// ([`deliver_n_over_fifo`]).
#[must_use]
pub fn sim_e3(sleep_micros: u64) -> RunLedger {
    const MSGS: u64 = 20;
    const SEED: u64 = 7;
    let (mut ledger, sweep_time) = fastest_of(|| {
        let mut ledger = RunLedger::new("sim", "e3");
        for (loss, mode) in [
            ("lossless", LossMode::None),
            ("every4", LossMode::EveryNth(4)),
            ("nondet", LossMode::Nondet),
        ] {
            let mut cell = |protocol: &str, metrics: dl_sim::Metrics| {
                ledger.counter(
                    &format!("data_pkts_{protocol}_{loss}"),
                    metrics.pkts_sent[0],
                );
            };
            let p = dl_protocols::abp::protocol();
            let m = deliver_n_over_fifo(p.transmitter, p.receiver, mode, MSGS, SEED);
            cell("abp", m);
            for w in [2u64, 4, 8] {
                let p = dl_protocols::sliding_window::protocol(w);
                let m = deliver_n_over_fifo(p.transmitter, p.receiver, mode, MSGS, SEED);
                cell(&format!("go_back_{w}"), m);
            }
            for w in [2u64, 4] {
                let p = dl_protocols::selective_repeat::protocol(w);
                let m = deliver_n_over_fifo(p.transmitter, p.receiver, mode, MSGS, SEED);
                cell(&format!("sel_repeat_{w}"), m);
            }
            let p = dl_protocols::stenning::protocol();
            let m = deliver_n_over_fifo(p.transmitter, p.receiver, mode, MSGS, SEED);
            cell("stenning", m);
        }
        ledger
    });
    let t0 = Instant::now();
    stall(sleep_micros);
    let elapsed = sweep_time + t0.elapsed();

    let secs = elapsed.as_secs_f64().max(1e-9);
    let msgs = MSGS * ledger.counters.len() as u64;
    ledger.gauge("msgs_per_sec", msgs as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// E12: the single-worker fuzz campaign that rediscovers ABP's DL4 from
/// cold start (seed 7, 600 executions, step bound 400) — the ledger's
/// `exec_micros` gauge machine-checks the "~30 µs per execution" claim
/// against the committed baseline.
///
/// # Panics
///
/// Panics if the campaign no longer finds the DL4 counterexample.
#[must_use]
pub fn fuzz_e12(sleep_micros: u64) -> RunLedger {
    let cfg = FuzzConfig {
        seed: 7,
        workers: 1,
        max_execs: 600,
        max_steps: 400,
        stop_on_violation: false,
        ..FuzzConfig::default()
    };
    let t0 = Instant::now();
    let report = fuzz(target("abp").expect("abp target"), &cfg);
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    assert!(report.found("DL4"), "E12: fuzzer must rediscover ABP DL4");

    let mut ledger = report.to_ledger("e12");
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("execs_per_sec", report.executions as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    if report.executions > 0 {
        ledger.gauge(
            "exec_micros",
            elapsed.as_secs_f64() * 1e6 / report.executions as f64,
        );
    }
    ledger
}

/// E13: the fleet traffic engine — 3000 mixed-protocol sessions with
/// per-session fault schedules, crash scripts, and online monitors, on
/// `workers` worker threads.
///
/// Counters (including `peak_session_bytes`, the fleet's session-memory
/// ceiling) are worker-count-independent by the engine's determinism
/// contract; the round-trip test relies on that.
///
/// # Panics
///
/// Panics if the fleet stops delivering traffic — a bench must not
/// silently measure a dead engine.
#[must_use]
pub fn fleet_e13(workers: usize, sleep_micros: u64) -> RunLedger {
    let spec = dl_fleet::FleetSpec {
        seed: 13,
        sessions: 3_000,
        crash_per256: 32,
        workers,
        ..dl_fleet::FleetSpec::default()
    };
    let t0 = Instant::now();
    let report = dl_fleet::run_fleet(&spec);
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    assert_eq!(report.sessions(), 3_000, "E13: sessions went missing");
    assert!(
        report.msgs_delivered > 2 * report.sessions(),
        "E13: fleet delivered almost nothing"
    );

    let mut ledger = report.to_ledger("e13");
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("sessions_per_sec", report.sessions() as f64 / secs);
    ledger.gauge("actions_per_sec", report.actions as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// E14: the self-stabilization workload — 600 stabilizing-only sessions,
/// every one from a densely corrupted initial configuration (skewed
/// station counters, ghost packets in both non-FIFO channels), judged in
/// suffix mode with the corruption-budget liveness oracle.
///
/// Counters are worker-count-independent by the fleet's determinism
/// contract. The headline pair is `converged_sessions` (must equal
/// `sessions`: arXiv 1011.3632's possibility result, made operational)
/// and the `convergence_actions` histogram (the full distribution of
/// per-session stabilization times; its exact `sum`/`max` replace the
/// old aggregate counters).
///
/// # Panics
///
/// Panics if any corrupted configuration fails to converge within the
/// step bound — a bench must not silently measure a broken protocol.
#[must_use]
pub fn stabilize_converge(workers: usize, sleep_micros: u64) -> RunLedger {
    let spec = dl_fleet::FleetSpec {
        seed: 14,
        sessions: 600,
        protocols: vec![dl_fleet::ProtocolKind::Stabilizing],
        corruption_per256: 255,
        workers,
        ..dl_fleet::FleetSpec::default()
    };
    let t0 = Instant::now();
    let report = dl_fleet::run_fleet(&spec);
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    assert_eq!(report.sessions(), 600, "E14: sessions went missing");
    assert_eq!(
        report.verdicts.converged,
        600,
        "E14: a corrupted configuration failed to converge: {:?}",
        report
            .outcomes
            .iter()
            .filter(|o| o.convergence.is_none())
            .take(3)
            .collect::<Vec<_>>()
    );

    let mut ledger = RunLedger::new("stabilize", "converge");
    ledger.counter("sessions", report.sessions());
    ledger.counter("actions", report.actions);
    ledger.counter("msgs_sent", report.msgs_sent);
    ledger.counter("msgs_delivered", report.msgs_delivered);
    ledger.counter("converged_sessions", report.verdicts.converged);
    ledger.histogram("convergence_actions", &report.verdicts.convergence_hist);
    ledger.counter("violations", report.violations);
    ledger.counter("peak_session_bytes", report.peak_session_bytes);
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("sessions_per_sec", report.sessions() as f64 / secs);
    ledger.gauge("actions_per_sec", report.actions as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// Deterministic traffic source for the monitor-ingest workload: a
/// splitmix-driven stream of plausible link traffic (packet sends with
/// matching in-order receives, message sends/deliveries, working-interval
/// churn) produced chunk by chunk so the 10⁷-action run never
/// materializes the whole trace. Every action is a pure function of the
/// seed, so the ledger's counters reproduce exactly across re-runs.
struct MonitorTraceGen {
    state: u64,
    up: [bool; 2],
    next_uid: u64,
    next_msg: u64,
    /// Sent-but-undelivered packets per direction, oldest first (receives
    /// pop from the front, keeping the stream PL-clean and FIFO).
    pending: [std::collections::VecDeque<Packet>; 2],
    undelivered: std::collections::VecDeque<Msg>,
}

impl MonitorTraceGen {
    fn new(seed: u64) -> Self {
        MonitorTraceGen {
            state: seed,
            up: [false; 2],
            next_uid: 0,
            next_msg: 0,
            pending: [
                std::collections::VecDeque::new(),
                std::collections::VecDeque::new(),
            ],
            undelivered: std::collections::VecDeque::new(),
        }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64: full-period, deterministic, dependency-free.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn dir(k: usize) -> Dir {
        Dir::BOTH[k]
    }

    /// Appends `n` actions to `out` (which is cleared first).
    fn fill(&mut self, out: &mut Vec<DlAction>, n: usize) {
        out.clear();
        while out.len() < n {
            let roll = self.next_u64();
            let k = (roll & 1) as usize;
            match roll % 100 {
                // Working-interval churn, rare enough that long
                // send/receive stretches dominate.
                0 => out.push(if self.up[k] {
                    self.up[k] = false;
                    DlAction::Fail(Self::dir(k))
                } else {
                    self.up[k] = true;
                    DlAction::Wake(Self::dir(k))
                }),
                // Message traffic (~16 %): fresh sends while the tx
                // medium is up, in-order deliveries of the backlog.
                1..=8 => {
                    if self.up[0] {
                        let m = Msg(self.next_msg);
                        self.next_msg += 1;
                        self.undelivered.push_back(m);
                        out.push(DlAction::SendMsg(m));
                    }
                }
                9..=16 => {
                    if let Some(m) = self.undelivered.pop_front() {
                        out.push(DlAction::ReceiveMsg(m));
                    }
                }
                // Packet traffic (~83 %), balanced sends and receives
                // with a bounded in-flight window per direction.
                n if n % 2 == 0 => {
                    if self.up[k] && self.pending[k].len() < 48 {
                        let p =
                            Packet::data(self.next_uid, Msg(self.next_uid)).with_uid(self.next_uid);
                        self.next_uid += 1;
                        self.pending[k].push_back(p);
                        out.push(DlAction::SendPkt(Self::dir(k), p));
                    }
                }
                _ => {
                    if let Some(p) = self.pending[k].pop_front() {
                        out.push(DlAction::ReceivePkt(Self::dir(k), p));
                    }
                }
            }
        }
    }

    /// The conformant epilogue: wake both media and deliver every
    /// outstanding packet and message, so all eight module verdicts on
    /// the finished stream are `Satisfied` (nothing in transit, no open
    /// DL8 obligations, DL1's both-up case).
    fn finish(&mut self, out: &mut Vec<DlAction>) {
        out.clear();
        for k in [0, 1] {
            if !self.up[k] {
                self.up[k] = true;
                out.push(DlAction::Wake(Self::dir(k)));
            }
        }
        for k in [0, 1] {
            while let Some(p) = self.pending[k].pop_front() {
                out.push(DlAction::ReceivePkt(Self::dir(k), p));
            }
        }
        while let Some(m) = self.undelivered.pop_front() {
            out.push(DlAction::ReceiveMsg(m));
        }
    }
}

/// The monitor line-rate workload: 10⁷ generated actions, sharded into
/// session-sized streams (the regime every real consumer — `dl-sim`
/// runs, fuzz executions, fleet sessions — actually operates in), each
/// ingested by its own [`TraceMonitor`] in 16 Ki-action slices via
/// `observe_all`, all eight module verdicts queried per session, and
/// the per-session verdicts folded through the fleet's lossless
/// [`VerdictShard`](dl_fleet::VerdictShard) merge. The measured window
/// covers ingestion and verdicts but not trace generation —
/// `actions_per_sec` is the monitor's own batched throughput, the
/// number E11 cites.
///
/// (A single unsharded 10⁷-action stream is deliberately *not* the
/// headline: PL2 forces every conformant packet value to be globally
/// distinct, so a monolithic monitor's value tables outgrow cache and
/// the run measures DRAM probe latency, ~2 · 10⁶ actions/s.)
///
/// Counters (session/verdict tallies, in-transit population, and the
/// `peak_monitor_bytes` footprint that gates the bounded-memory claim)
/// are pure functions of the seed.
///
/// # Panics
///
/// Panics if the generated traffic stops being conformant — the workload
/// must measure the clean fast path, not violation bookkeeping.
#[must_use]
pub fn monitor_ingest(sleep_micros: u64) -> RunLedger {
    monitor_ingest_n(10_000_000, sleep_micros)
}

/// [`monitor_ingest`] at a configurable total action count (the
/// check-stage smoke runs fewer sessions with the same shape).
#[must_use]
pub fn monitor_ingest_n(actions: usize, sleep_micros: u64) -> RunLedger {
    const CHUNK: usize = 16 * 1024;
    const SESSION_ACTIONS: usize = 50_000;
    let sessions = actions.div_ceil(SESSION_ACTIONS).max(1);

    let mut chunk = Vec::with_capacity(CHUNK);
    let mut busy = Duration::ZERO;
    let mut total_actions = 0u64;
    let mut satisfied = 0u64;
    let mut in_transit = 0u64;
    let mut peak_bytes = 0u64;
    let mut shard = dl_fleet::VerdictShard::new();
    let mut remaining = actions;
    for session in 0..sessions {
        let budget = remaining.min(SESSION_ACTIONS);
        remaining -= budget;
        // Domain-separated per-session seed, splitmix-style.
        let mut gen = MonitorTraceGen::new(
            0x11_2233_4455 ^ (session as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut mon = TraceMonitor::new();
        let mut fed = 0usize;
        while fed < budget {
            let n = CHUNK.min(budget - fed);
            gen.fill(&mut chunk, n);
            let t0 = Instant::now();
            mon.observe_all(&chunk);
            busy += t0.elapsed();
            fed += n;
        }
        gen.finish(&mut chunk);
        let t0 = Instant::now();
        mon.observe_all(&chunk);
        satisfied += count_satisfied(&monitor_verdicts(&mon));
        busy += t0.elapsed();
        let violation = match mon.dl_verdict(false, TraceKind::Complete) {
            Verdict::Violated(v) => Some(v.property),
            _ => None,
        };
        shard.record(session as u64, violation, None);
        total_actions += mon.actions_observed() as u64;
        in_transit += (mon.in_transit_count(Dir::TR) + mon.in_transit_count(Dir::RT)) as u64;
        peak_bytes = peak_bytes.max(mon.approx_bytes() as u64);
    }
    stall(sleep_micros);
    // The generator emits only conformant traffic and each epilogue
    // settles its stream, so every module verdict must be `Satisfied`
    // and the verdict shard must be all-clean.
    assert_eq!(
        satisfied,
        8 * sessions as u64,
        "monitor workload saw unexpected violations"
    );
    assert_eq!(shard.clean, sessions as u64);
    assert_eq!(shard.violations(), 0);

    let mut ledger = RunLedger::new("monitor", "ingest");
    ledger.counter("actions", total_actions);
    ledger.counter("sessions", sessions as u64);
    ledger.counter("verdicts_satisfied", satisfied);
    ledger.counter("clean_sessions", shard.clean);
    ledger.counter("in_transit", in_transit);
    ledger.counter("peak_monitor_bytes", peak_bytes);
    let secs = busy.as_secs_f64().max(1e-9);
    ledger.gauge("actions_per_sec", total_actions as f64 / secs);
    ledger.gauge("duration_micros", busy.as_secs_f64() * 1e6);
    ledger
}

/// E11 (checker side): all eight module verdicts from one streaming
/// [`TraceMonitor`] pass over a message-dense 10⁵-action trace, against
/// the same verdicts from the frozen quadratic `spec::reference`
/// checkers. `streaming_actions_per_sec` is the gated rate of the fastest
/// of `TIMING_REPS` streaming passes; `speedup` reports the reference
/// pass's time over that pass's.
///
/// # Panics
///
/// Panics if the two verdict lists differ, or if the streaming pass is
/// less than 10× faster than the reference pass.
#[must_use]
pub fn monitor_e11(sleep_micros: u64) -> RunLedger {
    monitor_e11_n(100_000, sleep_micros)
}

/// [`monitor_e11`] at a configurable trace length (the schema tests run
/// a short trace in debug builds).
#[must_use]
pub fn monitor_e11_n(actions: usize, sleep_micros: u64) -> RunLedger {
    let trace = message_dense_trace(actions);
    let (streaming, streaming_time) = fastest_of(|| monitor_verdicts(&TraceMonitor::scan(&trace)));
    let t0 = Instant::now();
    stall(sleep_micros);
    let measured = streaming_time + t0.elapsed();
    let t0 = Instant::now();
    let reference = eight_verdicts(
        |dir, fifo| reference::pl_check(&trace, dir, fifo),
        |weak, kind| reference::dl_check(&trace, weak, kind),
    );
    let reference_time = t0.elapsed();
    assert_eq!(
        streaming, reference,
        "E11: streaming and reference verdicts diverged"
    );
    let speedup = reference_time.as_secs_f64() / streaming_time.as_secs_f64().max(1e-9);
    assert!(
        speedup >= 10.0,
        "E11: streaming pass only {speedup:.1}x faster than the reference \
         ({streaming_time:?} against {reference_time:?})"
    );

    let mut ledger = RunLedger::new("monitor", "e11");
    ledger.counter("actions", trace.len() as u64);
    ledger.counter(
        "messages",
        trace
            .iter()
            .filter(|a| matches!(a, DlAction::SendMsg(_)))
            .count() as u64,
    );
    ledger.counter("verdicts_satisfied", count_satisfied(&streaming));
    let secs = measured.as_secs_f64().max(1e-9);
    ledger.gauge("streaming_actions_per_sec", trace.len() as f64 / secs);
    ledger.gauge("speedup", speedup);
    ledger.gauge("duration_micros", measured.as_secs_f64() * 1e6);
    ledger
}

/// A message-dense trace of at least `n` actions: send/deliver pairs,
/// with a transmitter fail/wake cycle every 500 messages. The reference
/// DL5 check scans every earlier receive at each receive, so it is
/// quadratic here.
fn message_dense_trace(n: usize) -> Vec<DlAction> {
    let mut out = vec![DlAction::Wake(Dir::TR), DlAction::Wake(Dir::RT)];
    let mut m = 0u64;
    while out.len() < n {
        out.push(DlAction::SendMsg(Msg(m)));
        out.push(DlAction::ReceiveMsg(Msg(m)));
        m += 1;
        if m.is_multiple_of(500) {
            out.push(DlAction::Fail(Dir::TR));
            out.push(DlAction::Wake(Dir::TR));
        }
    }
    out
}

/// All eight module verdicts of `mon`, in [`eight_verdicts`] order.
fn monitor_verdicts(mon: &TraceMonitor) -> Vec<Verdict> {
    eight_verdicts(
        |dir, fifo| mon.pl_verdict(dir, fifo),
        |weak, kind| mon.dl_verdict(weak, kind),
    )
}

/// The eight module verdicts of one trace: the four PL configurations
/// (`pl(dir, fifo)`), then the four DL configurations (`dl(weak, kind)`).
fn eight_verdicts(
    pl: impl Fn(Dir, bool) -> Verdict,
    dl: impl Fn(bool, TraceKind) -> Verdict,
) -> Vec<Verdict> {
    let mut out = Vec::with_capacity(8);
    for dir in Dir::BOTH {
        for fifo in [false, true] {
            out.push(pl(dir, fifo));
        }
    }
    for weak in [false, true] {
        for kind in [TraceKind::Prefix, TraceKind::Complete] {
            out.push(dl(weak, kind));
        }
    }
    out
}

fn count_satisfied(verdicts: &[Verdict]) -> u64 {
    verdicts
        .iter()
        .filter(|v| **v == Verdict::Satisfied)
        .count() as u64
}

/// Theorem 7.5: the ABP crash pump, with the reference-projection
/// footprint (`projection_bytes`) as an alloc-ceiling for the gate.
///
/// # Panics
///
/// Panics if the construction fails — ABP satisfies the hypotheses.
#[must_use]
pub fn impossibility_crash(sleep_micros: u64) -> RunLedger {
    let p = dl_protocols::abp::protocol();
    let t0 = Instant::now();
    let (_cx, mut ledger) = crash_ledger(
        p.transmitter,
        p.receiver,
        CrashConfig::default(),
        "crash_abp",
    )
    .expect("Theorem 7.5 construction on ABP");
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    let secs = elapsed.as_secs_f64().max(1e-9);
    let trace_len = ledger.counters["trace_len"] as f64;
    ledger.gauge("trace_actions_per_sec", trace_len / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// Theorem 8.5: the ABP header pump.
///
/// # Panics
///
/// Panics if the pump fails to produce a violation — ABP's headers are
/// bounded.
#[must_use]
pub fn impossibility_header(sleep_micros: u64) -> RunLedger {
    let p = dl_protocols::abp::protocol();
    let t0 = Instant::now();
    let (outcome, mut ledger) = header_ledger(
        p.transmitter,
        p.receiver,
        HeaderConfig::default(),
        "header_abp",
    )
    .expect("Theorem 8.5 construction on ABP");
    stall(sleep_micros);
    let elapsed = t0.elapsed();
    assert!(
        matches!(outcome, dl_impossibility::HeaderOutcome::Violation(_)),
        "ABP's bounded headers must be pumped into a violation"
    );
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// E16: the cross-formalism differential — the comparison zoo run by
/// both the parallel explorer and the independent `dl-crosscheck`
/// engine, with field-by-field agreement asserted before any metric is
/// ledgered. Counters aggregate the *independent* engine's side, so the
/// ledger pins would catch a drift in it even if the differential
/// itself were ever weakened.
///
/// # Panics
///
/// Panics if the engines disagree on any instance, or if the Lemma 7.2
/// crash pump stops producing its DL4 counterexample.
#[must_use]
pub fn crosscheck_e16(threads: usize, sleep_micros: u64) -> RunLedger {
    let t0 = Instant::now();
    let outcomes: Vec<ZooOutcome> = vec![
        zoo::abp_lossy(3, threads),
        zoo::go_back_n_lossy(2, 2, threads),
        zoo::stabilizing_reorder(2, threads),
        zoo::abp_crash_pump(threads),
    ];
    stall(sleep_micros);
    let elapsed = t0.elapsed();

    for outcome in &outcomes {
        outcome.assert_agree();
    }
    let states: u64 = outcomes.iter().map(|o| o.crosscheck.states as u64).sum();
    let edges: u64 = outcomes
        .iter()
        .flat_map(|o| &o.crosscheck.layers)
        .map(|l| l.edges)
        .sum();
    let violations = outcomes
        .iter()
        .filter(|o| o.crosscheck.violation.is_some())
        .count() as u64;
    let pump_path_len = outcomes
        .iter()
        .find(|o| o.name == "abp_crash_pump")
        .and_then(|o| o.crosscheck.violation.as_ref())
        .map_or(0, |v| v.path.len() as u64);
    assert!(
        pump_path_len > 0,
        "E16: the crash pump must reach a DL4 violation"
    );

    let mut ledger = RunLedger::new("crosscheck", "e16");
    ledger.counter("instances", outcomes.len() as u64);
    ledger.counter("disagreements", 0);
    ledger.counter("states", states);
    ledger.counter("edges", edges);
    ledger.counter("violations", violations);
    ledger.counter("crash_pump_path_len", pump_path_len);
    ledger.counter("threads", threads as u64);
    let secs = elapsed.as_secs_f64().max(1e-9);
    ledger.gauge("states_per_sec", states as f64 / secs);
    ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
    ledger
}

/// Runs every workload and collects the ledgers into a [`BenchFile`]
/// stamped with the current Unix time.
#[must_use]
pub fn all_runs(threads: usize, sleep_micros: u64) -> BenchFile {
    let created = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_secs());
    BenchFile {
        created: format!("unix:{created}"),
        runs: vec![
            explore_e9(threads, sleep_micros),
            explore_deep(threads, sleep_micros),
            sim_e3(sleep_micros),
            sim_e11(sleep_micros),
            monitor_ingest(sleep_micros),
            monitor_e11(sleep_micros),
            fuzz_e12(sleep_micros),
            fleet_e13(threads, sleep_micros),
            stabilize_converge(threads, sleep_micros),
            crosscheck_e16(threads, sleep_micros),
            impossibility_crash(sleep_micros),
            impossibility_header(sleep_micros),
        ],
    }
}

/// Relaxes a fresh run into a commit-worthy baseline: throughput floors
/// (`*_per_sec`) are halved and latency ceilings (`*_micros`) doubled, so
/// the committed `bench/baseline.json` tolerates cross-machine variance
/// while the gate's 25 % rules still catch real regressions against it.
/// Counters (including the alloc ceilings) are left exact — they are
/// deterministic.
pub fn relax_into_baseline(file: &mut BenchFile) {
    file.runs.iter_mut().for_each(relax_gauges);
}

fn relax_gauges(run: &mut RunLedger) {
    for (key, value) in &mut run.gauges {
        if key.ends_with("_per_sec") {
            *value *= 0.5;
        } else if key.ends_with("_micros") {
            *value *= 2.0;
        }
    }
}

/// Re-pins `baseline`'s deterministic numbers from a fresh run: each run
/// takes `fresh`'s counters and histograms and keeps `baseline`'s gauges
/// and spans, so no wall-clock figure is re-recorded (and no throughput
/// floor halved again) when only work counters moved. The result lists
/// `fresh`'s runs under `baseline`'s `created` stamp; a run the baseline
/// does not have yet is relaxed as [`relax_into_baseline`] would.
#[must_use]
pub fn repin_counters(baseline: &BenchFile, fresh: &BenchFile) -> BenchFile {
    let runs = fresh
        .runs
        .iter()
        .map(|run| {
            let mut run = run.clone();
            match baseline.find(&run.engine, &run.run_id) {
                Some(pinned) => {
                    run.gauges.clone_from(&pinned.gauges);
                    run.spans.clone_from(&pinned.spans);
                }
                None => relax_gauges(&mut run),
            }
            run
        })
        .collect();
    BenchFile {
        created: baseline.created.clone(),
        runs,
    }
}

/// Renders a bench file as the Markdown table EXPERIMENTS.md embeds:
/// one row per counter and gauge, grouped by run.
#[must_use]
pub fn markdown(file: &BenchFile) -> String {
    let mut out = String::from("| run | metric | value |\n|---|---|---|\n");
    for run in &file.runs {
        let name = format!("{}/{}", run.engine, run.run_id);
        for (key, value) in &run.counters {
            out.push_str(&format!("| {name} | {key} | {value} |\n"));
        }
        for (key, value) in &run.gauges {
            out.push_str(&format!("| {name} | {key} | {value:.1} |\n"));
        }
        for (key, nanos) in &run.spans {
            out.push_str(&format!("| {name} | span:{key} | {nanos} ns |\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e9_counters_match_the_published_state_count() {
        let ledger = explore_e9(1, 0);
        assert_eq!(ledger.engine, "explore");
        assert_eq!(ledger.counters["states"], 1178);
        assert_eq!(ledger.counters["violation"], 0);
        assert_eq!(ledger.counters["threads"], 1);
        assert!(ledger.gauges["states_per_sec"] > 0.0);
    }

    /// The EXPERIMENTS.md E3 table: data packets per 20 delivered
    /// messages, lossless / every 4th lost / nondeterministic loss.
    #[test]
    fn e3_counters_match_the_published_table() {
        let ledger = sim_e3(0);
        let table: [(&str, [u64; 3]); 7] = [
            ("abp", [40, 52, 101]),
            ("go_back_2", [37, 66, 73]),
            ("go_back_4", [51, 114, 137]),
            ("go_back_8", [99, 146, 198]),
            ("sel_repeat_2", [35, 36, 75]),
            ("sel_repeat_4", [27, 34, 48]),
            ("stenning", [40, 52, 101]),
        ];
        let mut expected = std::collections::BTreeMap::new();
        for (protocol, cells) in table {
            for (loss, pkts) in ["lossless", "every4", "nondet"].into_iter().zip(cells) {
                expected.insert(format!("data_pkts_{protocol}_{loss}"), pkts);
            }
        }
        assert_eq!(ledger.counters, expected);
        assert!(ledger.gauges["msgs_per_sec"] > 0.0);
    }

    #[test]
    fn markdown_lists_every_run() {
        let mut file = BenchFile {
            created: "test".into(),
            runs: vec![],
        };
        let mut ledger = RunLedger::new("sim", "e11");
        ledger.counter("steps", 5);
        ledger.gauge("actions_per_sec", 123.4);
        file.runs.push(ledger);
        let md = markdown(&file);
        assert!(md.contains("| sim/e11 | steps | 5 |"));
        assert!(md.contains("| sim/e11 | actions_per_sec | 123.4 |"));
    }

    #[test]
    fn baseline_relaxation_halves_floors_and_doubles_ceilings() {
        let mut file = BenchFile {
            created: "test".into(),
            runs: vec![],
        };
        let mut ledger = RunLedger::new("fuzz", "e12");
        ledger.counter("corpus_steps", 10);
        ledger.gauge("execs_per_sec", 1000.0);
        ledger.gauge("exec_micros", 30.0);
        file.runs.push(ledger);
        relax_into_baseline(&mut file);
        let run = &file.runs[0];
        assert_eq!(run.gauges["execs_per_sec"], 500.0);
        assert_eq!(run.gauges["exec_micros"], 60.0);
        assert_eq!(run.counters["corpus_steps"], 10);
    }
}
