//! `fleet-mixed`: `dl-fleet` traffic over all ten zoo kinds, plus the
//! traced run's `fleet.*`, `sim.*`, `protocols.*`, `channels.*`,
//! `monitor.*` and `stabilize.*` breakdown.
//!
//! One cycle is 40 fleets of 500 sessions (20,000 sessions), each fleet
//! seeded from the workload seed, the cycle index and its own index, at
//! one worker with the default fault template, `crash_per256 = 32` and
//! online monitors. A run is about `--seconds` worth of cycles, each on
//! fresh fleet seeds, so a 20-second run averages over 120,000 sessions;
//! each cycle's tally must match the pins when the workload seed is
//! pinned.
//!
//! The traced run drives the same sessions through a benchmark-owned copy
//! of the engine's one-worker loop (build a chunk, round-robin
//! `advance_batch`, `finish`), timing each phase per chunk, and must
//! produce exactly the engine's outcomes. A fixed sample of sessions (the
//! first 20 of every fleet, two of each kind) is then re-run through a
//! recording `Runner`, and its recorded steps are replayed call by call
//! through each layer's public function.

use std::ops::ControlFlow;
use std::time::{Duration, Instant};

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::monitor::TraceMonitor;
use dl_core::spec::stabilize::SuffixMonitor;
use dl_fleet::{
    build_session, fleet_policy, run_fleet, session_config, FleetReport, FleetSpec, ProtocolKind,
    SessionConfig, SessionOutcome, VerdictShard,
};
use dl_obs::Histogram;
use dl_sim::{link_system, schedule_digest, RunReport, Runner};
use ioa::{ActionClass, Automaton};

use crate::alloc::{self, Allocs};
use crate::pins::{self, FleetTally};
use crate::report::{self, median, mix, ns, percentile, ratio, units, Metrics, Outcome};

pub const FLEETS: u64 = 40;
pub const SESSIONS: u64 = 500;
/// Sessions per fleet re-run and replayed by the traced run.
const SAMPLE: u64 = 20;

/// Fleet `k` of cycle `c` for workload seed `seed`.
pub fn spec(seed: u64, c: u64, k: u64) -> FleetSpec {
    FleetSpec {
        seed: mix(mix(seed, c), k),
        sessions: SESSIONS,
        protocols: ProtocolKind::ALL.to_vec(),
        crash_per256: 32,
        workers: 1,
        ..FleetSpec::default()
    }
}

fn kind_index(kind: ProtocolKind) -> usize {
    ProtocolKind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("every kind is in ProtocolKind::ALL")
}

/// Folds one fleet's outcomes into the cycle's tally.
fn tally(t: &mut FleetTally, spec: &FleetSpec, outcomes: &[SessionOutcome]) {
    for o in outcomes {
        let k = &mut t.kinds[kind_index(o.protocol)];
        k[0] += u64::from(o.violation.is_some());
        k[1] += u64::from(o.quiescent);
        k[2] += u64::from(o.convergence.is_some());
        k[3] += u64::from(o.violation.is_none() && o.steps >= spec.max_steps as u64);
        t.fold = t.fold.wrapping_add(mix(mix(spec.seed, o.id), o.digest));
        t.actions += o.steps;
    }
}

/// Cycle `c` through the engine: tally, per-fleet wall times, reports.
fn cycle(seed: u64, c: u64) -> (FleetTally, Vec<f64>, Vec<FleetReport>) {
    let mut t = FleetTally::default();
    let mut secs = Vec::with_capacity(FLEETS as usize);
    let mut reports = Vec::with_capacity(FLEETS as usize);
    for k in 0..FLEETS {
        let spec = spec(seed, c, k);
        let t0 = Instant::now();
        let report = run_fleet(&spec);
        secs.push(t0.elapsed().as_secs_f64());
        tally(&mut t, &spec, &report.outcomes);
        reports.push(report);
    }
    (t, secs, reports)
}

/// Judges one cycle: every session of the cycle fails when its tally
/// misses the pins (the tally cannot say which session moved).
fn judge(seed: u64, c: u64, t: &FleetTally, outcome: &mut Outcome) {
    outcome.record(FLEETS * SESSIONS, pins::check_fleet(seed, c, t).err());
}

/// Nominal seconds of one cycle (see [`units`]).
const CYCLE_SECS: f64 = 3.3;

/// The untraced workload: about `seconds` worth of cycles. The operation
/// is a session; the latency sample is one 500-session fleet.
pub fn run(seed: u64, seconds: f64, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();
    let mut builds = Vec::new();
    let mut secs = Vec::new();
    let mut actions = 0;
    let cycles = units(seconds, CYCLE_SECS);
    for c in 0..cycles {
        // A cycle's set-up is its 40 fleet builds; their median, times
        // 40, is the set-up metric.
        for k in 0..FLEETS {
            let spec = spec(seed, c, k);
            builds.push(report::secs(|| {
                for id in 0..SESSIONS {
                    let cfg = session_config(&spec, id);
                    std::hint::black_box(build_session(&cfg, &spec));
                }
            }));
        }
        let (t, s, _) = cycle(seed, c);
        judge(seed, c, &t, &mut outcome);
        secs.extend(s);
        actions += t.actions;
    }
    let setup = median(&builds) * FLEETS as f64;
    let busy: f64 = secs.iter().sum();
    let sessions = secs.len() as u64 * SESSIONS;
    metrics.put("setup_s", setup, "s");
    metrics.put("throughput_per_s", sessions as f64 / busy, "1/s");
    metrics.put("op_p50_ms", percentile(&secs, 0.5) * 1e3, "ms");
    metrics.put("op_p90_ms", percentile(&secs, 0.9) * 1e3, "ms");
    eprintln!(
        "fleet-mixed: {cycles} cycles, {sessions} sessions, {actions} actions, sessions_per_s {:.0}",
        sessions as f64 / busy
    );
    outcome
}

/// Phase clocks of the traced engine loop.
#[derive(Default)]
struct FleetLayers {
    wall: Duration,
    build: Duration,
    advance: Duration,
    finish: Duration,
    allocs: Allocs,
}

/// The engine's one-worker loop, phase by phase (see `dl_fleet::engine`).
fn traced_fleet(spec: &FleetSpec, l: &mut FleetLayers) -> Vec<SessionOutcome> {
    let a0 = Allocs::now();
    let wall = Instant::now();
    let mut outcomes = Vec::with_capacity(spec.sessions as usize);
    let mut steps_hist = Histogram::new();
    let mut latency_hist = Histogram::new();
    let mut verdicts = VerdictShard::new();
    let chunk = spec.chunk.max(1) as u64;
    let mut lo = 0;
    while lo < spec.sessions {
        let hi = (lo + chunk).min(spec.sessions);
        let t = Instant::now();
        let mut live: Vec<_> = (lo..hi)
            .map(|id| {
                let cfg = session_config(spec, id);
                let session = build_session(&cfg, spec);
                (cfg, session)
            })
            .collect();
        l.build += t.elapsed();

        let t = Instant::now();
        loop {
            let mut progressed = false;
            for (_, session) in &mut live {
                progressed |= session.advance_batch(spec.batch) > 0;
            }
            if !progressed {
                break;
            }
        }
        l.advance += t.elapsed();

        let t = Instant::now();
        for (cfg, session) in live {
            let o = session.finish(&cfg, &mut steps_hist, &mut latency_hist);
            verdicts.record(o.id, o.violation, o.convergence);
            outcomes.push(o);
        }
        l.finish += t.elapsed();
        lo = hi;
    }
    l.wall += wall.elapsed();
    l.allocs.add(a0.since());
    outcomes
}

/// Layer clocks of the sampled session replays.
#[derive(Default)]
struct SimLayers {
    /// Recording re-runs plus the stabilizing suffix scans.
    wall: Duration,
    enabled: Duration,
    transition: Duration,
    fate: Duration,
    observe: Duration,
    scan: Duration,
    local_steps: u64,
    actions: u64,
    sends: u64,
    observed: u64,
    scanned: u64,
}

/// Replays a recorded run's steps through `enabled`, `transition` and,
/// for fault-injected channels, `fate`.
fn replay_steps<M>(
    system: &M,
    report: &RunReport<M::State>,
    faults: Option<&SessionConfig>,
    l: &mut SimLayers,
) where
    M: Automaton<Action = DlAction>,
{
    let exec = &report.execution;
    let n = exec.len();
    let mut actions = Vec::new();
    let t = Instant::now();
    for i in 0..n {
        if system.classify(exec.action(i)) != Some(ActionClass::Input) {
            actions.clear();
            let _ = system.for_each_enabled_local(exec.state(i), &mut |a| {
                actions.push(a);
                ControlFlow::Continue(())
            });
            l.local_steps += 1;
        }
    }
    l.enabled += t.elapsed();

    let mut succs = Vec::new();
    let t = Instant::now();
    for i in 0..n {
        succs.clear();
        system.successors_into(exec.state(i), exec.action(i), &mut succs);
    }
    l.transition += t.elapsed();
    l.actions += n as u64;

    if let Some(cfg) = faults {
        let mut sends = [0u64; 2];
        let t = Instant::now();
        for i in 0..n {
            if let DlAction::SendPkt(d, _) = exec.action(i) {
                let lane = usize::from(*d == Dir::RT);
                std::hint::black_box(cfg.faults[lane].fate(sends[lane]));
                sends[lane] += 1;
            }
        }
        l.fate += t.elapsed();
        l.sends += sends[0] + sends[1];
    }
}

/// Re-runs a classic session with recording and replays it; returns its
/// schedule digest.
fn replay_classic<T, R>(
    protocol: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
    l: &mut SimLayers,
) -> u64
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    let mut runner = Runner::new(cfg.seed, spec.max_steps).with_online_conformance(fleet_policy());
    let t = Instant::now();
    let report = runner.run(&system, &cfg.script);
    l.wall += t.elapsed();
    replay_steps(&system, &report, Some(cfg), l);

    let schedule = report.schedule();
    let mut monitor = TraceMonitor::new();
    let t = Instant::now();
    for a in &schedule {
        monitor.observe(a);
    }
    l.observe += t.elapsed();
    l.observed += schedule.len() as u64;
    schedule_digest(&schedule)
}

/// Re-runs a stabilizing session with recording, replays it, and scans
/// its behavior in suffix mode when it quiesced (as the fleet does).
fn replay_stabilizing(cfg: &SessionConfig, spec: &FleetSpec, l: &mut SimLayers) -> u64 {
    let c = cfg
        .corruption
        .expect("stabilizing sessions carry a corruption spec");
    let protocol = dl_protocols::stabilizing::corrupted(
        u64::from(c.channels[0].capacity),
        c.tx_seq,
        c.rx_expected,
    );
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        CorruptChannel::new(Dir::TR, c.channels[0]),
        CorruptChannel::new(Dir::RT, c.channels[1]),
    );
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    let t = Instant::now();
    let report = runner.run(&system, &cfg.script);
    l.wall += t.elapsed();
    replay_steps(&system, &report, None, l);
    if report.quiescent {
        let t = Instant::now();
        std::hint::black_box(SuffixMonitor::scan(&report.behavior, false));
        let scan = t.elapsed();
        l.scan += scan;
        l.wall += scan;
        l.scanned += report.behavior.len() as u64;
    }
    schedule_digest(&report.schedule())
}

fn replay_session(cfg: &SessionConfig, spec: &FleetSpec, l: &mut SimLayers) -> u64 {
    use dl_protocols as p;
    match cfg.protocol {
        ProtocolKind::Abp => replay_classic(p::abp::protocol(), cfg, spec, l),
        ProtocolKind::GoBack2 => replay_classic(p::sliding_window::protocol(2), cfg, spec, l),
        ProtocolKind::GoBack8 => replay_classic(p::sliding_window::protocol(8), cfg, spec, l),
        ProtocolKind::SelectiveRepeat4 => {
            replay_classic(p::selective_repeat::protocol(4), cfg, spec, l)
        }
        ProtocolKind::Fragmenting => replay_classic(p::fragmenting::protocol(), cfg, spec, l),
        ProtocolKind::Parity => replay_classic(p::parity::protocol(), cfg, spec, l),
        ProtocolKind::Stenning => replay_classic(p::stenning::protocol(), cfg, spec, l),
        ProtocolKind::Nonvolatile => replay_classic(p::nonvolatile::protocol(), cfg, spec, l),
        ProtocolKind::Quirky => replay_classic(p::quirky::protocol(), cfg, spec, l),
        ProtocolKind::Stabilizing => replay_stabilizing(cfg, spec, l),
    }
}

/// The traced run's fleet-side metrics.
pub fn traced(seed: u64, metrics: &mut Metrics) -> Outcome {
    let mut outcome = Outcome::default();

    alloc::set_counting(false);
    let (reference, secs, reports) = cycle(seed, 0);
    judge(seed, 0, &reference, &mut outcome);
    let untraced: f64 = secs.iter().sum();
    alloc::set_counting(true);

    let mut fl = FleetLayers::default();
    let mut peak_classic = 0u64;
    let mut peak_stabilizing = 0u64;
    let mut peak_monitor = 0u64;
    for (k, report) in (0..FLEETS).zip(&reports) {
        let spec = spec(seed, 0, k);
        let outcomes = traced_fleet(&spec, &mut fl);
        if outcomes != report.outcomes {
            outcome.record(
                SESSIONS,
                Some(format!("traced fleet {k} diverged from the engine")),
            );
        }
        for o in &outcomes {
            if o.protocol == ProtocolKind::Stabilizing {
                peak_stabilizing = peak_stabilizing.max(o.resident_bytes);
            } else {
                peak_classic = peak_classic.max(o.resident_bytes);
            }
            peak_monitor = peak_monitor.max(o.monitor_bytes);
        }
    }

    let mut sl = SimLayers::default();
    let mut replayed = 0u64;
    for (k, report) in (0..FLEETS).zip(&reports) {
        let spec = spec(seed, 0, k);
        for id in 0..SAMPLE {
            let cfg = session_config(&spec, id);
            let digest = replay_session(&cfg, &spec, &mut sl);
            let expected = report.outcomes[id as usize].digest;
            let problem = (digest != expected)
                .then(|| format!("recorded re-run of fleet {k} session {id} diverged"));
            outcome.record(1, problem);
            replayed += 1;
        }
    }

    // The traced loop reproduced the engine's outcomes exactly (checked
    // above), so the engine cycle's tally counts its work too.
    let actions = reference.actions as f64;
    let sessions = (FLEETS * SESSIONS) as f64;
    metrics.put("fleet.build.ns_per_session", ns(fl.build) / sessions, "ns");
    metrics.put(
        "fleet.advance.ns_per_action",
        ns(fl.advance) / actions,
        "ns",
    );
    metrics.put(
        "fleet.finish.ns_per_session",
        ns(fl.finish) / sessions,
        "ns",
    );
    metrics.put(
        "fleet.unattributed_share",
        ratio(
            ns(fl.wall) - ns(fl.build + fl.advance + fl.finish),
            ns(fl.wall),
        ),
        "ratio",
    );
    metrics.put(
        "fleet.allocs_per_action",
        fl.allocs.count as f64 / actions,
        "count",
    );
    metrics.put(
        "fleet.alloc_bytes_per_action",
        fl.allocs.bytes as f64 / actions,
        "B",
    );
    metrics.put("fleet.peak_session_bytes.classic", peak_classic as f64, "B");
    metrics.put(
        "fleet.peak_session_bytes.stabilizing",
        peak_stabilizing as f64,
        "B",
    );
    metrics.put("fleet.peak_monitor_bytes", peak_monitor as f64, "B");
    metrics.put("fleet.actions", actions, "count");
    metrics.put(
        "fleet.violations",
        reference.kinds.iter().map(|k| k[0]).sum::<u64>() as f64,
        "count",
    );
    metrics.put(
        "fleet.converged",
        reference.kinds.iter().map(|k| k[2]).sum::<u64>() as f64,
        "count",
    );
    metrics.put(
        "fleet.trace_overhead",
        fl.wall.as_secs_f64() / untraced,
        "ratio",
    );

    let local = sl.local_steps as f64;
    let replay_actions = sl.actions as f64;
    metrics.put("sim.enabled.ns_per_action", ns(sl.enabled) / local, "ns");
    metrics.put(
        "protocols.transition.ns_per_action",
        ns(sl.transition) / replay_actions,
        "ns",
    );
    metrics.put(
        "channels.fate.ns_per_send",
        ns(sl.fate) / sl.sends as f64,
        "ns",
    );
    metrics.put(
        "monitor.observe.ns_per_action",
        ns(sl.observe) / sl.observed as f64,
        "ns",
    );
    metrics.put(
        "stabilize.scan.ns_per_action",
        ns(sl.scan) / sl.scanned as f64,
        "ns",
    );
    // `fate` runs inside `transition` (the channel decides a send's fate
    // in its transition), so it is not added again.
    let attributed = sl.enabled + sl.transition + sl.observe + sl.scan;
    metrics.put(
        "sim.unattributed_share",
        ratio(ns(sl.wall) - ns(attributed), ns(sl.wall)),
        "ratio",
    );
    metrics.put("sim.sampled_sessions", replayed as f64, "count");
    outcome
}

/// Cycle `c`'s tally for `seed`, for `--print-pins`.
pub fn pin_tally(seed: u64, c: u64) -> FleetTally {
    cycle(seed, c).0
}
