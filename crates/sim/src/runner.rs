//! The fair, uid-stamping simulation runner.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, TaskId};
use ioa::execution::Execution;
use ioa::schedule_module::Violation;

use dl_core::action::{Dir, DlAction, Header, Packet};
use dl_core::spec::monitor::TraceMonitor;

use crate::conformance::ConformancePolicy;

/// Counters collected during a run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Metrics {
    /// `send_msg` events.
    pub msgs_sent: u64,
    /// `receive_msg` events.
    pub msgs_received: u64,
    /// `send_pkt` events per direction `(t→r, r→t)`.
    pub pkts_sent: [u64; 2],
    /// `receive_pkt` events per direction `(t→r, r→t)`.
    pub pkts_received: [u64; 2],
    /// Crash events.
    pub crashes: u64,
    /// Distinct packet headers observed in `send_pkt` events (both
    /// directions) — the measured `|headers(A, ≡)|` of experiment E7.
    pub headers_used: BTreeSet<Header>,
    /// Total steps taken.
    pub steps: u64,
    /// Per-message delivery latency in steps (`receive_msg` step minus
    /// `send_msg` step), in delivery order.
    ///
    /// Latency uses **multiset FIFO-per-value** matching, mirroring the
    /// `in_transit` semantics of the trace monitor: each `send_msg` of a
    /// value pushes its step index onto that value's queue, and each
    /// `receive_msg` pops the *earliest unmatched* send. Re-sending an
    /// in-flight value therefore gets its own latency sample instead of
    /// being collapsed onto the first send (which skewed re-sent values
    /// before). Note the DL spec itself (DL3) considers duplicate-value
    /// sends ill-formed; the metrics stay well-defined anyway.
    pub latencies: Vec<u64>,
    /// Step indices at which each in-flight copy of a message value was
    /// sent (FIFO queue per value, drained as copies are delivered).
    send_step: BTreeMap<dl_core::action::Msg, VecDeque<u64>>,
}

impl Metrics {
    fn record(&mut self, a: &DlAction) {
        self.steps += 1;
        match a {
            DlAction::SendMsg(m) => {
                self.msgs_sent += 1;
                self.send_step.entry(*m).or_default().push_back(self.steps);
            }
            DlAction::ReceiveMsg(m) => {
                self.msgs_received += 1;
                if let Some(q) = self.send_step.get_mut(m) {
                    if let Some(at) = q.pop_front() {
                        self.latencies.push(self.steps - at);
                    }
                    if q.is_empty() {
                        self.send_step.remove(m);
                    }
                }
            }
            DlAction::SendPkt(d, p) => {
                self.pkts_sent[(*d == Dir::RT) as usize] += 1;
                self.headers_used.insert(p.header);
            }
            DlAction::ReceivePkt(d, _) => {
                self.pkts_received[(*d == Dir::RT) as usize] += 1;
            }
            DlAction::Crash(_) => self.crashes += 1,
            _ => {}
        }
    }

    /// Mean delivery latency in steps; `None` when no message was
    /// delivered (e.g. an empty run, or a run that crashed before any
    /// delivery) — never a division by zero.
    #[must_use]
    pub fn mean_latency(&self) -> Option<f64> {
        if self.latencies.is_empty() {
            None
        } else {
            Some(self.latencies.iter().sum::<u64>() as f64 / self.latencies.len() as f64)
        }
    }

    /// Packets sent on the `t → r` data path per message delivered — the
    /// protocol's overhead ratio. `None` when nothing was delivered
    /// (previously this returned `NaN`, which silently poisoned derived
    /// statistics).
    #[must_use]
    pub fn overhead(&self) -> Option<f64> {
        if self.msgs_received == 0 {
            None
        } else {
            Some(self.pkts_sent[0] as f64 / self.msgs_received as f64)
        }
    }

    /// Message copies sent but not (yet) delivered when the run ended —
    /// e.g. stranded by a crash mid-flight. Counts every unmatched send,
    /// so a value re-sent while in flight contributes twice.
    #[must_use]
    pub fn pending_messages(&self) -> usize {
        self.send_step.values().map(VecDeque::len).sum()
    }
}

/// Where in the executor a seeded choice is made.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DecisionPoint {
    /// Which enabled action of the scheduled task class to take.
    Action,
    /// Which successor state resolves the taken action's nondeterminism.
    Successor,
}

/// One seeded choice the executor made (or was forced to make): at a
/// [`DecisionPoint`] with `arity` alternatives, alternative `pick` was
/// taken. A run is fully determined by its start state, script, and
/// decision sequence — recording the sequence
/// ([`Runner::with_decision_recording`]) and playing it back
/// ([`Runner::with_decision_replay`]) reproduces the exact execution,
/// which is what makes fuzzer counterexamples replayable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Decision {
    /// The kind of choice.
    pub point: DecisionPoint,
    /// How many alternatives were available.
    pub arity: usize,
    /// The index chosen, `< arity`.
    pub pick: usize,
}

/// The outcome of a scripted run.
#[derive(Debug, Clone)]
pub struct RunReport<S> {
    /// The full execution (all actions, including hidden packet actions).
    pub execution: Execution<DlAction, S>,
    /// The behavior: external actions of the composed system — data-link-
    /// layer actions when the system was built with
    /// [`crate::system::link_system`].
    pub behavior: Vec<DlAction>,
    /// `true` if the run ended quiescent with the script fully consumed.
    pub quiescent: bool,
    /// Counters.
    pub metrics: Metrics,
    /// First conformance violation caught by the online monitor, when the
    /// runner was built with [`Runner::with_online_conformance`]; the run
    /// was aborted right after the offending action, so
    /// [`RunReport::schedule`] *is* the offending prefix (the violation's
    /// `at` indexes into it).
    pub online_violation: Option<Violation>,
    /// The decision sequence of this run, when the runner was built with
    /// [`Runner::with_decision_recording`]; feeding it back through
    /// [`Runner::with_decision_replay`] reproduces the run exactly.
    pub decisions: Option<Vec<Decision>>,
    /// Nanoseconds the online conformance monitor spent judging actions.
    /// Always 0 unless the `obs` feature is enabled (and the runner was
    /// built with [`Runner::with_online_conformance`]).
    pub monitor_nanos: u64,
    /// How many times a reusable scratch buffer (the enabled set or the
    /// task-class filter) outgrew its capacity and reallocated — the
    /// steady-state target is a handful of warm-up growths and then zero.
    pub scratch_refills: u64,
}

impl<S: Clone + Eq + std::fmt::Debug> RunReport<S> {
    /// The complete schedule (every action, hidden or not).
    #[must_use]
    pub fn schedule(&self) -> Vec<DlAction> {
        self.execution.schedule()
    }
}

impl<S> RunReport<S> {
    /// Serializes the run into a [`dl_obs::RunLedger`] under the `sim`
    /// engine. `elapsed` is the caller-measured wall clock of the run
    /// (the report itself carries no timing).
    ///
    /// Counters are pure functions of `(system, seed, script)` — the
    /// ledger round-trip tests compare them exactly across re-runs.
    /// Gauges and the `monitor` span are wall-clock-derived and feed the
    /// regression gate only.
    #[must_use]
    pub fn to_ledger(&self, run_id: &str, elapsed: std::time::Duration) -> dl_obs::RunLedger {
        let m = &self.metrics;
        let mut ledger = dl_obs::RunLedger::new("sim", run_id);
        ledger.counter("steps", m.steps);
        ledger.counter("msgs_sent", m.msgs_sent);
        ledger.counter("msgs_received", m.msgs_received);
        ledger.counter("pkts_sent_tr", m.pkts_sent[0]);
        ledger.counter("pkts_sent_rt", m.pkts_sent[1]);
        ledger.counter("pkts_received_tr", m.pkts_received[0]);
        ledger.counter("pkts_received_rt", m.pkts_received[1]);
        ledger.counter("crashes", m.crashes);
        ledger.counter("distinct_headers", m.headers_used.len() as u64);
        ledger.counter("pending_messages", m.pending_messages() as u64);
        ledger.counter("behavior_len", self.behavior.len() as u64);
        ledger.counter("quiescent", u64::from(self.quiescent));
        ledger.counter(
            "online_violation",
            u64::from(self.online_violation.is_some()),
        );
        ledger.counter("scratch_refills", self.scratch_refills);

        let secs = elapsed.as_secs_f64().max(1e-9);
        ledger.gauge("actions_per_sec", m.steps as f64 / secs);
        ledger.gauge("duration_micros", elapsed.as_secs_f64() * 1e6);
        if let Some(overhead) = m.overhead() {
            ledger.gauge("overhead_ratio", overhead);
        }

        let mut latency = dl_obs::Histogram::new();
        for &sample in &m.latencies {
            latency.record(sample);
        }
        ledger.histogram("latency_steps", &latency);

        ledger.span("monitor", self.monitor_nanos);
        ledger
    }
}

/// Fair round-robin runner over any automaton on the data-link action
/// universe, with packet-uid stamping and scripted environment inputs.
#[derive(Debug)]
pub struct Runner {
    rng: StdRng,
    next_uid: u64,
    max_steps: usize,
    conformance: Option<ConformancePolicy>,
    overrides: BTreeMap<u64, u64>,
    replay: Option<Vec<Decision>>,
    record: bool,
    decision_index: u64,
    taken: Vec<Decision>,
}

/// Reusable per-run buffers: the enabled-action set and the
/// per-task-class filter are refilled in place every step, so a
/// steady-state run allocates only when a buffer grows past its
/// high-water mark. Successors need no buffer: a step counts them and
/// then moves the state to the picked one in place
/// ([`Automaton::step_in_place`]).
#[derive(Default)]
struct Scratch {
    enabled: Vec<DlAction>,
    in_class: Vec<DlAction>,
    /// Capacity-growth events across both buffers; deterministic for a
    /// fixed run (Vec growth is), so it lands in the ledger as a counter
    /// rather than a gauge.
    refills: u64,
}

/// Online conformance state threaded through one run: a streaming
/// [`TraceMonitor`] fed every taken action, plus the first violation it
/// reported.
struct OnlineConformance {
    policy: ConformancePolicy,
    monitor: TraceMonitor,
    violation: Option<Violation>,
    /// Wall clock spent inside [`observe`](OnlineConformance::observe);
    /// always 0 without the `obs` feature.
    nanos: u64,
}

impl OnlineConformance {
    fn observe(&mut self, action: &DlAction) {
        let sw = dl_obs::Stopwatch::start();
        self.monitor.observe(action);
        if self.violation.is_none() {
            self.violation = if self.policy.monitor_pl {
                self.monitor
                    .online_violation(self.policy.full_dl, self.policy.fifo_channels)
                    .cloned()
            } else {
                self.monitor
                    .online_dl_violation(self.policy.full_dl)
                    .cloned()
            };
        }
        self.nanos += sw.elapsed_nanos();
    }
}

impl Runner {
    /// A runner with the given RNG seed and global step bound.
    #[must_use]
    pub fn new(seed: u64, max_steps: usize) -> Self {
        Runner {
            rng: StdRng::seed_from_u64(seed),
            next_uid: 1,
            max_steps,
            conformance: None,
            overrides: BTreeMap::new(),
            replay: None,
            record: false,
            decision_index: 0,
            taken: Vec::new(),
        }
    }

    /// Enables online conformance checking: every taken action is fed to a
    /// streaming [`TraceMonitor`], and the run aborts on the first
    /// conclusion-class safety violation (PL3/PL4, PL5 if
    /// `policy.fifo_channels`, DL4/DL5, DL6 if `policy.full_dl`), leaving
    /// the offending prefix in the report. Hypothesis failures
    /// (well-formedness, PL1/PL2, DL1–DL3) make the specification vacuous
    /// rather than violated, and end-of-trace properties (DL7, DL8) cannot
    /// be judged mid-run, so neither aborts; `policy.complete` and
    /// `policy.patience` are ignored online — judge the finished report
    /// with [`crate::conformance::judge`] for those.
    ///
    /// The monitor watches the full schedule (packet actions included), so
    /// a reported violation's `at` indexes into [`RunReport::schedule`].
    #[must_use]
    pub fn with_online_conformance(mut self, policy: ConformancePolicy) -> Self {
        self.conformance = Some(policy);
        self
    }

    /// Forces specific decisions by index: at decision `i` (counted from 0
    /// at the start of each run, across both [`DecisionPoint`]s), pick
    /// alternative `overrides[i] % arity` instead of drawing from the RNG.
    ///
    /// Overridden decisions consume **no** RNG state, so an override at
    /// index `i` also reshuffles every RNG-drawn decision after `i` — the
    /// run is a function of `(seed, overrides)`, which is exactly the
    /// genome shape the fuzzer mutates. Decisions not named stay
    /// RNG-driven.
    #[must_use]
    pub fn with_decision_overrides(mut self, overrides: BTreeMap<u64, u64>) -> Self {
        self.overrides = overrides;
        self
    }

    /// Replays a recorded decision sequence verbatim: decision `i` takes
    /// `decisions[i].pick % arity`, consuming no RNG state and ignoring
    /// overrides. Decisions past the end of the sequence fall back to the
    /// seeded RNG. Replaying the `decisions` of a recorded
    /// [`RunReport`] over the same system and script reproduces that
    /// run's execution byte-for-byte.
    #[must_use]
    pub fn with_decision_replay(mut self, decisions: Vec<Decision>) -> Self {
        self.replay = Some(decisions);
        self
    }

    /// Records every decision of subsequent runs into
    /// [`RunReport::decisions`]. Recording does not perturb the run.
    #[must_use]
    pub fn with_decision_recording(mut self) -> Self {
        self.record = true;
        self
    }

    /// Resolves one seeded choice among `arity` alternatives.
    ///
    /// The default path draws from the RNG unconditionally (even for
    /// `arity == 1`) so that runs without overrides or replay consume the
    /// exact RNG stream they always did — seeds stay stable across this
    /// feature.
    fn decide(&mut self, point: DecisionPoint, arity: usize) -> usize {
        debug_assert!(arity > 0, "decide() needs at least one alternative");
        let index = self.decision_index;
        self.decision_index += 1;
        let replayed = self
            .replay
            .as_ref()
            .and_then(|r| r.get(index as usize))
            .map(|d| d.pick % arity);
        let pick = match replayed {
            Some(p) => p,
            None => match self.overrides.get(&index) {
                Some(v) => (*v % arity as u64) as usize,
                None => self.rng.random_range(0..arity),
            },
        };
        if self.record {
            self.taken.push(Decision { point, arity, pick });
        }
        pick
    }

    /// Runs `system` from its first start state under `script`.
    ///
    /// # Panics
    ///
    /// Panics if a scripted injection is not an input of the system, or is
    /// not enabled (the system would not be input-enabled).
    pub fn run<M>(&mut self, system: &M, script: &crate::Script) -> RunReport<M::State>
    where
        M: Automaton<Action = DlAction>,
    {
        let start = system
            .start_states()
            .into_iter()
            .next()
            .expect("automaton has a start state");
        self.run_from(system, start, script)
    }

    /// Runs `system` from an explicit start state under `script`.
    ///
    /// Implemented on top of [`SessionStep`]: the runner is threaded
    /// through an incremental session which is driven to completion in
    /// one go, so a `run_from` call and an externally-stepped session are
    /// the same execution by construction (the interned-runner
    /// differential suite pins this byte-identically).
    ///
    /// # Panics
    ///
    /// Panics if a scripted injection is not an enabled input.
    pub fn run_from<M>(
        &mut self,
        system: &M,
        start: M::State,
        script: &crate::Script,
    ) -> RunReport<M::State>
    where
        M: Automaton<Action = DlAction>,
    {
        let runner = std::mem::replace(self, Runner::new(0, 0));
        let mut session: SessionStep<M, &M> =
            SessionStep::from_state(runner, system, start, script.clone());
        session.run_to_end();
        let (runner, report) = session.into_report();
        *self = runner;
        report
    }
}

/// How much of an execution a session retains.
///
/// A recording session keeps the full [`Execution`] (every action and
/// post-state) and can produce a [`RunReport`]; a lean session keeps only
/// the last state and a running length, which is what lets a fleet of
/// many thousands of sessions cost hundreds of bytes each instead of a
/// trace allocation storm. Both modes feed the same rolling schedule
/// digest, so lean runs remain comparable action-for-action against
/// recorded ones.
enum Trace<S> {
    /// Full execution retained (the [`Runner::run`] path).
    Full(Execution<DlAction, S>),
    /// Only the frontier: current state plus the number of steps taken.
    Tail { last: S, len: usize },
}

impl<S: Clone + Eq + std::fmt::Debug> Trace<S> {
    fn len(&self) -> usize {
        match self {
            Trace::Full(e) => e.len(),
            Trace::Tail { len, .. } => *len,
        }
    }

    fn last_state(&self) -> &S {
        match self {
            Trace::Full(e) => e.last_state(),
            Trace::Tail { last, .. } => last,
        }
    }

    /// Takes `action` with successor `pick`, which the caller has counted.
    /// A lean trace moves its one live state in place; a recording trace
    /// steps a clone of its last state and appends it.
    fn step<M>(&mut self, system: &M, action: DlAction, pick: usize)
    where
        M: Automaton<Action = DlAction, State = S>,
    {
        let stepped = match self {
            Trace::Full(e) => {
                let mut post = e.last_state().clone();
                let stepped = system.step_in_place(&mut post, &action, pick);
                e.push_unchecked(action, post);
                stepped
            }
            Trace::Tail { last, len } => {
                *len += 1;
                system.step_in_place(last, &action, pick)
            }
        };
        assert!(stepped, "successor {pick} of a counted step must exist");
    }
}

/// Mixes one action into a rolling schedule digest.
///
/// The per-action hash comes from the std `DefaultHasher` with its fixed
/// default keys, so digests are deterministic across processes of the
/// same build — two sessions have equal digests iff they took the same
/// action sequence (up to 64-bit collision), which is the comparison the
/// fleet-vs-runners differential suite rests on.
fn digest_action(digest: u64, action: &DlAction) -> u64 {
    use std::hash::BuildHasher;
    let hasher =
        std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
    let h = hasher.hash_one(action);
    let mut z = digest.rotate_left(17) ^ h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// Folds a complete schedule into the same rolling digest a
/// [`SessionStep`] maintains incrementally — the bridge the
/// fleet-vs-independent-runners differential suite uses to compare a lean
/// fleet session (which keeps only the digest) against a full
/// [`RunReport::schedule`].
#[must_use]
pub fn schedule_digest<'a, I>(actions: I) -> u64
where
    I: IntoIterator<Item = &'a DlAction>,
{
    actions.into_iter().fold(0, digest_action)
}

/// Where a session's cursor sits inside its script.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Cursor {
    /// About to process script step `i` (with, for an in-progress
    /// `Local` stretch, the remaining iteration budget).
    At {
        step: usize,
        local_left: Option<usize>,
    },
    /// The run is over: script consumed, budget exhausted at an
    /// injection, or aborted by the online monitor.
    Halted,
}

/// One resumable scripted run: the reusable session-stepping entry point
/// the fleet engine drives.
///
/// A `SessionStep` owns everything mutable about a run — the seeded
/// [`Runner`] (RNG stream, uid counter, decision log), the current state,
/// the script cursor, scratch buffers, metrics, and the optional online
/// conformance monitor — while the system itself is accessed through
/// [`Borrow`], so callers can either lend a shared system (`B = &M`, the
/// [`Runner::run_from`] path) or move a per-session copy in (`B = M`, the
/// `dl-fleet` path, where each session's channels carry session-derived
/// fault salts).
///
/// Driving a session to completion with [`SessionStep::run_to_end`] is
/// *the same execution* as `Runner::run_from` with the same runner,
/// system, start state, and script — `run_from` is implemented as exactly
/// that — so interleaving many sessions action-by-action (what a fleet
/// does) cannot perturb any individual run: sessions share no mutable
/// state, and each consumes only its own RNG stream.
pub struct SessionStep<M, B = M>
where
    M: Automaton<Action = DlAction>,
    B: std::borrow::Borrow<M>,
{
    runner: Runner,
    system: B,
    script: crate::Script,
    cursor: Cursor,
    trace: Trace<M::State>,
    digest: u64,
    metrics: Metrics,
    online: Option<OnlineConformance>,
    scratch: Scratch,
    next_task: usize,
    fully_ran: bool,
}

impl<M, B> SessionStep<M, B>
where
    M: Automaton<Action = DlAction>,
    B: std::borrow::Borrow<M>,
{
    /// A recording session from the system's first start state: the full
    /// execution is retained and [`SessionStep::into_report`] produces
    /// the usual [`RunReport`].
    ///
    /// # Panics
    ///
    /// Panics if the system has no start state.
    #[must_use]
    pub fn new(runner: Runner, system: B, script: crate::Script) -> Self {
        let start = system
            .borrow()
            .start_states()
            .into_iter()
            .next()
            .expect("automaton has a start state");
        Self::from_state(runner, system, start, script)
    }

    /// A recording session from an explicit start state.
    #[must_use]
    pub fn from_state(runner: Runner, system: B, start: M::State, script: crate::Script) -> Self {
        Self::build(runner, system, start, script, true)
    }

    /// A lean session from the system's first start state: only the
    /// current state is retained (no execution, no behavior), which is
    /// the fleet configuration — per-session cost stays in the hundreds
    /// of bytes regardless of run length. Verdicts still flow from the
    /// online monitor and the [`Metrics`]; the rolling
    /// [`SessionStep::digest`] stands in for the schedule.
    ///
    /// # Panics
    ///
    /// Panics if the system has no start state.
    #[must_use]
    pub fn lean(runner: Runner, system: B, script: crate::Script) -> Self {
        let start = system
            .borrow()
            .start_states()
            .into_iter()
            .next()
            .expect("automaton has a start state");
        Self::build(runner, system, start, script, false)
    }

    fn build(
        mut runner: Runner,
        system: B,
        start: M::State,
        script: crate::Script,
        retain: bool,
    ) -> Self {
        // Decision indexing (for overrides/replay) restarts with each run.
        runner.decision_index = 0;
        runner.taken.clear();
        let online = runner.conformance.map(|policy| OnlineConformance {
            policy,
            monitor: TraceMonitor::new(),
            violation: None,
            nanos: 0,
        });
        let trace = if retain {
            Trace::Full(Execution::new(start))
        } else {
            Trace::Tail {
                last: start,
                len: 0,
            }
        };
        SessionStep {
            runner,
            system,
            script,
            cursor: Cursor::At {
                step: 0,
                local_left: None,
            },
            trace,
            digest: 0,
            metrics: Metrics::default(),
            online,
            scratch: Scratch::default(),
            next_task: 0,
            fully_ran: true,
        }
    }

    /// Advances the session by exactly one taken action (skipping over
    /// script bookkeeping as needed); returns `false` once the run is
    /// over — script consumed, budget exhausted, or monitor-aborted.
    ///
    /// # Panics
    ///
    /// Panics if a scripted injection is not an enabled input of the
    /// system, exactly as [`Runner::run_from`] does.
    pub fn advance(&mut self) -> bool {
        loop {
            let Cursor::At { step, local_left } = self.cursor else {
                return false;
            };
            let view = match self.script.steps().get(step) {
                None => {
                    self.cursor = Cursor::Halted;
                    return false;
                }
                Some(s) => s.clone(),
            };
            let Self {
                runner,
                system,
                trace,
                digest,
                metrics,
                online,
                scratch,
                next_task,
                ..
            } = self;
            let system: &M = (*system).borrow();
            let tripped = |online: &Option<OnlineConformance>| {
                online.as_ref().is_some_and(|o| o.violation.is_some())
            };
            match view {
                crate::ScriptStep::Inject(a) => {
                    assert_eq!(
                        system.classify(&a),
                        Some(ActionClass::Input),
                        "scripted action {a} is not an input of the system"
                    );
                    if trace.len() >= runner.max_steps {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                        return false;
                    }
                    let ok = take(runner, system, trace, digest, a, metrics, online);
                    assert!(ok, "input {a} was not enabled: system is not input-enabled");
                    self.cursor = Cursor::At {
                        step: step + 1,
                        local_left: None,
                    };
                    if tripped(online) {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                    }
                    return true;
                }
                crate::ScriptStep::Local(n) => {
                    let left = local_left.unwrap_or(n);
                    if left == 0
                        || trace.len() >= runner.max_steps
                        || !fair_local_step(
                            runner, system, trace, digest, next_task, metrics, online, scratch,
                        )
                    {
                        self.cursor = Cursor::At {
                            step: step + 1,
                            local_left: None,
                        };
                        continue;
                    }
                    self.cursor = Cursor::At {
                        step,
                        local_left: Some(left - 1),
                    };
                    if tripped(online) {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                    }
                    return true;
                }
                crate::ScriptStep::Settle => {
                    if trace.len() >= runner.max_steps {
                        self.fully_ran = false;
                        self.cursor = Cursor::At {
                            step: step + 1,
                            local_left: None,
                        };
                        continue;
                    }
                    if !fair_local_step(
                        runner, system, trace, digest, next_task, metrics, online, scratch,
                    ) {
                        self.cursor = Cursor::At {
                            step: step + 1,
                            local_left: None,
                        };
                        continue;
                    }
                    if tripped(online) {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                    }
                    return true;
                }
            }
        }
    }

    /// Takes up to `budget` actions; returns how many were actually taken
    /// (fewer when the run ends first). The fleet's round-robin batch
    /// quantum.
    pub fn advance_batch(&mut self, budget: usize) -> usize {
        let mut taken = 0;
        while taken < budget && self.advance() {
            taken += 1;
        }
        taken
    }

    /// Drives the session to completion.
    pub fn run_to_end(&mut self) {
        while self.advance() {}
    }

    /// `true` once the run is over (no further [`SessionStep::advance`]
    /// will take an action).
    #[must_use]
    pub fn is_done(&self) -> bool {
        match self.cursor {
            Cursor::Halted => true,
            Cursor::At { step, .. } => step >= self.script.steps().len(),
        }
    }

    /// Actions taken so far.
    #[must_use]
    pub fn steps_taken(&self) -> usize {
        self.trace.len()
    }

    /// The rolling schedule digest: a deterministic 64-bit fold of every
    /// taken action, equal across two sessions iff they took the same
    /// action sequence (modulo hash collisions).
    #[must_use]
    pub fn digest(&self) -> u64 {
        self.digest
    }

    /// Counters so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// First online conformance violation, when monitoring is on.
    #[must_use]
    pub fn online_violation(&self) -> Option<&Violation> {
        self.online.as_ref().and_then(|o| o.violation.as_ref())
    }

    /// The streaming trace monitor, when the session's runner was built
    /// with [`Runner::with_online_conformance`] — the fleet reads final
    /// complete-trace verdicts (DL8) from here without retaining the
    /// trace.
    #[must_use]
    pub fn monitor(&self) -> Option<&TraceMonitor> {
        self.online.as_ref().map(|o| &o.monitor)
    }

    /// Scratch-buffer capacity growths so far (see
    /// [`RunReport::scratch_refills`]).
    #[must_use]
    pub fn scratch_refills(&self) -> u64 {
        self.scratch.refills
    }

    /// `true` if the run ended quiescent with the script fully consumed.
    /// Meaningful once [`SessionStep::is_done`]; mid-run it reports on
    /// the prefix so far.
    #[must_use]
    pub fn quiescent(&self) -> bool {
        self.fully_ran
            && !self
                .system
                .borrow()
                .has_enabled_local(self.trace.last_state())
    }

    /// An estimate of this session's resident footprint in bytes: the
    /// struct itself plus every reachable heap buffer (scratch
    /// capacities, script steps, metrics queues, decision log). The
    /// conformance monitor's tables are accounted separately by
    /// [`SessionStep::monitor_bytes`] — they scale with the *observed
    /// trace's* value population, not with the session core, and the
    /// fleet reports the two peaks independently.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let scratch = (self.scratch.enabled.capacity() + self.scratch.in_class.capacity())
            * size_of::<DlAction>();
        let script = std::mem::size_of_val(self.script.steps());
        let metrics = self.metrics.latencies.capacity() * size_of::<u64>()
            + self.metrics.send_step.len() * (size_of::<dl_core::action::Msg>() + 32)
            + self.metrics.headers_used.len() * size_of::<Header>();
        let decisions = self.runner.taken.capacity() * size_of::<Decision>();
        let trace = match &self.trace {
            Trace::Full(e) => e.len() * (size_of::<DlAction>() + size_of::<M::State>()),
            Trace::Tail { .. } => 0,
        };
        (size_of::<Self>() + scratch + script + metrics + decisions + trace) as u64
    }

    /// The online conformance monitor's estimated footprint in bytes
    /// ([`TraceMonitor::approx_bytes`]): interned value tables, SoA
    /// per-value columns, and the transit slot arena. 0 when the session
    /// runs unmonitored. Distinct-value tables grow with the observed
    /// trace (PL2 obliges the monitor to remember every sent value);
    /// the transit arena is bounded by *peak live* in-transit packets.
    #[must_use]
    pub fn monitor_bytes(&self) -> u64 {
        self.online
            .as_ref()
            .map_or(0, |o| o.monitor.approx_bytes() as u64)
    }

    /// Tears a *recording* session down into its runner and the standard
    /// [`RunReport`].
    ///
    /// # Panics
    ///
    /// Panics on a lean session — there is no retained execution to
    /// report. Use the accessor methods
    /// ([`SessionStep::metrics`], [`SessionStep::online_violation`],
    /// [`SessionStep::digest`], …) instead.
    #[must_use]
    pub fn into_report(self) -> (Runner, RunReport<M::State>) {
        let quiescent = self.quiescent();
        let exec = match self.trace {
            Trace::Full(e) => e,
            Trace::Tail { .. } => panic!("lean sessions retain no execution to report"),
        };
        let behavior = ioa::execution::behavior_of_schedule(self.system.borrow(), &exec.schedule());
        let mut runner = self.runner;
        let report = RunReport {
            execution: exec,
            behavior,
            quiescent,
            metrics: self.metrics,
            online_violation: self.online.as_ref().and_then(|o| o.violation.clone()),
            decisions: runner.record.then(|| std::mem::take(&mut runner.taken)),
            monitor_nanos: self.online.map_or(0, |o| o.nanos),
            scratch_refills: self.scratch.refills,
        };
        (runner, report)
    }

    /// Tears any session down into its runner (RNG stream and uid counter
    /// intact, for reuse across runs).
    #[must_use]
    pub fn into_runner(self) -> Runner {
        self.runner
    }
}

/// Takes one fair locally-controlled step; returns `false` if none is
/// enabled. Free-standing so [`SessionStep::advance`] can borrow its
/// fields disjointly.
#[allow(clippy::too_many_arguments)]
fn fair_local_step<M>(
    runner: &mut Runner,
    system: &M,
    trace: &mut Trace<M::State>,
    digest: &mut u64,
    next_task: &mut usize,
    metrics: &mut Metrics,
    online: &mut Option<OnlineConformance>,
    scratch: &mut Scratch,
) -> bool
where
    M: Automaton<Action = DlAction>,
{
    scratch.enabled.clear();
    let cap = scratch.enabled.capacity();
    let _ = system.for_each_enabled_local(trace.last_state(), &mut |a| {
        scratch.enabled.push(a);
        std::ops::ControlFlow::Continue(())
    });
    scratch.refills += u64::from(scratch.enabled.capacity() != cap);
    if scratch.enabled.is_empty() {
        return false;
    }
    let tasks = system.task_count().max(1);
    for offset in 0..tasks {
        let t = TaskId((*next_task + offset) % tasks);
        scratch.in_class.clear();
        let cap = scratch.in_class.capacity();
        scratch.in_class.extend(
            scratch
                .enabled
                .iter()
                .filter(|a| system.task_of(a) == t)
                .copied(),
        );
        scratch.refills += u64::from(scratch.in_class.capacity() != cap);
        if scratch.in_class.is_empty() {
            continue;
        }
        let pick = runner.decide(DecisionPoint::Action, scratch.in_class.len());
        let action = scratch.in_class[pick];
        let took = take(runner, system, trace, digest, action, metrics, online);
        debug_assert!(took, "enabled_local returned a disabled action");
        *next_task = (*next_task + offset + 1) % tasks;
        return took;
    }
    false
}

/// Takes `action`, stamping a fresh uid if it is an unstamped `send_pkt`,
/// and resolving successor nondeterminism with the seeded RNG: count the
/// successors, draw one, step to it in place.
fn take<M>(
    runner: &mut Runner,
    system: &M,
    trace: &mut Trace<M::State>,
    digest: &mut u64,
    mut action: DlAction,
    metrics: &mut Metrics,
    online: &mut Option<OnlineConformance>,
) -> bool
where
    M: Automaton<Action = DlAction>,
{
    if let DlAction::SendPkt(_, p) = &action {
        if p.uid == Packet::UNSTAMPED {
            action = action.with_packet_uid(runner.next_uid);
            runner.next_uid += 1;
        }
    }
    let n = system.successor_count(trace.last_state(), &action);
    if n == 0 {
        return false;
    }
    let pick = runner.decide(DecisionPoint::Successor, n);
    metrics.record(&action);
    if let Some(o) = online {
        o.observe(&action);
    }
    *digest = digest_action(*digest, &action);
    trace.step(system, action, pick);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::script::Script;
    use crate::system::link_system;
    use dl_channels::simulated::{LossMode, LossyFifoChannel};
    use dl_core::spec::datalink::DlModule;
    use dl_core::spec::physical::PlModule;
    use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

    fn abp_system(
        mode: LossMode,
    ) -> crate::system::LinkSystem<
        dl_protocols::AbpTransmitter,
        dl_protocols::AbpReceiver,
        LossyFifoChannel,
        LossyFifoChannel,
    > {
        let p = dl_protocols::abp::protocol();
        link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, mode),
            LossyFifoChannel::new(Dir::RT, mode),
        )
    }

    #[test]
    fn abp_delivers_over_perfect_channels() {
        let sys = abp_system(LossMode::None);
        let mut runner = Runner::new(1, 100_000);
        let report = runner.run(&sys, &Script::deliver_n(10));
        assert!(report.quiescent);
        assert_eq!(report.metrics.msgs_sent, 10);
        assert_eq!(report.metrics.msgs_received, 10);
        // Behavior satisfies the full DL spec on the complete trace.
        assert_eq!(
            DlModule::full().check(&report.behavior, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn abp_delivers_despite_nondet_loss() {
        let sys = abp_system(LossMode::Nondet);
        let mut runner = Runner::new(7, 200_000);
        let report = runner.run(&sys, &Script::deliver_n(5));
        assert!(report.quiescent, "run did not quiesce");
        assert_eq!(report.metrics.msgs_received, 5);
        assert_eq!(
            DlModule::full().check(&report.behavior, TraceKind::Complete),
            Verdict::Satisfied
        );
        // Losses forced retransmissions: more data packets than messages.
        assert!(report.metrics.pkts_sent[0] > 5);
        assert!(report.metrics.overhead().unwrap() > 1.0);
    }

    #[test]
    fn stamped_schedule_satisfies_physical_spec() {
        let sys = abp_system(LossMode::Nondet);
        let mut runner = Runner::new(3, 200_000);
        let report = runner.run(&sys, &Script::deliver_n(5));
        let sched = report.schedule();
        for dir in Dir::BOTH {
            let v = PlModule::pl_fifo(dir).check(&sched, TraceKind::Complete);
            assert!(
                matches!(v, Verdict::Satisfied),
                "PL-FIFO^{dir} verdict: {v:?}"
            );
        }
    }

    #[test]
    fn abp_header_usage_is_bounded() {
        let sys = abp_system(LossMode::None);
        let mut runner = Runner::new(1, 100_000);
        let report = runner.run(&sys, &Script::deliver_n(20));
        assert!(report.metrics.headers_used.len() <= 4);
    }

    #[test]
    fn stenning_headers_grow_linearly() {
        let p = dl_protocols::stenning::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        let mut runner = Runner::new(1, 100_000);
        let report = runner.run(&sys, &Script::deliver_n(15));
        assert!(report.quiescent);
        // 15 data headers + ack headers.
        let data_headers = report
            .metrics
            .headers_used
            .iter()
            .filter(|h| h.tag == dl_core::action::Tag::Data)
            .count();
        assert_eq!(data_headers, 15);
    }

    #[test]
    fn sliding_window_delivers_with_loss() {
        let p = dl_protocols::sliding_window::protocol(4);
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::new(Dir::TR, LossMode::EveryNth(3)),
            LossyFifoChannel::new(Dir::RT, LossMode::EveryNth(5)),
        );
        let mut runner = Runner::new(11, 500_000);
        let report = runner.run(&sys, &Script::deliver_n(25));
        assert!(report.quiescent);
        assert_eq!(report.metrics.msgs_received, 25);
        assert_eq!(
            DlModule::full().check(&report.behavior, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn nonvolatile_protocol_survives_crashes() {
        let p = dl_protocols::nonvolatile::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 3)
            .settle()
            .crash_and_rewake(dl_core::action::Station::T)
            .send_msgs(10, 3)
            .settle()
            .crash_and_rewake(dl_core::action::Station::R)
            .send_msgs(20, 3)
            .settle();
        let mut runner = Runner::new(5, 500_000);
        let report = runner.run(&sys, &script);
        assert!(report.quiescent);
        // Safety (DL4, DL5) holds despite the crashes.
        let v = DlModule::weak().check(&report.behavior, TraceKind::Prefix);
        assert!(v.is_allowed(), "WDL safety violated: {v:?}");
        assert_eq!(report.metrics.crashes, 2);
        // All nine messages were delivered (crashes happened while idle).
        assert_eq!(report.metrics.msgs_received, 9);
    }

    #[test]
    fn abp_violates_safety_under_transmitter_crash() {
        // The scenario Theorem 7.5 predicts: crash the transmitter while
        // its message is unacknowledged; the retransmitted old packet and
        // the fresh one collide.
        let p = dl_protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        // Send m0; let only the data packet fly (no ack processed); crash;
        // send m1 — the receiver has flipped its bit, so DATA#0(m1) is
        // treated as a duplicate... or worse, depending on interleaving.
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 1)
            .local(3) // t sends DATA#0, channel delivers, r delivers m0
            .crash_and_rewake(dl_core::action::Station::T)
            .send_msgs(1, 1)
            .settle();
        let mut runner = Runner::new(2, 100_000);
        let report = runner.run(&sys, &script);
        // m1 is stamped DATA#0 but the receiver expects bit 1: it is
        // swallowed as a duplicate and never delivered, while the stale ack
        // stream keeps flowing — on a complete trace this shows up as a
        // DL8 (or DL4/DL5) violation.
        let v = DlModule::weak().check(&report.behavior, TraceKind::Complete);
        assert!(
            !v.is_allowed(),
            "expected a WDL violation after the crash, got {v:?}\nbehavior:\n{}",
            dl_core::action::format_trace(&report.behavior)
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let sys = abp_system(LossMode::Nondet);
        let a = Runner::new(9, 100_000).run(&sys, &Script::deliver_n(5));
        let b = Runner::new(9, 100_000).run(&sys, &Script::deliver_n(5));
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn metrics_are_none_when_nothing_delivered() {
        let m = Metrics::default();
        assert_eq!(m.overhead(), None);
        assert_eq!(m.mean_latency(), None);
        assert_eq!(m.pending_messages(), 0);
    }

    #[test]
    fn crash_mid_message_yields_no_latency_not_nan() {
        // ABP: send m0 but crash the transmitter before any packet flies.
        // Nothing is ever delivered, so the latency/overhead statistics
        // must be absent (`None`), never NaN or a division by zero, and the
        // stranded message shows up as pending.
        let p = dl_protocols::abp::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            LossyFifoChannel::perfect(Dir::TR),
            LossyFifoChannel::perfect(Dir::RT),
        );
        let script = Script::new()
            .wake_both()
            .send_msgs(0, 1)
            .crash_and_rewake(dl_core::action::Station::T)
            .settle();
        let report = Runner::new(3, 100_000).run(&sys, &script);
        assert_eq!(report.metrics.msgs_sent, 1);
        assert_eq!(report.metrics.msgs_received, 0);
        assert_eq!(report.metrics.mean_latency(), None);
        assert_eq!(report.metrics.overhead(), None);
        assert_eq!(report.metrics.pending_messages(), 1);
    }

    /// A deliberately broken "data link" that delivers every accepted
    /// message twice — a DL4 violation the online monitor must catch.
    #[derive(Debug, Clone)]
    struct DoubleDeliver;

    type DoubleDeliverState = (Option<dl_core::action::Msg>, u8);

    impl Automaton for DoubleDeliver {
        type Action = DlAction;
        type State = DoubleDeliverState;

        fn start_states(&self) -> Vec<Self::State> {
            vec![(None, 0)]
        }

        fn classify(&self, action: &DlAction) -> Option<ActionClass> {
            match action {
                DlAction::ReceiveMsg(_) => Some(ActionClass::Output),
                DlAction::SendPkt(..) | DlAction::ReceivePkt(..) | DlAction::Internal(..) => None,
                _ => Some(ActionClass::Input),
            }
        }

        fn successors(&self, state: &Self::State, action: &DlAction) -> Vec<Self::State> {
            match action {
                DlAction::SendMsg(m) if state.0.is_none() => vec![(Some(*m), 0)],
                DlAction::ReceiveMsg(m) if state.0 == Some(*m) && state.1 < 2 => {
                    vec![(state.0, state.1 + 1)]
                }
                DlAction::ReceiveMsg(_) => vec![],
                // Ignore every other input (stay input-enabled).
                _ => vec![*state],
            }
        }

        fn enabled_local(&self, state: &Self::State) -> Vec<DlAction> {
            match state {
                (Some(m), n) if *n < 2 => vec![DlAction::ReceiveMsg(*m)],
                _ => vec![],
            }
        }

        fn task_of(&self, _action: &DlAction) -> TaskId {
            TaskId(0)
        }

        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn online_monitor_aborts_on_first_violation() {
        let script = Script::new().wake_both().send_msgs(0, 1).settle();

        // Without online conformance the broken system happily double-
        // delivers and quiesces.
        let report = Runner::new(1, 1_000).run(&DoubleDeliver, &script);
        assert!(report.quiescent);
        assert!(report.online_violation.is_none());
        let sched = report.schedule();
        assert_eq!(
            DlModule::weak()
                .check(&sched, TraceKind::Prefix)
                .violation()
                .unwrap()
                .property,
            "DL4"
        );

        // With it, the run aborts right at the duplicate delivery: the
        // offending action is the last of the schedule, and the batch
        // verdict on that prefix agrees with the online one.
        let report = Runner::new(1, 1_000)
            .with_online_conformance(crate::conformance::ConformancePolicy::default())
            .run(&DoubleDeliver, &script);
        let v = report.online_violation.as_ref().expect("online DL4");
        assert_eq!(v.property, "DL4");
        assert!(!report.quiescent);
        let sched = report.schedule();
        assert_eq!(v.at, Some(sched.len() - 1));
        assert_eq!(
            DlModule::weak().check(&sched, TraceKind::Prefix),
            Verdict::Violated(v.clone())
        );
    }

    #[test]
    fn online_monitor_is_quiet_on_clean_runs() {
        let sys = abp_system(LossMode::Nondet);
        let mut plain = Runner::new(7, 200_000);
        let mut monitored = Runner::new(7, 200_000)
            .with_online_conformance(crate::conformance::ConformancePolicy::default());
        let a = plain.run(&sys, &Script::deliver_n(5));
        let b = monitored.run(&sys, &Script::deliver_n(5));
        assert!(b.online_violation.is_none());
        assert!(b.quiescent);
        // Monitoring does not perturb the run itself.
        assert_eq!(a.schedule(), b.schedule());
        assert_eq!(a.metrics, b.metrics);
    }

    #[test]
    fn latency_is_tracked_per_message() {
        let sys = abp_system(LossMode::None);
        let mut runner = Runner::new(1, 100_000);
        let report = runner.run(&sys, &Script::deliver_n(5));
        assert_eq!(report.metrics.latencies.len(), 5);
        // Every delivery strictly follows its send.
        assert!(report.metrics.latencies.iter().all(|&l| l >= 1));
        let mean = report.metrics.mean_latency().unwrap();
        assert!(mean >= 1.0);
    }

    #[test]
    fn resent_value_latency_uses_multiset_semantics() {
        // Two sends of the same value at different steps, two deliveries:
        // each delivery must match the *earliest unmatched* send, yielding
        // two latency samples — not one sample anchored at the first send
        // with the second send silently dropped (the old `or_insert` bug).
        let mut m = Metrics::default();
        let v = dl_core::action::Msg(42);
        m.record(&DlAction::SendMsg(v)); // step 1
        m.record(&DlAction::Wake(Dir::TR)); // step 2
        m.record(&DlAction::SendMsg(v)); // step 3
        assert_eq!(m.pending_messages(), 2);
        m.record(&DlAction::ReceiveMsg(v)); // step 4: matches send@1
        m.record(&DlAction::ReceiveMsg(v)); // step 5: matches send@3
        assert_eq!(m.latencies, vec![3, 2]);
        assert_eq!(m.pending_messages(), 0);
        // A further delivery with no matching send records no latency.
        m.record(&DlAction::ReceiveMsg(v));
        assert_eq!(m.latencies.len(), 2);
        assert_eq!(m.msgs_received, 3);
    }

    #[test]
    fn recorded_decisions_replay_byte_identically() {
        let sys = abp_system(LossMode::Nondet);
        let script = Script::deliver_n(5);
        let recorded = Runner::new(21, 200_000)
            .with_decision_recording()
            .run(&sys, &script);
        let decisions = recorded.decisions.clone().expect("recording on");
        assert!(!decisions.is_empty());
        assert!(decisions.iter().all(|d| d.pick < d.arity));
        // A replaying runner with a *different* seed reproduces the run.
        let replayed = Runner::new(999, 200_000)
            .with_decision_replay(decisions)
            .run(&sys, &script);
        assert_eq!(recorded.schedule(), replayed.schedule());
        assert_eq!(recorded.metrics, replayed.metrics);
        // Recording does not perturb the run itself.
        let plain = Runner::new(21, 200_000).run(&sys, &script);
        assert_eq!(plain.schedule(), recorded.schedule());
        assert!(plain.decisions.is_none());
    }

    #[test]
    fn decision_overrides_steer_the_run() {
        let sys = abp_system(LossMode::Nondet);
        let script = Script::deliver_n(3);
        let baseline = Runner::new(5, 200_000)
            .with_decision_recording()
            .run(&sys, &script);
        // Flip the first successor decision with arity > 1 (a loss-vs-keep
        // resolution of the nondeterministic channel).
        let decisions = baseline.decisions.as_ref().unwrap();
        let (idx, d) = decisions
            .iter()
            .enumerate()
            .find(|(_, d)| d.point == DecisionPoint::Successor && d.arity > 1)
            .expect("nondet channel produces successor choices");
        let forced = (d.pick + 1) % d.arity;
        let overrides = BTreeMap::from([(idx as u64, forced as u64)]);
        let steered = Runner::new(5, 200_000)
            .with_decision_overrides(overrides.clone())
            .with_decision_recording()
            .run(&sys, &script);
        assert_eq!(steered.decisions.as_ref().unwrap()[idx].pick, forced);
        assert_ne!(baseline.schedule(), steered.schedule());
        // Same (seed, overrides) genome → same run.
        let again = Runner::new(5, 200_000)
            .with_decision_overrides(overrides)
            .run(&sys, &script);
        assert_eq!(steered.schedule(), again.schedule());
    }

    #[test]
    fn step_bound_prevents_runaway() {
        let sys = abp_system(LossMode::None);
        let mut runner = Runner::new(1, 10);
        let report = runner.run(&sys, &Script::deliver_n(100));
        assert!(!report.quiescent);
        assert!(report.metrics.steps <= 10);
    }
}
