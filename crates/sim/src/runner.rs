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
    /// Counts one taken action: `steps` is its 1-based index, and a
    /// `receive_msg` is matched to the earliest unmatched `send_msg` of
    /// its value for the latency sample. Folded over a schedule, this is
    /// [`RunReport::metrics`]; a session keeps no `Metrics`, so an
    /// engine that reads them folds this over the actions
    /// [`SessionStep::step`] returns.
    pub fn record(&mut self, a: &DlAction) {
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

    /// An estimate of the heap bytes behind these counters: latency
    /// sample capacity, one entry per in-flight message value, and one
    /// per distinct header. Excludes `size_of::<Metrics>()` itself.
    #[must_use]
    pub fn heap_bytes(&self) -> u64 {
        use std::mem::size_of;
        (self.latencies.capacity() * size_of::<u64>()
            + self.send_step.len() * (size_of::<dl_core::action::Msg>() + 32)
            + self.headers_used.len() * size_of::<Header>()) as u64
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
    /// How many times the reusable scratch buffer (the scheduled task
    /// class) outgrew its capacity and reallocated — the steady-state
    /// target is a handful of warm-up growths and then zero.
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

/// Reusable per-run buffer: the scheduled task class is refilled in
/// place every step, so a steady-state run allocates only when it grows
/// past its high-water mark. Successors need no buffer: a step counts
/// them and moves the state to the picked one in place
/// ([`Automaton::step_chosen`]).
#[derive(Default)]
struct Scratch {
    in_class: Vec<DlAction>,
    /// Capacity-growth events of the buffer; deterministic for a fixed
    /// run (Vec growth is), so it lands in the ledger as a counter rather
    /// than a gauge.
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
    /// be judged mid-run, so neither aborts.
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

    /// Runs `system` from its start state under `script`.
    ///
    /// A recording run keeps every post-state, so its memory grows with
    /// its length times its states' size; a long run belongs in a
    /// [`SessionStep`], watched through [`SessionStep::step`].
    ///
    /// # Panics
    ///
    /// Panics if a scripted injection is not an input of the system, or is
    /// not enabled (the system would not be input-enabled).
    pub fn run<M>(&mut self, system: &M, script: &crate::Script) -> RunReport<M::State>
    where
        M: Automaton<Action = DlAction>,
    {
        self.run_from(system, system.start_state(), script)
    }

    /// Runs `system` from an explicit start state under `script`, and
    /// records it.
    ///
    /// The run is a [`SessionStep`] driven to its end: the recorder
    /// watches each action [`SessionStep::step`] takes and the
    /// [`SessionStep::state`] it leaves, so a `run_from` call and an
    /// externally-stepped session are the same execution by construction
    /// (the interned-runner differential suite pins this byte-identically).
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
        let mut execution = Execution::new(start.clone());
        let mut behavior = Vec::new();
        let mut metrics = Metrics::default();
        let mut session: SessionStep<M, &M> =
            SessionStep::new(runner, system, start, script.clone());
        while let Some(a) = session.step() {
            metrics.record(&a);
            if system.classify(&a).is_some_and(ActionClass::is_external) {
                behavior.push(a);
            }
            execution.push_unchecked(a, session.state().clone());
        }
        let quiescent = session.quiescent();
        let SessionStep {
            mut runner,
            online,
            scratch,
            ..
        } = session;
        let report = RunReport {
            execution,
            behavior,
            quiescent,
            metrics,
            online_violation: online.as_ref().and_then(|o| o.violation.clone()),
            decisions: runner.record.then(|| std::mem::take(&mut runner.taken)),
            monitor_nanos: online.map_or(0, |o| o.nanos),
            scratch_refills: scratch.refills,
        };
        *self = runner;
        report
    }
}

/// Mixes one action into a rolling schedule digest (start from 0).
///
/// The per-action hash comes from the std `DefaultHasher` with its fixed
/// default keys, so digests are deterministic across processes of the
/// same build — two sessions have equal digests iff they took the same
/// action sequence (up to 64-bit collision), which is the comparison the
/// fleet-vs-runners differential suite rests on. `dl-fleet` folds it over
/// the actions a session takes; [`schedule_digest`] folds it over a
/// recorded schedule.
#[must_use]
pub fn digest_action(digest: u64, action: &DlAction) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut bytes = HashBytes {
        buf: [0; 64],
        len: 0,
    };
    action.hash(&mut bytes);
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    hasher.write(&bytes.buf[..bytes.len]);
    let h = hasher.finish();
    let mut z = digest.rotate_left(17) ^ h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z ^ (z >> 31)
}

/// The bytes `DlAction::hash` feeds its hasher, collected on the stack.
/// SipHash digests a byte stream however it is split into writes, so one
/// `write` of these bytes hashes as the per-field writes do, minus the
/// per-write overhead. 64 bytes hold the largest action: a `send_pkt`
/// hashes seven 8-byte words.
struct HashBytes {
    buf: [u8; 64],
    len: usize,
}

impl std::hash::Hasher for HashBytes {
    fn write(&mut self, bytes: &[u8]) {
        self.buf[self.len..self.len + bytes.len()].copy_from_slice(bytes);
        self.len += bytes.len();
    }

    fn finish(&self) -> u64 {
        unreachable!("HashBytes only collects bytes for another hasher")
    }
}

/// Folds a complete schedule into the rolling digest: [`digest_action`]
/// from 0 — the bridge the fleet-vs-independent-runners differential
/// suite uses to compare a fleet session (whose digest the fleet
/// folds as it steps) against a full [`RunReport::schedule`].
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

/// One resumable scripted run: the session-stepping entry point the
/// fleet engine, the fuzzer and [`Runner::run_from`] drive.
///
/// A `SessionStep` owns everything mutable about a run — the seeded
/// [`Runner`] (RNG stream, uid counter, decision log), the live state
/// and a step count, the script cursor, scratch buffers, and the
/// optional online conformance monitor — while the system itself is
/// accessed through [`Borrow`](std::borrow::Borrow), so callers can either
/// lend a shared system (`B = &M`, the [`Runner::run_from`] and `dl-fuzz`
/// path) or move a per-session copy in (`B = M`, the `dl-fleet` path,
/// where each session's channels carry session-derived fault salts).
///
/// A session keeps one live state, stepped in place, and nothing of the
/// run behind it, which is what lets a fleet of many thousands of
/// sessions cost about 2.3 KB each (the `dl-fleet` ledger's measured
/// peak). It keeps no schedule digest and no [`Metrics`] either: each
/// engine folds what it reads over the actions [`SessionStep::step`]
/// returns ([`digest_action`] and [`Metrics::record`] in `dl-fleet`,
/// three counters in `dl-fuzz`, the whole [`RunReport`] in
/// [`Runner::run_from`]). Interleaving many sessions action by action
/// (what a fleet does) cannot perturb any individual run: sessions share
/// no mutable state, and each consumes only its own RNG stream.
pub struct SessionStep<M, B = M>
where
    M: Automaton<Action = DlAction>,
    B: std::borrow::Borrow<M>,
{
    runner: Runner,
    system: B,
    script: crate::Script,
    cursor: Cursor,
    /// The post-state of the last action taken (the start state before
    /// the first).
    state: M::State,
    /// Actions taken so far.
    len: usize,
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
    /// A session of `system` from `start` under `script`. The start state
    /// is the caller's: [`Automaton::start_state`] for an honest run, or
    /// any other state of the system, such as a corrupted configuration.
    ///
    /// Building allocates nothing when `start` is built without
    /// allocating and the online monitor, if any, is data-link-only: the
    /// script is shared, not copied.
    #[must_use]
    pub fn new(mut runner: Runner, system: B, start: M::State, script: crate::Script) -> Self {
        // Decision indexing (for overrides/replay) restarts with each run.
        runner.decision_index = 0;
        runner.taken.clear();
        // A run that judges only the data link never reads packet state.
        let online = runner.conformance.map(|policy| OnlineConformance {
            policy,
            monitor: if policy.monitor_pl {
                TraceMonitor::new()
            } else {
                TraceMonitor::data_link_only()
            },
            violation: None,
            nanos: 0,
        });
        SessionStep {
            runner,
            system,
            script,
            cursor: Cursor::At {
                step: 0,
                local_left: None,
            },
            state: start,
            len: 0,
            online,
            scratch: Scratch::default(),
            next_task: 0,
            fully_ran: true,
        }
    }

    /// Takes exactly one action (skipping over script bookkeeping as
    /// needed) and returns it as taken (a `send_pkt` carries its stamped
    /// uid); `None` once the run is over — script consumed, budget
    /// exhausted, or monitor-aborted. Right after the call,
    /// [`SessionStep::state`] is that action's post-state and the online
    /// monitor has judged it, so an engine watches a session action by
    /// action.
    ///
    /// # Panics
    ///
    /// Panics if a scripted injection is not an enabled input of the
    /// system, exactly as [`Runner::run_from`] does.
    pub fn step(&mut self) -> Option<DlAction> {
        loop {
            let Cursor::At { step, local_left } = self.cursor else {
                return None;
            };
            let view = match self.script.steps().get(step) {
                None => {
                    self.cursor = Cursor::Halted;
                    return None;
                }
                Some(s) => s.clone(),
            };
            let Self {
                runner,
                system,
                state,
                len,
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
                    if *len >= runner.max_steps {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                        return None;
                    }
                    let taken = take(runner, system, state, len, a, online);
                    assert!(
                        taken.is_some(),
                        "input {a} was not enabled: system is not input-enabled"
                    );
                    self.cursor = Cursor::At {
                        step: step + 1,
                        local_left: None,
                    };
                    if tripped(online) {
                        self.fully_ran = false;
                        self.cursor = Cursor::Halted;
                    }
                    return taken;
                }
                crate::ScriptStep::Local(n) => {
                    let left = local_left.unwrap_or(n);
                    let taken = if left == 0 || *len >= runner.max_steps {
                        None
                    } else {
                        fair_local_step(runner, system, state, len, next_task, online, scratch)
                    };
                    if taken.is_none() {
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
                    return taken;
                }
                crate::ScriptStep::Settle => {
                    if *len >= runner.max_steps {
                        self.fully_ran = false;
                        self.cursor = Cursor::At {
                            step: step + 1,
                            local_left: None,
                        };
                        continue;
                    }
                    let taken =
                        fair_local_step(runner, system, state, len, next_task, online, scratch);
                    if taken.is_none() {
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
                    return taken;
                }
            }
        }
    }

    /// `true` once the run is over (no further [`SessionStep::step`]
    /// will take an action).
    #[must_use]
    pub fn is_done(&self) -> bool {
        match self.cursor {
            Cursor::Halted => true,
            Cursor::At { step, .. } => step >= self.script.steps().len(),
        }
    }

    /// The live state: the post-state of the last action taken (the
    /// start state before the first).
    #[must_use]
    pub fn state(&self) -> &M::State {
        &self.state
    }

    /// The system this session runs.
    #[must_use]
    pub fn system(&self) -> &M {
        self.system.borrow()
    }

    /// First online conformance violation, when monitoring is on.
    #[must_use]
    pub fn online_violation(&self) -> Option<&Violation> {
        self.online.as_ref().and_then(|o| o.violation.as_ref())
    }

    /// The streaming trace monitor, when the session's runner was built
    /// with [`Runner::with_online_conformance`] — the fleet reads final
    /// complete-trace verdicts (DL8) from here without retaining the
    /// trace. Under a policy with `monitor_pl = false` it is a
    /// [`TraceMonitor::data_link_only`] monitor, whose physical-layer
    /// queries panic.
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
        self.fully_ran && !self.system.borrow().has_enabled_local(&self.state)
    }

    /// An estimate of this session's resident footprint in bytes: the
    /// struct itself plus every reachable heap buffer (scratch
    /// capacity, script steps, decision log). The
    /// conformance monitor's tables are accounted separately by
    /// [`SessionStep::monitor_bytes`] — they scale with the *observed
    /// trace's* value population, not with the session core, and the
    /// fleet reports the two peaks independently.
    #[must_use]
    pub fn resident_bytes(&self) -> u64 {
        use std::mem::size_of;
        let scratch = self.scratch.in_class.capacity() * size_of::<DlAction>();
        let script = std::mem::size_of_val(self.script.steps());
        let decisions = self.runner.taken.capacity() * size_of::<Decision>();
        (size_of::<Self>() + scratch + script + decisions) as u64
    }

    /// The online conformance monitor's estimated footprint in bytes
    /// ([`TraceMonitor::approx_bytes`]): interned value tables, SoA
    /// per-value columns, and the transit slot arena. 0 when the session
    /// runs unmonitored. Distinct-value tables grow with the observed
    /// trace (PL2 obliges the monitor to remember every sent value);
    /// the transit arena is bounded by *peak live* in-transit packets.
    /// A data-link-only monitor (`monitor_pl = false`) keeps no packet
    /// tables, so only distinct messages count.
    #[must_use]
    pub fn monitor_bytes(&self) -> u64 {
        self.online
            .as_ref()
            .map_or(0, |o| o.monitor.approx_bytes() as u64)
    }
}

/// Takes one fair locally-controlled step and returns the action taken;
/// `None` if none is enabled. Free-standing so [`SessionStep::step`] can
/// borrow its fields disjointly.
///
/// Round-robin fairness: the scheduled class is the enabled actions of the
/// first task, probing `next_task, next_task + 1, …` (mod `task_count`),
/// that has any. Each probe asks the system for that one task's enabled
/// actions ([`Automaton::for_each_enabled_of_task`]), so no action is
/// enumerated outside the class it is found in, and no action's task is
/// looked up.
fn fair_local_step<M>(
    runner: &mut Runner,
    system: &M,
    state: &mut M::State,
    len: &mut usize,
    next_task: &mut usize,
    online: &mut Option<OnlineConformance>,
    scratch: &mut Scratch,
) -> Option<DlAction>
where
    M: Automaton<Action = DlAction>,
{
    let tasks = system.task_count().max(1);
    let cap = scratch.in_class.capacity();
    scratch.in_class.clear();
    let scheduled = (0..tasks).map(|i| (*next_task + i) % tasks).find(|&t| {
        let _ = system.for_each_enabled_of_task(state, TaskId(t), &mut |a| {
            scratch.in_class.push(a);
            std::ops::ControlFlow::Continue(())
        });
        !scratch.in_class.is_empty()
    });
    scratch.refills += u64::from(scratch.in_class.capacity() != cap);
    let task = scheduled?;
    let pick = runner.decide(DecisionPoint::Action, scratch.in_class.len());
    let action = scratch.in_class[pick];
    let took = take(runner, system, state, len, action, online);
    debug_assert!(
        took.is_some(),
        "an enabled task walk returned a disabled action"
    );
    *next_task = (task + 1) % tasks;
    took
}

/// Takes `action`, stamping a fresh uid if it is an unstamped `send_pkt`,
/// and resolving successor nondeterminism with the seeded RNG in one
/// [`Automaton::step_chosen`] call: the system counts the successors, the
/// runner draws one, and the live state moves to it in place. Returns the
/// action as taken, or `None` if it has no successor.
fn take<M>(
    runner: &mut Runner,
    system: &M,
    state: &mut M::State,
    len: &mut usize,
    mut action: DlAction,
    online: &mut Option<OnlineConformance>,
) -> Option<DlAction>
where
    M: Automaton<Action = DlAction>,
{
    if let DlAction::SendPkt(_, p) = &action {
        if p.uid == Packet::UNSTAMPED {
            action = action.with_packet_uid(runner.next_uid);
            runner.next_uid += 1;
        }
    }
    let mut choose = |n| runner.decide(DecisionPoint::Successor, n);
    if !system.step_chosen(state, &action, &mut choose) {
        return None;
    }
    *len += 1;
    if let Some(o) = online {
        o.observe(&action);
    }
    Some(action)
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
    fn clean_run_is_conformant() {
        let sys = abp_system(LossMode::EveryNth(3));
        let report = Runner::new(4, 1_000_000).run(&sys, &Script::deliver_n(6));
        let sched = report.schedule();
        let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
        assert!(v.is_allowed(), "data link: {v:?}");
        for dir in Dir::BOTH {
            let v = PlModule::pl_fifo(dir).check(&sched, TraceKind::Complete);
            assert!(v.is_allowed(), "physical {dir}: {v:?}");
        }

        // Liveness monitors with generous patience stay quiet.
        use dl_core::spec::liveness::{dl8_monitor, pl6_monitor};
        assert_eq!(dl8_monitor(&report.behavior, 10_000), None);
        for dir in Dir::BOTH {
            assert_eq!(pl6_monitor(&sched, dir, 10_000), None, "{dir}");
        }
    }

    #[test]
    fn reordering_channels_need_the_weaker_pl_policy() {
        let p = dl_protocols::stenning::protocol();
        let sys = link_system(
            p.transmitter,
            p.receiver,
            dl_channels::ReorderChannel::lossless(Dir::TR),
            dl_channels::ReorderChannel::lossless(Dir::RT),
        );
        let report = Runner::new(8, 1_000_000).run(&sys, &Script::deliver_n(6));
        let sched = report.schedule();
        // Stenning's behavior is fine either way, and the schedule solves
        // the weaker `PL`...
        let v = DlModule::full().check(&report.behavior, TraceKind::Complete);
        assert!(v.is_allowed(), "data link: {v:?}");
        for dir in Dir::BOTH {
            let v = PlModule::pl(dir).check(&sched, TraceKind::Complete);
            assert!(v.is_allowed(), "physical {dir}: {v:?}");
        }
        // ...while `PL-FIFO` may legitimately flag the reordering medium
        // itself (if a reorder actually happened); nothing else can.
        for dir in Dir::BOTH {
            let v = PlModule::pl_fifo(dir).check(&sched, TraceKind::Complete);
            if let Some(v) = v.violation() {
                assert!(v.property.starts_with("PL5"), "physical {dir}: {v}");
            }
        }
    }

    fn data_headers<S>(report: &RunReport<S>) -> usize {
        report
            .metrics
            .headers_used
            .iter()
            .filter(|h| h.tag == dl_core::action::Tag::Data)
            .count()
    }

    #[test]
    fn abp_header_usage_is_bounded() {
        let sys = abp_system(LossMode::None);
        let mut runner = Runner::new(1, 100_000);
        let report = runner.run(&sys, &Script::deliver_n(20));
        assert!(report.metrics.headers_used.len() <= 4);
        // E7(a)'s control: two DATA headers, however many messages.
        for n in [10, 100, 1_000] {
            let report = Runner::new(1, 100_000).run(&sys, &Script::deliver_n(n));
            assert!(report.quiescent);
            assert_eq!(report.metrics.msgs_received, n);
            assert!(data_headers(&report) <= 2, "{n} messages");
        }
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
        // E7(a): one fresh DATA header per message, end to end.
        for n in [10, 15, 100, 1_000] {
            let report = Runner::new(1, 100_000).run(&sys, &Script::deliver_n(n));
            assert!(report.quiescent);
            assert_eq!(report.metrics.msgs_received, n);
            assert_eq!(data_headers(&report) as u64, n);
        }
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

        fn start_state(&self) -> Self::State {
            (None, 0)
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

        fn for_each_enabled_local(
            &self,
            state: &Self::State,
            f: &mut dyn FnMut(DlAction) -> std::ops::ControlFlow<()>,
        ) -> std::ops::ControlFlow<()> {
            match state {
                (Some(m), n) if *n < 2 => f(DlAction::ReceiveMsg(*m)),
                _ => std::ops::ControlFlow::Continue(()),
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

    /// The digest step as first defined: SipHash fed field by field
    /// through `hash_one`, then the same mix.
    fn per_field_digest(digest: u64, action: &DlAction) -> u64 {
        use std::hash::BuildHasher;
        let hasher =
            std::hash::BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default();
        let h = hasher.hash_one(action);
        let mut z = digest.rotate_left(17) ^ h.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z ^ (z >> 31)
    }

    #[test]
    fn digest_action_matches_the_per_field_hash_on_every_shape() {
        use dl_core::action::{Header, Msg, Station, Tag};
        let mut shapes = Vec::new();
        for m in [Msg(0), Msg(42), Msg(u64::MAX)] {
            shapes.extend([DlAction::SendMsg(m), DlAction::ReceiveMsg(m)]);
        }
        for d in Dir::BOTH {
            shapes.extend([DlAction::Wake(d), DlAction::Fail(d)]);
            for tag in [Tag::Data, Tag::Ack, Tag::Init, Tag::InitAck] {
                for uid in [Packet::UNSTAMPED, 0, 9] {
                    for payload in [None, Some(Msg(0)), Some(Msg(7))] {
                        let p = Packet {
                            uid,
                            header: Header::new(tag, 3),
                            payload,
                        };
                        shapes.extend([DlAction::SendPkt(d, p), DlAction::ReceivePkt(d, p)]);
                    }
                }
            }
        }
        for x in [Station::T, Station::R] {
            shapes.push(DlAction::Crash(x));
            for code in [0, 5, u64::MAX] {
                shapes.push(DlAction::Internal(x, code));
            }
        }
        let (mut digest, mut reference) = (0, 0);
        for a in &shapes {
            assert_eq!(digest_action(0, a), per_field_digest(0, a), "{a:?}");
            digest = digest_action(digest, a);
            reference = per_field_digest(reference, a);
        }
        assert_eq!(digest, reference);
        assert_eq!(schedule_digest(&shapes), reference);
    }

    #[test]
    fn stepping_a_lean_session_walks_the_recorded_execution() {
        // `step` returns each action as taken and leaves `state` at its
        // post-state, so watching a session action by action sees
        // exactly what a recording run keeps — and folding the digest
        // step and `Metrics::record` over those actions, as the fleet
        // does, gives the recording run's digest and metrics.
        let sys = abp_system(LossMode::Nondet);
        let script = Script::deliver_n(4);
        let recorded = Runner::new(9, 10_000).run(&sys, &script);
        let mut session: SessionStep<_, &_> =
            SessionStep::new(Runner::new(9, 10_000), &sys, sys.start_state(), script);
        let mut i = 0;
        let mut digest = 0;
        let mut metrics = Metrics::default();
        while let Some(a) = session.step() {
            assert_eq!(a, *recorded.execution.action(i));
            assert_eq!(session.state(), recorded.execution.state(i + 1));
            digest = digest_action(digest, &a);
            metrics.record(&a);
            i += 1;
        }
        assert!(i > 0);
        assert_eq!(i, recorded.execution.len());
        assert_eq!(digest, schedule_digest(&recorded.schedule()));
        assert_eq!(metrics, recorded.metrics);
        assert_eq!(metrics.steps, i as u64);
        assert!(metrics.msgs_received > 0 && !metrics.latencies.is_empty());
        assert_eq!(session.quiescent(), recorded.quiescent);
        assert!(std::ptr::eq(session.system(), &sys));
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
