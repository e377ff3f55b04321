//! One fleet session: a protocol of the zoo composed with two
//! fault-injected channels, driven incrementally through `dl-sim`'s
//! [`SessionStep`].
//!
//! The state split the fleet depends on lives here: the *automaton*
//! values (protocol machines, channel configurations) are small immutable
//! tables, while everything mutable — the composed state, scratch
//! buffers, RNG stream, script cursor, monitor — is owned by the
//! [`SessionStep`], which keeps one live state and no execution trace.
//! A classic session's resident cost is therefore about 2.3 KB (the
//! `fleet/e13` ledger's peak [`SessionOutcome::resident_bytes`] is
//! 2,256 bytes) no matter how long it runs. Building one allocates
//! only the script, which the session shares with its [`SessionConfig`]:
//! the composed start state is paired in place and the data-link-only
//! monitor has no packet tables.
//! The session only steps: the fleet folds each action it takes into
//! the two things a [`SessionOutcome`] reports and the session does not
//! keep, the rolling schedule digest ([`digest_action`]) and the
//! [`Metrics`].
//!
//! Monitoring posture mirrors `dl-fuzz`: `monitor_pl = false` (the
//! duplication fault knob violates PL3 *by design*), `full_dl = false`,
//! online abort on a `WDL` safety conclusion, and — for sessions that
//! quiesce crash-free with the script fully consumed — a complete-trace
//! `WDL` verdict from the streaming monitor, which adds DL8 liveness
//! without ever materializing the trace. The stabilizing variant runs
//! the same kind of session without the online monitor (a corrupted start
//! is supposed to misbehave for a prefix) and instead feeds each
//! external action, as it is taken, to a [`SuffixMonitor`] sidecar,
//! which judges it in suffix mode at teardown; the sidecar's tables are
//! its [`SessionOutcome::monitor_bytes`].

use ioa::schedule_module::{TraceKind, Verdict};
use ioa::ActionClass;

use dl_channels::{CorruptChannel, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::stabilize::{BudgetVerdict, SuffixMonitor};
use dl_obs::Histogram;
use dl_sim::{
    digest_action, link_system, ConformancePolicy, LinkSystem, Metrics, Runner, SessionStep,
};
use ioa::automaton::Automaton;

use crate::spec::{FleetSpec, ProtocolKind, SessionConfig};

/// The composed per-session system: `hide_Φ(protocol ∥ FaultyChannel²)`.
pub type FleetSystem<T, R> = LinkSystem<T, R, FaultyChannel, FaultyChannel>;

/// The stabilizing session's system: the self-stabilizing protocol over
/// bounded-capacity, non-FIFO, possibly ghost-loaded [`CorruptChannel`]s.
pub type StabilizeSystem = LinkSystem<
    dl_protocols::StabTransmitter,
    dl_protocols::StabReceiver,
    CorruptChannel,
    CorruptChannel,
>;

type Step<T, R> = SessionStep<FleetSystem<T, R>>;

/// A live session of any protocol in the zoo: the per-kind session
/// plus the digest and [`Metrics`] the fleet folds over the actions it
/// takes.
pub struct ZooSession {
    kind: Kind,
    /// [`digest_action`] folded over every action taken so far.
    digest: u64,
    /// [`Metrics::record`] folded over every action taken so far.
    metrics: Metrics,
}

/// Declares [`Kind`] with one variant per station pair of the classic
/// zoo, and the `From` conversion that lets [`build_session`] wrap
/// whichever session the zoo's dispatch macro built.
macro_rules! kinds {
    ($($kind:ident($tx:ident, $rx:ident),)*) => {
        /// The session of one zoo kind, monomorphized per station
        /// pair so the hot stepping loop is static-dispatched (go-back-2
        /// and go-back-8 share `SlidingWindow`).
        enum Kind {
            $($kind(Step<dl_protocols::$tx, dl_protocols::$rx>),)*
            /// The self-stabilizing protocol, possibly from a corrupted
            /// initial configuration: a session with no online monitor
            /// (a corrupted start is supposed to misbehave for a prefix),
            /// plus the [`SuffixMonitor`] that [`ZooSession::advance_batch`]
            /// feeds every external action as it is taken, judged in suffix
            /// mode at teardown. The monitor is boxed so this variant is no
            /// larger than the others: every live session of a chunk is
            /// sized by the largest variant.
            Stabilizing(SessionStep<StabilizeSystem>, Box<SuffixMonitor>),
        }

        $(impl From<Step<dl_protocols::$tx, dl_protocols::$rx>> for Kind {
            fn from(s: Step<dl_protocols::$tx, dl_protocols::$rx>) -> Self {
                Kind::$kind(s)
            }
        })*
    };
}

kinds! {
    Abp(AbpTransmitter, AbpReceiver),
    SlidingWindow(SwTransmitter, SwReceiver),
    SelectiveRepeat(SrTransmitter, SrReceiver),
    Fragmenting(FragTransmitter, FragReceiver),
    Parity(ParityTransmitter, ParityReceiver),
    Stenning(StenningTransmitter, StenningReceiver),
    Nonvolatile(NvTransmitter, NvReceiver),
    Quirky(QuirkyTransmitter, QuirkyReceiver),
}

/// Runs `$body` with `$s` bound to the inner [`SessionStep`], whatever
/// the protocol.
macro_rules! with_session {
    ($kind:expr, $s:ident => $body:expr) => {
        match $kind {
            Kind::Abp($s) => $body,
            Kind::SlidingWindow($s) => $body,
            Kind::SelectiveRepeat($s) => $body,
            Kind::Fragmenting($s) => $body,
            Kind::Parity($s) => $body,
            Kind::Stenning($s) => $body,
            Kind::Nonvolatile($s) => $body,
            Kind::Quirky($s) => $body,
            Kind::Stabilizing($s, _) => $body,
        }
    };
}

/// The fleet's online monitoring policy (see the module docs).
#[must_use]
pub fn fleet_policy() -> ConformancePolicy {
    ConformancePolicy {
        full_dl: false,
        fifo_channels: false,
        monitor_pl: false,
    }
}

fn classic_step<T, R>(
    protocol: DataLinkProtocol<T, R>,
    cfg: &SessionConfig,
    spec: &FleetSpec,
) -> Step<T, R>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let mut runner = Runner::new(cfg.seed, spec.max_steps);
    if spec.monitor {
        runner = runner.with_online_conformance(fleet_policy());
    }
    let system = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, cfg.faults[0]),
        FaultyChannel::new(Dir::RT, cfg.faults[1]),
    );
    let start = system.start_state();
    SessionStep::new(runner, system, start, cfg.script.clone())
}

/// Builds session `cfg` as an incrementally-steppable [`ZooSession`].
#[must_use]
pub fn build_session(cfg: &SessionConfig, spec: &FleetSpec) -> ZooSession {
    let kind = dl_protocols::with_zoo_member!(
        cfg.protocol,
        protocol => Kind::from(classic_step(protocol, cfg, spec)),
        stabilizing => {
            let corruption = cfg
                .corruption
                .expect("stabilizing session configs carry a corruption spec");
            let protocol = dl_protocols::stabilizing::corrupted(
                u64::from(corruption.channels[0].capacity),
                corruption.tx_seq,
                corruption.rx_expected,
            );
            // No online conformance: the divergent prefix would trip it.
            // The suffix monitor watches the behavior instead.
            let runner = Runner::new(cfg.seed, spec.max_steps);
            let system = link_system(
                protocol.transmitter,
                protocol.receiver,
                CorruptChannel::new(Dir::TR, corruption.channels[0]),
                CorruptChannel::new(Dir::RT, corruption.channels[1]),
            );
            let start = system.start_state();
            Kind::Stabilizing(
                SessionStep::new(runner, system, start, cfg.script.clone()),
                Box::new(SuffixMonitor::new(false)),
            )
        },
    );
    ZooSession {
        kind,
        digest: 0,
        metrics: Metrics::default(),
    }
}

/// Takes up to `budget` actions of `s`; returns how many were taken.
/// Each action is fed to `suffix` (the stabilizing kind's sidecar) when
/// it is external, then folded into `digest` and `metrics`.
fn step_batch<M: Automaton<Action = DlAction>>(
    s: &mut SessionStep<M>,
    mut suffix: Option<&mut SuffixMonitor>,
    budget: usize,
    digest: &mut u64,
    metrics: &mut Metrics,
) -> usize {
    let mut taken = 0;
    while taken < budget {
        let Some(a) = s.step() else { break };
        if let Some(suffix) = suffix.as_deref_mut() {
            if s.system()
                .classify(&a)
                .is_some_and(ActionClass::is_external)
            {
                suffix.observe(&a);
            }
        }
        *digest = digest_action(*digest, &a);
        metrics.record(&a);
        taken += 1;
    }
    taken
}

impl ZooSession {
    /// Takes up to `budget` actions; returns how many were taken.
    pub fn advance_batch(&mut self, budget: usize) -> usize {
        let ZooSession {
            kind,
            digest,
            metrics,
        } = self;
        if let Kind::Stabilizing(s, suffix) = kind {
            return step_batch(s, Some(suffix), budget, digest, metrics);
        }
        with_session!(kind, s => step_batch(s, None, budget, digest, metrics))
    }

    /// `true` once the session's run is over.
    #[must_use]
    pub fn is_done(&self) -> bool {
        with_session!(&self.kind, s => s.is_done())
    }

    /// Tears the finished session down into its compact outcome, folding
    /// its step count and per-message latencies into the worker-local
    /// histograms.
    #[must_use]
    pub fn finish(
        self,
        cfg: &SessionConfig,
        steps_hist: &mut Histogram,
        latency_hist: &mut Histogram,
    ) -> SessionOutcome {
        let ZooSession {
            kind,
            digest,
            metrics,
        } = self;
        steps_hist.record(metrics.steps);
        for latency in &metrics.latencies {
            latency_hist.record(*latency);
        }
        if let Kind::Stabilizing(s, suffix) = kind {
            return finish_stabilizing(&s, &suffix, digest, &metrics, cfg);
        }
        with_session!(kind, s => {
            let quiescent = s.quiescent();
            // Online safety conclusion first; quiescent crash-free runs
            // additionally get the complete-trace WDL verdict (adds DL8)
            // straight from the streaming monitor — no retained trace.
            let mut violation = s.online_violation().map(|v| v.property);
            if violation.is_none() && quiescent && !cfg.crashed {
                if let Some(monitor) = s.monitor() {
                    if let Verdict::Violated(v) = monitor.dl_verdict(true, TraceKind::Complete) {
                        violation = Some(v.property);
                    }
                }
            }
            SessionOutcome {
                id: cfg.id,
                protocol: cfg.protocol,
                steps: metrics.steps,
                digest,
                quiescent,
                crashed: cfg.crashed,
                violation,
                msgs_sent: metrics.msgs_sent,
                msgs_delivered: metrics.msgs_received,
                resident_bytes: s.resident_bytes() + folded_bytes(&metrics),
                monitor_bytes: s.monitor_bytes(),
                convergence: None,
            }
        })
    }
}

/// Tears a stabilizing session down: the sidecar that watched its
/// behavior concludes suffix-mode conformance, judged against the
/// corruption budget by [`SuffixReport::against_budget`] (the convergence
/// climb may consume [`CorruptionSpec::budget`] messages — losing one
/// more means the protocol failed to stabilize).
///
/// [`CorruptionSpec::budget`]: crate::spec::CorruptionSpec::budget
/// [`SuffixReport::against_budget`]: dl_core::spec::stabilize::SuffixReport::against_budget
fn finish_stabilizing(
    s: &SessionStep<StabilizeSystem>,
    suffix: &SuffixMonitor,
    digest: u64,
    metrics: &Metrics,
    cfg: &SessionConfig,
) -> SessionOutcome {
    let corruption = cfg
        .corruption
        .expect("stabilizing session configs carry a corruption spec");
    let quiescent = s.quiescent();
    let verdict = quiescent.then(|| {
        let lost = metrics.msgs_sent.saturating_sub(metrics.msgs_received);
        suffix
            .finish(TraceKind::Complete)
            .against_budget(lost, corruption.budget())
    });
    let convergence = match verdict {
        Some(BudgetVerdict::Converged(at)) => Some(at as u64),
        _ => None,
    };
    SessionOutcome {
        id: cfg.id,
        protocol: cfg.protocol,
        steps: metrics.steps,
        digest,
        quiescent,
        crashed: cfg.crashed,
        violation: verdict.and_then(BudgetVerdict::violation),
        msgs_sent: metrics.msgs_sent,
        msgs_delivered: metrics.msgs_received,
        resident_bytes: s.resident_bytes()
            + std::mem::size_of::<SuffixMonitor>() as u64
            + folded_bytes(metrics),
        monitor_bytes: suffix.approx_bytes() as u64,
        convergence,
    }
}

/// The fleet's footprint on top of a session's: the folded digest
/// and [`Metrics`] struct, plus the metrics' heap.
fn folded_bytes(metrics: &Metrics) -> u64 {
    (std::mem::size_of::<u64>() + std::mem::size_of::<Metrics>()) as u64 + metrics.heap_bytes()
}

/// What one session left behind: a compact, `Copy` record (tens of
/// bytes), so even a 10⁶-session fleet's outcome vector stays modest.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionOutcome {
    /// The session id.
    pub id: u64,
    /// Which protocol ran.
    pub protocol: ProtocolKind,
    /// Actions taken.
    pub steps: u64,
    /// Rolling schedule digest (see [`dl_sim::schedule_digest`]).
    pub digest: u64,
    /// `true` if the run quiesced with the script fully consumed.
    pub quiescent: bool,
    /// `true` if the script included a station crash.
    pub crashed: bool,
    /// Violated property name, if the monitor concluded one (online
    /// safety, or complete-trace `WDL` on quiescent crash-free runs).
    pub violation: Option<&'static str>,
    /// `send_msg` events.
    pub msgs_sent: u64,
    /// `receive_msg` events.
    pub msgs_delivered: u64,
    /// Resident-footprint estimate at teardown: the session's
    /// [`SessionStep::resident_bytes`], plus the digest and [`Metrics`]
    /// the fleet folds beside it and the metrics' heap
    /// ([`Metrics::heap_bytes`]); a stabilizing session adds its
    /// [`SuffixMonitor`] struct.
    pub resident_bytes: u64,
    /// The monitor's footprint at teardown: the online monitor's (see
    /// [`SessionStep::monitor_bytes`]; 0 when unmonitored), or for a
    /// stabilizing session its suffix monitor's
    /// ([`SuffixMonitor::approx_bytes`]).
    pub monitor_bytes: u64,
    /// For stabilizing sessions that converged: the convergence index —
    /// the behavior position where the conforming suffix begins, i.e.
    /// the stabilization time in actions (0 = conformant from the
    /// start). `None` for every other kind, for truncated runs, and for
    /// stabilizing sessions that failed to converge.
    pub convergence: Option<u64>,
}
