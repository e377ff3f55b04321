//! The crash-impossibility engine: Theorem 7.5, executably.
//!
//! Given any deterministic, message-independent, *crashing* data link
//! protocol, [`CrashEngine::run`] mechanically carries out the paper's §7
//! construction against the permissive FIFO channels `Ĉ` and produces a
//! concrete execution of `D̂'(A)` whose behavior violates the weak data
//! link specification `WDL` — certified by the independent trace checker.
//!
//! The construction mirrors the proof line by line:
//!
//! 1. **Lemma 4.1 / reference execution `α`** — a crash-free run with
//!    behavior `wake^{t,r} wake^{r,t} send_msg(m) receive_msg(m)`, ending
//!    with clean channels ([`build_reference`]).
//! 2. **Lemma 7.2 / the pump** — crash a station and *replay* its part of
//!    `α` with fresh messages, consuming a waiting sequence equivalent to
//!    what it received in `α` and refilling the other channel with packets
//!    equivalent to what it sent (`CrashEngine::pump`, paper Figure 4).
//! 3. **Lemma 7.3** — alternate pumps along the chain of last-actions to
//!    rebuild both stations into states equivalent to any point of `α`.
//! 4. **Lemma 7.4** — end with `send_msg(m₁)` pending, both stations
//!    equivalent to the *end* of `α`, channels clean.
//! 5. **Theorem 7.5** — extend fairly with no further inputs. Either no
//!    `receive_msg` ever occurs (the complete fair behavior violates
//!    **DL8**), or one does — and then Lemma 7.1 replays the same suffix
//!    from the end of `α` itself, where it delivers a message although
//!    everything sent was already delivered, violating **DL4** or **DL5**.
//!
//! Because every step is executed against the real automata (protocol
//! steps via their transition functions, channel steps against explicit
//! delivery sets, surgery only on never-observed delivery-set futures),
//! the emitted counterexample is a genuine execution, not a paper trace.

use std::fmt;

use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};
use ioa::InternedSeq;

use dl_channels::permissive::SurgeryError;
use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use dl_core::equivalence::{
    action_matches_under, actions_equivalent, packets_equivalent, MsgRenaming,
};
use dl_core::protocol::owning_station;
use dl_core::spec::datalink::DlModule;
use dl_sim::system::LinkStateExt;

use crate::driver::{Driver, DriverError, ProtocolAutomaton, RunEnd, Scheduling, SystemState};

/// Errors from the crash engine. Several of these are *informative*: they
/// identify which hypothesis of Theorem 7.5 the protocol escapes through
/// (e.g. [`CrashError::NotCrashing`] for protocols with non-volatile
/// memory).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CrashError {
    /// The reference execution could not be built: the protocol failed to
    /// deliver a single message over perfect channels.
    ReferenceFailed(String),
    /// `crash` did not reset a station to its unique start state — the
    /// protocol is not crashing (§5.3.2), so the theorem does not apply.
    /// This is the expected outcome for the non-volatile protocol.
    NotCrashing(Station),
    /// The crash-replay diverged from the reference execution: the
    /// protocol is not message-independent as claimed.
    ReplayDiverged(String),
    /// The channel could not present the required waiting sequence.
    InTransit(String),
    /// Channel surgery failed.
    Surgery(SurgeryError),
    /// A driver step failed (an automaton violated input-enabledness or
    /// lied about enabledness).
    Driver(DriverError),
    /// The fair extension neither quiesced nor delivered within the step
    /// bound, so the finite trace decides nothing. Raise the bound.
    LivenessUndecided(usize),
    /// The construction completed but the checker did not flag the final
    /// behavior — this indicates a bug and should be unreachable.
    NotViolating(String),
}

impl fmt::Display for CrashError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashError::ReferenceFailed(s) => write!(f, "reference execution failed: {s}"),
            CrashError::NotCrashing(x) => write!(
                f,
                "station {x} is not crashing: crash does not restore the unique start state \
                 (the protocol has non-volatile memory, so Theorem 7.5 does not apply)"
            ),
            CrashError::ReplayDiverged(s) => {
                write!(
                    f,
                    "crash replay diverged (protocol not message-independent?): {s}"
                )
            }
            CrashError::InTransit(s) => write!(f, "in-transit bookkeeping failed: {s}"),
            CrashError::Surgery(e) => write!(f, "channel surgery failed: {e}"),
            CrashError::Driver(e) => write!(f, "driver step failed: {e}"),
            CrashError::LivenessUndecided(bound) => write!(
                f,
                "fair extension still running after {bound} steps; raise the bound to decide"
            ),
            CrashError::NotViolating(s) => {
                write!(
                    f,
                    "internal error: constructed behavior not flagged by WDL: {s}"
                )
            }
        }
    }
}

impl std::error::Error for CrashError {}

impl From<DriverError> for CrashError {
    fn from(e: DriverError) -> Self {
        CrashError::Driver(e)
    }
}

impl From<SurgeryError> for CrashError {
    fn from(e: SurgeryError) -> Self {
        CrashError::Surgery(e)
    }
}

/// Which of the proof's two endgames produced the violation.
///
/// An observation this engine makes concrete: for *deterministic*
/// protocols whose reference execution quiesces (every real ARQ protocol),
/// the pump replays the reference acknowledgements into the post-crash
/// transmitter, so the final `send_msg(m₁)` is silently absorbed and the
/// extension quiesces — the violation always surfaces as
/// [`Dl8Liveness`](CounterexampleFlavor::Dl8Liveness). The
/// [`DuplicateOrPhantom`](CounterexampleFlavor::DuplicateOrPhantom) endgame
/// is the case the *paper* needs for its hypothetical weakly-correct
/// protocol — one that, being correct, would have to deliver `m₁` — and is
/// implemented faithfully (Lemma 7.1 transplantation); its error paths are
/// unit-tested, while its success path is reachable only for protocols
/// that deliver during the extension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterexampleFlavor {
    /// The fair extension quiesced without delivering the pending message:
    /// the complete fair behavior violates DL8 directly.
    Dl8Liveness,
    /// The extension delivered something; Lemma 7.1 transplanted it onto
    /// the reference execution, yielding a duplicate (DL4) or phantom
    /// (DL5) delivery.
    DuplicateOrPhantom,
}

/// A certified counterexample: an execution of the protocol over FIFO
/// physical channels whose data-link behavior violates `WDL`.
#[derive(Debug, Clone)]
pub struct CrashCounterexample {
    /// The violating schedule (all actions, packet actions included).
    pub trace: Vec<DlAction>,
    /// Its data-link behavior (what `hide_Φ` exposes).
    pub behavior: Vec<DlAction>,
    /// The checker's verdict on the behavior.
    pub violation: Violation,
    /// Which endgame fired.
    pub flavor: CounterexampleFlavor,
    /// Number of crash-replay pumps performed.
    pub pumps: usize,
}

/// The reference execution `α` (Lemma 4.1): actions plus the protocol
/// component states after each step.
///
/// The per-step component states are interned: each sequence stores every
/// distinct state once and records 4-byte ids per step, so the steps where
/// the *other* components move (the majority, in a composed execution)
/// cost one id instead of a full state clone. Indexing (`t_states[k]`)
/// still yields the projected state `s_k`, exactly as the old
/// state-per-step vectors did.
#[derive(Debug)]
pub struct Reference<TS, RS> {
    /// The schedule `π₁ … πₙ`.
    pub actions: Vec<DlAction>,
    /// Transmitter states `s₀ … sₙ` (projected, interned).
    pub t_states: InternedSeq<TS>,
    /// Receiver states `s₀ … sₙ` (projected, interned).
    pub r_states: InternedSeq<RS>,
    /// The end-of-`α` system state, channels cleaned (Lemma 6.3).
    pub end: SystemState<TS, RS>,
    /// The message delivered in `α`.
    pub msg: Msg,
}

impl<TS: Clone, RS: Clone> Reference<TS, RS> {
    /// Number of steps `n`.
    #[must_use]
    pub fn len(&self) -> usize {
        self.actions.len()
    }

    /// `true` if the reference is empty (never the case for a built one).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.actions.is_empty()
    }

    /// `acts_A(α, x, k)`: station `x`'s actions among the first `k`.
    #[must_use]
    pub fn acts_of(&self, x: Station, k: usize) -> Vec<DlAction> {
        self.actions[..k]
            .iter()
            .filter(|a| owning_station(a) == x)
            .copied()
            .collect()
    }

    /// `in_A(α, x, k)`: packets received by station `x` in the first `k`
    /// steps.
    #[must_use]
    pub fn in_pkts(&self, x: Station, k: usize) -> Vec<Packet> {
        self.actions[..k]
            .iter()
            .filter_map(|a| match a {
                DlAction::ReceivePkt(d, p) if d.receiver() == x => Some(*p),
                _ => None,
            })
            .collect()
    }

    /// `out_A(α, x, k)`: packets sent by station `x` in the first `k`
    /// steps.
    #[must_use]
    pub fn out_pkts(&self, x: Station, k: usize) -> Vec<Packet> {
        self.actions[..k]
            .iter()
            .filter_map(|a| match a {
                DlAction::SendPkt(d, p) if d.sender() == x => Some(*p),
                _ => None,
            })
            .collect()
    }
}

/// Builds the reference execution `α` (Lemma 4.1 + Lemma 6.3): wake both
/// media, send one message over perfect FIFO channels, run to quiescence
/// with delivery-eager scheduling, and verify the behavior is exactly
/// `wake wake send_msg(m) receive_msg(m)`.
///
/// # Errors
///
/// [`CrashError::ReferenceFailed`] if the protocol does not produce that
/// behavior within `bound` steps — such a protocol is not even weakly
/// correct in the crash-free case.
pub fn build_reference<T, R>(
    tx: &T,
    rx: &R,
    msg: Msg,
    bound: usize,
) -> Result<Reference<T::State, R::State>, CrashError>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let mut d = Driver::new(tx.clone(), rx.clone(), true, msg.0 + 1);
    d.apply(DlAction::Wake(Dir::TR))?;
    d.apply(DlAction::Wake(Dir::RT))?;
    d.apply(DlAction::SendMsg(msg))?;
    let end = d.run_until(Scheduling::Priority, bound, |_| false)?;
    if end != RunEnd::Quiescent {
        return Err(CrashError::ReferenceFailed(format!(
            "did not quiesce within {bound} steps"
        )));
    }
    let expected = vec![
        DlAction::Wake(Dir::TR),
        DlAction::Wake(Dir::RT),
        DlAction::SendMsg(msg),
        DlAction::ReceiveMsg(msg),
    ];
    let beh = d.behavior();
    if beh != expected {
        return Err(CrashError::ReferenceFailed(format!(
            "behavior {beh:?} is not the Lemma 4.1 behavior {expected:?}"
        )));
    }

    let t_states = states_along(tx, &d.trace)?;
    let r_states = states_along(rx, &d.trace)?;
    d.clean_channels();
    Ok(Reference {
        actions: d.trace,
        t_states,
        r_states,
        end: d.state,
        msg,
    })
}

/// Replays `trace` through one automaton, returning its interned state
/// sequence after each step (length `trace.len() + 1`). Out-of-signature
/// steps stutter: they repeat the previous id without cloning or hashing
/// the state.
fn states_along<M: ProtocolAutomaton>(
    aut: &M,
    trace: &[DlAction],
) -> Result<InternedSeq<M::State>, CrashError> {
    let mut out = InternedSeq::new();
    out.push(
        aut.start_states()
            .into_iter()
            .next()
            .expect("protocol automata have a start state"),
    );
    for a in trace {
        if aut.in_signature(a) {
            let cur = out.last().expect("non-empty");
            let next = aut.step_first(cur, a).ok_or_else(|| {
                CrashError::ReferenceFailed(format!("reference step {a} not reproducible"))
            })?;
            out.push(next);
        } else {
            out.repeat_last();
        }
    }
    Ok(out)
}

/// Configuration for [`CrashEngine`].
#[derive(Debug, Clone, Copy)]
pub struct CrashConfig {
    /// Step bound for building the reference execution.
    pub reference_bound: usize,
    /// Step bound for the final fair extension.
    pub extension_bound: usize,
    /// The message carried through the reference execution `α`.
    pub reference_msg: Msg,
    /// The §9 extension: if the protocol interprets simple message content
    /// (classes = residues modulo this value), the pump draws its fresh
    /// messages from the reference message's class. `None` for fully
    /// message-independent protocols.
    pub msg_class_modulus: Option<u64>,
}

impl Default for CrashConfig {
    fn default() -> Self {
        CrashConfig {
            reference_bound: 10_000,
            extension_bound: 10_000,
            reference_msg: Msg(0),
            msg_class_modulus: None,
        }
    }
}

/// The Theorem 7.5 engine.
pub struct CrashEngine<T: ProtocolAutomaton, R: ProtocolAutomaton> {
    reference: Reference<T::State, R::State>,
    driver: Driver<T, R>,
    config: CrashConfig,
    pumps: usize,
}

impl<T, R> CrashEngine<T, R>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    /// Prepares the engine: builds the reference execution `α` for the
    /// protocol and a fresh FIFO-channel system to construct the
    /// counterexample in.
    ///
    /// # Errors
    ///
    /// [`CrashError::ReferenceFailed`] if the protocol cannot deliver one
    /// message over perfect channels.
    pub fn new(tx: T, rx: R, config: CrashConfig) -> Result<Self, CrashError> {
        let reference = build_reference(&tx, &rx, config.reference_msg, config.reference_bound)?;
        // Fresh messages start far above anything α uses.
        let driver = Driver::new(tx, rx, true, 1_000);
        Ok(CrashEngine {
            reference,
            driver,
            config,
            pumps: 0,
        })
    }

    /// The reference execution.
    pub fn reference(&self) -> &Reference<T::State, R::State> {
        &self.reference
    }

    /// Runs the whole construction and returns the certified
    /// counterexample.
    ///
    /// # Errors
    ///
    /// See [`CrashError`]; notably [`CrashError::NotCrashing`] when the
    /// protocol escapes the theorem's hypotheses via non-volatile memory.
    pub fn run(mut self) -> Result<CrashCounterexample, CrashError> {
        self.lemma74()?;
        let beta_len = self.driver.trace.len();

        // Theorem 7.5 endgame: fair extension with no further inputs.
        let end =
            self.driver
                .run_until(Scheduling::RoundRobin, self.config.extension_bound, |a| {
                    matches!(a, DlAction::ReceiveMsg(_))
                })?;
        match end {
            RunEnd::Quiescent => {
                // Flavor (a): the pending message is never delivered; the
                // complete fair behavior violates DL8.
                let behavior = self.driver.behavior();
                let verdict = DlModule::weak().check(&behavior, TraceKind::Complete);
                match verdict {
                    Verdict::Violated(violation) => Ok(CrashCounterexample {
                        trace: self.driver.trace,
                        behavior,
                        violation,
                        flavor: CounterexampleFlavor::Dl8Liveness,
                        pumps: self.pumps,
                    }),
                    other => Err(CrashError::NotViolating(format!("{other:?}"))),
                }
            }
            RunEnd::PredHit => {
                // Flavor (b): something was delivered. Transplant the
                // suffix onto α (Lemma 7.1) where it becomes a duplicate
                // or phantom delivery.
                let suffix: Vec<DlAction> = self.driver.trace[beta_len..].to_vec();
                self.lemma71_transplant(&suffix)
            }
            RunEnd::BoundHit => Err(CrashError::LivenessUndecided(self.config.extension_bound)),
        }
    }

    /// Lemma 7.4: leave both stations in states equivalent to the end of
    /// `α`, with `send_msg(m₁)` as the last behavior event and both
    /// channels clean.
    fn lemma74(&mut self) -> Result<(), CrashError> {
        let n = self.reference.len();
        let n_prime = (1..=n)
            .rev()
            .find(|&j| owning_station(&self.reference.actions[j - 1]) == Station::R)
            .ok_or_else(|| {
                CrashError::ReferenceFailed("reference has no receiver action".into())
            })?;
        self.lemma73(n_prime)?;

        // Shape the r→t channel: from ≡ out_A(α, r, n′) down to
        // ≡ in_A(α, t, n) (Lemma 6.6).
        let from = self.reference.out_pkts(Station::R, n_prime);
        let to = self.reference.in_pkts(Station::T, n);
        self.lose_to_subsequence(Station::T, &from, &to)?;

        self.pump(Station::T, n)?;
        self.driver.clean_channels();
        Ok(())
    }

    /// Lemma 7.3, recursive: after this, station `x = owner(π_k)` is in a
    /// state ≡ `state(α, x, k)`, the other station ≡ `state(α, x̄, k)`, and
    /// a sequence ≡ `out_A(α, x, k)` waits in the channel `x` sends on.
    fn lemma73(&mut self, k: usize) -> Result<(), CrashError> {
        let x = owning_station(&self.reference.actions[k - 1]);
        let j = (3..k)
            .rev()
            .find(|&j| owning_station(&self.reference.actions[j - 1]) == x.other());
        match j {
            None => {
                // Base case: just wake both media; nothing is in transit
                // toward x, matching in_A(α, x, k) = ε.
                if !self.reference.in_pkts(x, k).is_empty() {
                    return Err(CrashError::InTransit(format!(
                        "base case at k={k} but in_A(α, {x}, {k}) is non-empty"
                    )));
                }
                self.driver.apply(DlAction::Wake(x.other().sends_on()))?;
                self.driver.apply(DlAction::Wake(x.sends_on()))?;
            }
            Some(j) => {
                self.lemma73(j)?;
                // Lose packets: from ≡ out_A(α, x̄, j) down to the
                // subsequence ≡ in_A(α, x, k) (Lemma 6.6).
                let from = self.reference.out_pkts(x.other(), j);
                let to = self.reference.in_pkts(x, k);
                self.lose_to_subsequence(x, &from, &to)?;
            }
        }
        self.pump(x, k)?;
        Ok(())
    }

    /// Lemma 6.6 application: the channel toward `x` currently has a
    /// waiting sequence ≡ `from`; keep only the subsequence matching `to`
    /// (both given as reference-side packet sequences, matched by uid).
    fn lose_to_subsequence(
        &mut self,
        x: Station,
        from: &[Packet],
        to: &[Packet],
    ) -> Result<(), CrashError> {
        let mut keep = Vec::with_capacity(to.len());
        let mut i = 0usize;
        for want in to {
            let found = (i..from.len()).find(|&idx| from[idx] == *want);
            match found {
                Some(idx) => {
                    keep.push(idx);
                    i = idx + 1;
                }
                None => {
                    return Err(CrashError::InTransit(format!(
                        "{want} is not a subsequence element of the reference out-sequence"
                    )))
                }
            }
        }
        let ch = self.driver.channel_mut(x.receives_on());
        if ch.waiting().len() != from.len() {
            return Err(CrashError::InTransit(format!(
                "waiting sequence has length {} but reference out-sequence has {}",
                ch.waiting().len(),
                from.len()
            )));
        }
        ch.lose(&keep)?;
        Ok(())
    }

    /// Lemma 7.2: crash station `x` and replay `acts_A(α, x, k)` with
    /// fresh messages, consuming the waiting sequence toward `x` and
    /// leaving a sequence ≡ `out_A(α, x, k)` waiting in the channel `x`
    /// sends on. Returns the message renaming used.
    fn pump(&mut self, x: Station, k: usize) -> Result<MsgRenaming, CrashError> {
        self.pumps += 1;
        self.driver.apply(DlAction::Crash(x))?;
        self.check_crashed_to_start(x)?;

        let script = self.reference.acts_of(x, k);
        let mut rho = MsgRenaming::identity();
        let mut sends_made: u64 = 0;

        for phi in &script {
            match phi {
                DlAction::Wake(d) | DlAction::Fail(d) => {
                    debug_assert_eq!(d.sender(), x);
                    self.driver.apply(*phi)?;
                }
                DlAction::Crash(_) => {
                    return Err(CrashError::ReferenceFailed(
                        "reference execution contains a crash".into(),
                    ))
                }
                DlAction::SendMsg(m) => {
                    let fresh = match self.config.msg_class_modulus {
                        None => self.driver.fresh_msg(),
                        Some(c) => self.driver.fresh_msg_in_class(*m, c),
                    };
                    rho.insert(*m, fresh)
                        .map_err(|e| CrashError::ReplayDiverged(e.to_string()))?;
                    self.driver.apply(DlAction::SendMsg(fresh))?;
                }
                DlAction::ReceivePkt(d, p) => {
                    debug_assert_eq!(d.receiver(), x);
                    let next = self
                        .driver
                        .channel(*d)
                        .next_delivery()
                        .copied()
                        .ok_or_else(|| {
                            CrashError::InTransit(format!("no packet waiting for replayed {phi}"))
                        })?;
                    if !packets_equivalent(&next, p) {
                        return Err(CrashError::InTransit(format!(
                            "waiting packet {next} not equivalent to reference {p}"
                        )));
                    }
                    if let (Some(rm), Some(nm)) = (p.payload, next.payload) {
                        rho.insert(rm, nm)
                            .map_err(|e| CrashError::ReplayDiverged(e.to_string()))?;
                    }
                    self.driver.apply(DlAction::ReceivePkt(*d, next))?;
                }
                // Locally-controlled actions of x: find the enabled action
                // matching the renamed reference action.
                local => {
                    let found = station_enabled(&self.driver, x)
                        .into_iter()
                        .find(|a| action_matches_under(local, a, &rho))
                        .ok_or_else(|| {
                            CrashError::ReplayDiverged(format!(
                                "no enabled action of {x} matches renamed {local} \
                                 (expected ≈ {})",
                                rho.apply_action(local)
                            ))
                        })?;
                    let taken = self.driver.take(found)?;
                    if matches!(taken, DlAction::SendPkt(..)) {
                        sends_made += 1;
                    }
                }
            }
        }

        self.check_state_equivalent(x, k, &rho)?;

        // The replayed sends are the most recent `sends_made` packets on
        // x's outgoing channel; make exactly those the waiting sequence
        // (Lemma 6.5).
        let fifo = self.driver.is_fifo();
        let ch_state = self.driver.channel_mut(x.sends_on());
        let c1 = ch_state.counter1();
        let indices: Vec<u64> = (c1 - sends_made + 1..=c1).collect();
        ch_state.set_waiting(&indices, fifo)?;
        Ok(rho)
    }

    fn check_crashed_to_start(&self, x: Station) -> Result<(), CrashError> {
        let ok = match x {
            Station::T => {
                let starts = self.driver.tx().start_states();
                starts.len() == 1 && *self.driver.state.transmitter() == starts[0]
            }
            Station::R => {
                let starts = self.driver.rx().start_states();
                starts.len() == 1 && *self.driver.state.receiver() == starts[0]
            }
        };
        if ok {
            Ok(())
        } else {
            Err(CrashError::NotCrashing(x))
        }
    }

    fn check_state_equivalent(
        &self,
        x: Station,
        k: usize,
        rho: &MsgRenaming,
    ) -> Result<(), CrashError> {
        let ok = match x {
            Station::T => {
                let expect = self
                    .driver
                    .tx()
                    .relabel_state(&self.reference.t_states[k], rho);
                expect == *self.driver.state.transmitter()
            }
            Station::R => {
                let expect = self
                    .driver
                    .rx()
                    .relabel_state(&self.reference.r_states[k], rho);
                expect == *self.driver.state.receiver()
            }
        };
        if ok {
            Ok(())
        } else {
            Err(CrashError::ReplayDiverged(format!(
                "after pump({x}, {k}) the replayed state is not the renamed reference state"
            )))
        }
    }

    /// Lemma 7.1: replay the extension suffix from the end of `α` itself.
    /// Every action is mapped to an equivalent one enabled in the
    /// α-context; the first `receive_msg` it produces is a duplicate or
    /// phantom delivery.
    fn lemma71_transplant(&self, suffix: &[DlAction]) -> Result<CrashCounterexample, CrashError> {
        let mut alpha = Driver::new(
            self.driver.tx().clone(),
            self.driver.rx().clone(),
            true,
            2_000_000,
        );
        alpha.state = self.reference.end.clone();
        alpha.trace = self.reference.actions.clone();
        alpha.sync_uid_floor(1_000_000);

        let mut delivered = false;
        for a in suffix {
            match a {
                DlAction::ReceivePkt(d, p) => {
                    let next = alpha.channel(*d).next_delivery().copied().ok_or_else(|| {
                        CrashError::InTransit(format!(
                            "α-context channel has nothing waiting for transplanted {a}"
                        ))
                    })?;
                    if !packets_equivalent(&next, p) {
                        return Err(CrashError::ReplayDiverged(format!(
                            "α-context delivery {next} not equivalent to suffix {p}"
                        )));
                    }
                    alpha.apply(DlAction::ReceivePkt(*d, next))?;
                }
                DlAction::SendMsg(_)
                | DlAction::Wake(_)
                | DlAction::Fail(_)
                | DlAction::Crash(_) => {
                    return Err(CrashError::ReplayDiverged(format!(
                        "fair extension unexpectedly contains input {a}"
                    )))
                }
                local => {
                    let found = station_enabled(&alpha, owning_station(local))
                        .into_iter()
                        .find(|cand| actions_equivalent(cand, local))
                        .ok_or_else(|| {
                            CrashError::ReplayDiverged(format!(
                                "no α-context action equivalent to transplanted {local}"
                            ))
                        })?;
                    let taken = alpha.take(found)?;
                    if matches!(taken, DlAction::ReceiveMsg(_)) {
                        delivered = true;
                        break;
                    }
                }
            }
        }
        if !delivered {
            return Err(CrashError::ReplayDiverged(
                "transplanted suffix produced no receive_msg".into(),
            ));
        }

        let behavior = alpha.behavior();
        match DlModule::weak().check(&behavior, TraceKind::Prefix) {
            Verdict::Violated(violation) => Ok(CrashCounterexample {
                trace: alpha.trace,
                behavior,
                violation,
                flavor: CounterexampleFlavor::DuplicateOrPhantom,
                pumps: self.pumps,
            }),
            other => Err(CrashError::NotViolating(format!("{other:?}"))),
        }
    }
}

/// The locally-controlled actions station `x` enables in the driver's
/// current state.
fn station_enabled<T: ProtocolAutomaton, R: ProtocolAutomaton>(
    d: &Driver<T, R>,
    x: Station,
) -> Vec<DlAction> {
    match x {
        Station::T => d.tx().enabled_local(d.state.transmitter()),
        Station::R => d.rx().enabled_local(d.state.receiver()),
    }
}

/// Convenience entry point: run the full Theorem 7.5 construction against
/// a protocol.
///
/// # Errors
///
/// See [`CrashError`].
pub fn refute_crash_tolerance<T, R>(tx: T, rx: R) -> Result<CrashCounterexample, CrashError>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    CrashEngine::new(tx, rx, CrashConfig::default())?.run()
}

/// Like [`refute_crash_tolerance`] but honoring the protocol's declared
/// §9 message-class structure (`ProtocolInfo::msg_class_modulus`).
///
/// # Errors
///
/// See [`CrashError`].
pub fn refute_protocol<T, R>(
    protocol: dl_core::protocol::DataLinkProtocol<T, R>,
) -> Result<CrashCounterexample, CrashError>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let config = CrashConfig {
        msg_class_modulus: protocol.info.msg_class_modulus,
        ..CrashConfig::default()
    };
    CrashEngine::new(protocol.transmitter, protocol.receiver, config)?.run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_for_abp() {
        let p = dl_protocols::abp::protocol();
        let r = build_reference(&p.transmitter, &p.receiver, Msg(0), 1000).unwrap();
        assert_eq!(r.len(), 8);
        assert!(!r.is_empty());
        assert_eq!(r.actions[0], DlAction::Wake(Dir::TR));
        assert_eq!(r.actions[1], DlAction::Wake(Dir::RT));
        assert_eq!(r.t_states.len(), 9);
        assert_eq!(r.r_states.len(), 9);
        // Interning collapses stuttering steps: each station moves on only
        // its own in-signature actions, so far fewer distinct states than
        // steps are stored.
        assert!(r.t_states.distinct() < r.t_states.len());
        assert!(r.r_states.distinct() < r.r_states.len());
        // α's step 2 is the receiver's wake: the transmitter stutters, and
        // the stutter is id-level (no second copy of the state).
        assert_eq!(r.actions[1], DlAction::Wake(Dir::RT));
        assert_eq!(r.t_states.id_at(1), r.t_states.id_at(2));
        assert_eq!(r.t_states[1], r.t_states[2]);
        // Projections.
        assert_eq!(r.acts_of(Station::T, 3).len(), 2); // wake, send_msg
        assert_eq!(r.in_pkts(Station::T, 8).len(), 1); // the ack
        assert_eq!(r.out_pkts(Station::T, 8).len(), 1); // the data packet
        assert_eq!(r.in_pkts(Station::R, 8).len(), 1);
        assert_eq!(r.out_pkts(Station::R, 8).len(), 1);
        // End state is clean.
        assert!(r.end.channel_tr().is_clean());
        assert!(r.end.channel_rt().is_clean());
    }

    #[test]
    fn theorem_7_5_refutes_abp() {
        let p = dl_protocols::abp::protocol();
        let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
        assert!(cx.pumps >= 2);
        // The certified violation is one of the WDL properties.
        assert!(
            ["DL4", "DL5", "DL8"].contains(&cx.violation.property),
            "unexpected violated property {}",
            cx.violation.property
        );
        // And the behavior is genuinely flagged by an independent check.
        let verdict = DlModule::weak().check(
            &cx.behavior,
            match cx.flavor {
                CounterexampleFlavor::Dl8Liveness => TraceKind::Complete,
                CounterexampleFlavor::DuplicateOrPhantom => TraceKind::Prefix,
            },
        );
        assert!(!verdict.is_allowed());
    }

    #[test]
    fn theorem_7_5_refutes_sliding_window() {
        for window in [1, 2, 4] {
            let p = dl_protocols::sliding_window::protocol(window);
            let cx = refute_crash_tolerance(p.transmitter, p.receiver)
                .unwrap_or_else(|e| panic!("window {window}: {e}"));
            assert!(["DL4", "DL5", "DL8"].contains(&cx.violation.property));
        }
    }

    #[test]
    fn theorem_7_5_refutes_stenning() {
        // Stenning's protocol has unbounded headers but is still crashing,
        // so the crash theorem applies to it too.
        let p = dl_protocols::stenning::protocol();
        let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
        assert!(["DL4", "DL5", "DL8"].contains(&cx.violation.property));
    }

    #[test]
    fn nonvolatile_protocol_escapes_via_not_crashing() {
        let p = dl_protocols::nonvolatile::protocol();
        let err = refute_crash_tolerance(p.transmitter, p.receiver).unwrap_err();
        assert!(matches!(err, CrashError::NotCrashing(_)), "got {err}");
    }

    #[test]
    fn counterexample_trace_is_well_formed_and_hypothesis_clean() {
        // The constructed behavior must satisfy the *hypotheses* (well-
        // formedness, DL1–DL3) — the violation must be in the conclusions.
        let p = dl_protocols::abp::protocol();
        let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
        let (tx_tl, rx_tl) = dl_core::spec::wellformed::scan_both(&cx.behavior);
        assert!(tx_tl.is_well_formed());
        assert!(rx_tl.is_well_formed());
        assert!(dl_core::spec::datalink::check_dl1(&tx_tl, &rx_tl).is_none());
        assert!(dl_core::spec::datalink::check_dl2(&cx.behavior, &tx_tl).is_none());
        assert!(dl_core::spec::datalink::check_dl3(&cx.behavior).is_none());
    }

    #[test]
    fn transplant_rejects_inputs_in_suffix() {
        let p = dl_protocols::abp::protocol();
        let engine = CrashEngine::new(p.transmitter, p.receiver, CrashConfig::default()).unwrap();
        let err = engine
            .lemma71_transplant(&[DlAction::SendMsg(Msg(9))])
            .unwrap_err();
        assert!(matches!(err, CrashError::ReplayDiverged(_)));
    }

    #[test]
    fn transplant_rejects_deliveries_from_clean_channels() {
        let p = dl_protocols::abp::protocol();
        let engine = CrashEngine::new(p.transmitter, p.receiver, CrashConfig::default()).unwrap();
        // The α-end channels are clean: nothing can be waiting.
        let pkt = dl_core::action::Packet::data(0, Msg(1)).with_uid(9);
        let err = engine
            .lemma71_transplant(&[DlAction::ReceivePkt(Dir::TR, pkt)])
            .unwrap_err();
        assert!(matches!(err, CrashError::InTransit(_)));
    }

    #[test]
    fn transplant_requires_a_delivery() {
        let p = dl_protocols::abp::protocol();
        let engine = CrashEngine::new(p.transmitter, p.receiver, CrashConfig::default()).unwrap();
        let err = engine.lemma71_transplant(&[]).unwrap_err();
        assert!(matches!(err, CrashError::ReplayDiverged(_)));
    }

    #[test]
    fn real_victims_always_fall_via_dl8() {
        // The reachability observation on CounterexampleFlavor: every
        // deterministic, quiescing victim produces the liveness flavor.
        let p = dl_protocols::abp::protocol();
        let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
        assert_eq!(cx.flavor, CounterexampleFlavor::Dl8Liveness);
        assert_eq!(cx.violation.property, "DL8");
    }

    #[test]
    fn error_display() {
        assert!(CrashError::NotCrashing(Station::T)
            .to_string()
            .contains("non-volatile"));
        assert!(CrashError::LivenessUndecided(5).to_string().contains('5'));
    }
}
