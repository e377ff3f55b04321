//! The bounded-header impossibility engine: Theorem 8.5, executably.
//!
//! Given a deterministic, message-independent, k-bounded data link
//! protocol, [`HeaderEngine::run`] carries out the §8 construction against
//! the permissive non-FIFO channels `C̄`:
//!
//! 1. **The pump (Lemma 8.3, case 2)** — repeatedly send a fresh message;
//!    watch which packets would carry it (`packet_set_A(m, β)`); if some
//!    needed header class is under-represented among the in-transit
//!    packets `T`, *strand* one such packet: deliver the message through
//!    retransmissions while the chosen packet is lost into permanent
//!    transit. `T` grows by at least one packet of that class per round.
//! 2. **The match (Lemma 8.4)** — because the header space is finite, after
//!    at most `k·|H|` rounds every class the protocol wants to use is
//!    already available in `T`: there is a one-to-one, equivalence-
//!    preserving map `f` from `packet_set_A(m, β)` into `T`.
//! 3. **The sting (Theorem 8.5)** — instead of sending `m`, rearrange the
//!    non-FIFO channel so the *old* packets `f(p₁)…f(p_l)` arrive in
//!    exactly the order the receiver would have consumed fresh ones, and
//!    replay the receiver. Message-independence forces it to deliver a
//!    message — one that was already delivered (DL4) or never sent (DL5).
//!
//! Protocols with genuinely unbounded headers (Stenning's) escape: every
//! round uses a fresh header class, the match never materializes, and the
//! engine reports [`HeaderOutcome::Exhausted`] with the observed linear
//! header growth — the paper's §9 observation.

use std::fmt;

use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict, Violation};

use dl_channels::permissive::SurgeryError;
use dl_core::action::{Dir, DlAction, Packet, Station};
use dl_core::equivalence::{actions_equivalent, packets_equivalent};
use dl_core::protocol::owning_station;
use dl_core::spec::datalink::DlModule;
use dl_sim::system::LinkStateExt;

use crate::driver::{Driver, DriverError, ProtocolAutomaton, RunEnd, Scheduling};

/// Errors from the header engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeaderError {
    /// The protocol failed to deliver a message within the step bound
    /// during a pump round — it is not even weakly correct here.
    NoDelivery {
        /// Which pump round stalled.
        round: usize,
    },
    /// The receiver replay diverged (protocol not message-independent).
    ReplayDiverged(String),
    /// Channel surgery failed.
    Surgery(SurgeryError),
    /// A driver step failed.
    Driver(DriverError),
    /// The constructed behavior was not flagged — a bug, should be
    /// unreachable.
    NotViolating(String),
}

impl fmt::Display for HeaderError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HeaderError::NoDelivery { round } => {
                write!(
                    f,
                    "protocol failed to deliver a message in pump round {round}"
                )
            }
            HeaderError::ReplayDiverged(s) => {
                write!(
                    f,
                    "receiver replay diverged (protocol not message-independent?): {s}"
                )
            }
            HeaderError::Surgery(e) => write!(f, "channel surgery failed: {e}"),
            HeaderError::Driver(e) => write!(f, "driver step failed: {e}"),
            HeaderError::NotViolating(s) => {
                write!(
                    f,
                    "internal error: constructed behavior not flagged by WDL: {s}"
                )
            }
        }
    }
}

impl std::error::Error for HeaderError {}

impl From<DriverError> for HeaderError {
    fn from(e: DriverError) -> Self {
        HeaderError::Driver(e)
    }
}

impl From<SurgeryError> for HeaderError {
    fn from(e: SurgeryError) -> Self {
        HeaderError::Surgery(e)
    }
}

/// A certified Theorem 8.5 counterexample.
#[derive(Debug, Clone)]
pub struct HeaderCounterexample {
    /// The violating schedule.
    pub trace: Vec<DlAction>,
    /// Its data-link behavior.
    pub behavior: Vec<DlAction>,
    /// The checker's verdict.
    pub violation: Violation,
    /// Pump rounds performed before the match was found.
    pub rounds: usize,
    /// The matched pairs `(fresh packet the protocol wanted, old in-transit
    /// packet that impersonated it)`.
    pub matched: Vec<(Packet, Packet)>,
}

/// Outcome of the header engine.
#[derive(Debug, Clone)]
pub enum HeaderOutcome {
    /// The construction succeeded: the protocol's bounded headers were
    /// pumped into a duplicate/phantom delivery.
    Violation(Box<HeaderCounterexample>),
    /// The round budget ran out without a match — the signature of
    /// unbounded headers (Stenning's protocol).
    Exhausted {
        /// Pump rounds performed.
        rounds: usize,
        /// Packets stranded in transit.
        transit_size: usize,
        /// Distinct header classes among them: grows linearly with rounds
        /// for Stenning (the §9 observation).
        distinct_classes: usize,
    },
}

/// Configuration for [`HeaderEngine`].
#[derive(Debug, Clone, Copy)]
pub struct HeaderConfig {
    /// Maximum pump rounds. The paper's bound is `k·|H|`; pass at least
    /// that for bounded-header protocols (the convenience constructor
    /// derives it from [`dl_core::protocol::ProtocolInfo`]).
    pub max_rounds: usize,
    /// Step bound for each delivery phase.
    pub delivery_bound: usize,
}

impl Default for HeaderConfig {
    fn default() -> Self {
        HeaderConfig {
            max_rounds: 40,
            delivery_bound: 50_000,
        }
    }
}

/// The Theorem 8.5 engine.
pub struct HeaderEngine<T: ProtocolAutomaton, R: ProtocolAutomaton> {
    driver: Driver<T, R>,
    config: HeaderConfig,
}

impl<T, R> HeaderEngine<T, R>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    /// Prepares the engine over permissive non-FIFO channels.
    pub fn new(tx: T, rx: R, config: HeaderConfig) -> Self {
        HeaderEngine {
            driver: Driver::new(tx, rx, false, 1_000),
            config,
        }
    }

    /// Runs the pump-and-match construction.
    ///
    /// # Errors
    ///
    /// See [`HeaderError`].
    pub fn run(mut self) -> Result<HeaderOutcome, HeaderError> {
        self.driver.apply(DlAction::Wake(Dir::TR))?;
        self.driver.apply(DlAction::Wake(Dir::RT))?;

        for round in 0..self.config.max_rounds {
            // Settle and clean: drain output buffers, strand stragglers.
            // The trace stays valid (every sent message already received).
            self.driver
                .run_until(Scheduling::RoundRobin, self.config.delivery_bound, |_| {
                    false
                })?;
            self.driver.clean_channels();

            let m = self.driver.fresh_msg();

            // Probe γ₁ on a clone: how would the protocol deliver m?
            let mut probe = self.driver.clone();
            let probe_from = probe.trace.len();
            probe.apply(DlAction::SendMsg(m))?;
            let end = probe.run_until(Scheduling::RoundRobin, self.config.delivery_bound, |a| {
                matches!(a, DlAction::ReceiveMsg(_))
            })?;
            if end != RunEnd::PredHit {
                return Err(HeaderError::NoDelivery { round });
            }
            let gamma: Vec<DlAction> = probe.trace[probe_from..].to_vec();
            debug_assert_eq!(gamma.last(), Some(&DlAction::ReceiveMsg(m)));
            let packet_set: Vec<Packet> = gamma
                .iter()
                .filter_map(|a| match a {
                    DlAction::ReceivePkt(Dir::TR, p) => Some(*p),
                    _ => None,
                })
                .collect();

            // The in-transit pool T (sent on t→r, never received).
            let tr = self.driver.channel(Dir::TR);
            let transit: Vec<(u64, Packet)> = tr
                .in_transit_indices()
                .into_iter()
                .map(|i| (i, *tr.packet(i).expect("index was sent")))
                .collect();

            if let Some(assignment) = match_into_transit(&packet_set, &transit) {
                // Lemma 8.4 holds: spring the trap.
                return self
                    .sting(&gamma, &packet_set, &assignment, round)
                    .map(|cx| HeaderOutcome::Violation(Box::new(cx)));
            }

            // Lemma 8.3 case 2: strand the first under-represented packet.
            let p0 = first_unmatched(&packet_set, &transit);
            let cut = gamma
                .iter()
                .position(|a| matches!(a, DlAction::SendPkt(Dir::TR, p) if *p == p0))
                .expect("a received packet was sent within γ");
            // Replay the probe verbatim up to and including send_pkt(p0);
            // legal because the probe started from exactly this state and
            // the system is deterministic.
            for a in &gamma[..=cut] {
                self.driver.apply(*a)?;
            }
            self.driver.sync_uid_floor(probe.uid_counter());
            // Lose p0 (and anything else pending) into permanent transit,
            // then let retransmissions deliver m.
            self.driver.clean_channels();
            let delivered_already = gamma[..=cut]
                .iter()
                .any(|a| matches!(a, DlAction::ReceiveMsg(_)));
            if !delivered_already {
                let end = self.driver.run_until(
                    Scheduling::RoundRobin,
                    self.config.delivery_bound,
                    |a| matches!(a, DlAction::ReceiveMsg(_)),
                )?;
                if end != RunEnd::PredHit {
                    return Err(HeaderError::NoDelivery { round });
                }
            }
        }

        let tr = self.driver.channel(Dir::TR);
        let transit = tr.in_transit_indices();
        let mut classes: Vec<Packet> = Vec::new();
        for i in &transit {
            let p = *tr.packet(*i).expect("sent");
            if !classes.iter().any(|q| packets_equivalent(q, &p)) {
                classes.push(p);
            }
        }
        Ok(HeaderOutcome::Exhausted {
            rounds: self.config.max_rounds,
            transit_size: transit.len(),
            distinct_classes: classes.len(),
        })
    }

    /// Theorem 8.5's endgame: make the old packets `f(pᵢ)` arrive in the
    /// order the receiver would consume fresh ones, and replay the
    /// receiver's part of γ₁ — without ever sending the message.
    fn sting(
        &mut self,
        gamma: &[DlAction],
        packet_set: &[Packet],
        assignment: &[(u64, Packet)],
        rounds: usize,
    ) -> Result<HeaderCounterexample, HeaderError> {
        let indices: Vec<u64> = assignment.iter().map(|(i, _)| *i).collect();
        self.driver
            .channel_mut(Dir::TR)
            .set_waiting(&indices, false)?;

        let mut delivered = false;
        for a in gamma {
            if owning_station(a) != Station::R {
                continue;
            }
            match a {
                DlAction::ReceivePkt(Dir::TR, p) => {
                    let next = self
                        .driver
                        .channel(Dir::TR)
                        .next_delivery()
                        .copied()
                        .ok_or_else(|| {
                            HeaderError::ReplayDiverged(format!(
                                "no old packet waiting to impersonate {p}"
                            ))
                        })?;
                    if !packets_equivalent(&next, p) {
                        return Err(HeaderError::ReplayDiverged(format!(
                            "waiting packet {next} is not equivalent to fresh {p}"
                        )));
                    }
                    self.driver.apply(DlAction::ReceivePkt(Dir::TR, next))?;
                }
                DlAction::Wake(_) | DlAction::Fail(_) | DlAction::Crash(_) => {
                    return Err(HeaderError::ReplayDiverged(format!(
                        "γ unexpectedly contains status input {a}"
                    )))
                }
                local => {
                    let enabled = self.driver.rx().enabled_local(self.driver.state.receiver());
                    let found = enabled
                        .into_iter()
                        .find(|cand| actions_equivalent(cand, local))
                        .ok_or_else(|| {
                            HeaderError::ReplayDiverged(format!(
                                "no enabled receiver action equivalent to {local}"
                            ))
                        })?;
                    let taken = self.driver.take(found)?;
                    if matches!(taken, DlAction::ReceiveMsg(_)) {
                        delivered = true;
                        break;
                    }
                }
            }
        }
        if !delivered {
            return Err(HeaderError::ReplayDiverged(
                "receiver replay produced no receive_msg".into(),
            ));
        }

        let behavior = self.driver.behavior();
        match DlModule::weak().check(&behavior, TraceKind::Prefix) {
            Verdict::Violated(violation) => Ok(HeaderCounterexample {
                trace: self.driver.trace.clone(),
                behavior,
                violation,
                rounds,
                matched: packet_set
                    .iter()
                    .zip(assignment)
                    .map(|(p, (_, q))| (*p, *q))
                    .collect(),
            }),
            other => Err(HeaderError::NotViolating(format!("{other:?}"))),
        }
    }
}

/// Greedy equivalence-preserving injection of `packet_set` into the
/// transit pool; returns the chosen `(channel index, packet)` per element
/// of `packet_set` in order, or `None` if some header class is under-
/// represented (Hall's condition fails).
fn match_into_transit(
    packet_set: &[Packet],
    transit: &[(u64, Packet)],
) -> Option<Vec<(u64, Packet)>> {
    let mut used = vec![false; transit.len()];
    let mut out = Vec::with_capacity(packet_set.len());
    for p in packet_set {
        let found = transit
            .iter()
            .enumerate()
            .find(|(k, (_, q))| !used[*k] && packets_equivalent(q, p))?;
        used[found.0] = true;
        out.push(*found.1);
    }
    Some(out)
}

/// The first packet of `packet_set` whose header class has fewer available
/// equivalents in `transit` than `packet_set` demands — the paper's `p₀`.
fn first_unmatched(packet_set: &[Packet], transit: &[(u64, Packet)]) -> Packet {
    let mut used = vec![false; transit.len()];
    for p in packet_set {
        let found = transit
            .iter()
            .enumerate()
            .find(|(k, (_, q))| !used[*k] && packets_equivalent(q, p));
        match found {
            Some((k, _)) => used[k] = true,
            None => return *p,
        }
    }
    unreachable!("first_unmatched called although match_into_transit succeeded")
}

/// Convenience entry point: run the Theorem 8.5 construction with a round
/// budget derived from the protocol's declared `k` and header bound
/// (`k·|H| + 2`), or the default budget when unbounded.
///
/// # Errors
///
/// See [`HeaderError`].
pub fn refute_bounded_headers<T, R>(
    protocol: dl_core::protocol::DataLinkProtocol<T, R>,
) -> Result<HeaderOutcome, HeaderError>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let mut config = HeaderConfig::default();
    if let (Some(h), Some(k)) = (protocol.info.header_bound, protocol.info.k_bound) {
        config.max_rounds = (h as usize) * k + 2;
    }
    HeaderEngine::new(protocol.transmitter, protocol.receiver, config).run()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::action::{Header, Msg};

    #[test]
    fn theorem_8_5_refutes_abp() {
        let outcome = refute_bounded_headers(dl_protocols::abp::protocol()).unwrap();
        let HeaderOutcome::Violation(cx) = outcome else {
            panic!("expected a violation, got {outcome:?}")
        };
        assert!(["DL4", "DL5"].contains(&cx.violation.property));
        assert!(!cx.matched.is_empty());
        // The impersonating packets really are old ones with matching
        // headers but different identities.
        for (fresh, old) in &cx.matched {
            assert!(packets_equivalent(fresh, old));
            assert_ne!(fresh.uid, old.uid);
        }
        // Independent certification.
        let v = DlModule::weak().check(&cx.behavior, TraceKind::Prefix);
        assert!(!v.is_allowed());
    }

    #[test]
    fn theorem_8_5_refutes_sliding_window() {
        for window in [1, 2, 3] {
            let outcome = refute_bounded_headers(dl_protocols::sliding_window::protocol(window))
                .unwrap_or_else(|e| panic!("window {window}: {e}"));
            assert!(
                matches!(outcome, HeaderOutcome::Violation(_)),
                "window {window}: expected violation, got {outcome:?}"
            );
        }
    }

    #[test]
    fn stenning_escapes_with_linear_header_growth() {
        let p = dl_protocols::stenning::protocol();
        let config = HeaderConfig {
            max_rounds: 12,
            ..HeaderConfig::default()
        };
        let outcome = HeaderEngine::new(p.transmitter, p.receiver, config)
            .run()
            .unwrap();
        let HeaderOutcome::Exhausted {
            rounds,
            transit_size,
            distinct_classes,
        } = outcome
        else {
            panic!("Stenning must not be refutable, got {outcome:?}")
        };
        assert_eq!(rounds, 12);
        // One fresh header class stranded per round: linear growth, the
        // §9 observation.
        assert!(
            distinct_classes >= rounds,
            "classes {distinct_classes} < rounds {rounds}"
        );
        assert!(transit_size >= distinct_classes);
    }

    #[test]
    fn matching_helpers() {
        let p = |seq: u64, uid: u64| Packet::data(seq, Msg(seq)).with_uid(uid);
        let ps = vec![p(0, 1), p(0, 2)];
        // Not enough class-0 packets in transit.
        let transit = vec![(1, p(0, 10))];
        assert!(match_into_transit(&ps, &transit).is_none());
        assert_eq!(first_unmatched(&ps, &transit), p(0, 2));
        // Enough now.
        let transit = vec![(1, p(0, 10)), (5, p(1, 11)), (7, p(0, 12))];
        let f = match_into_transit(&ps, &transit).unwrap();
        assert_eq!(f, vec![(1, p(0, 10)), (7, p(0, 12))]);
    }

    #[test]
    fn ack_headers_do_not_count_as_data() {
        let data = Packet::data(0, Msg(1)).with_uid(1);
        let ack = Packet::new(Header::ack(0), None).with_uid(2);
        assert!(match_into_transit(&[data], &[(1, ack)]).is_none());
    }

    #[test]
    fn error_display() {
        assert!(HeaderError::NoDelivery { round: 3 }
            .to_string()
            .contains('3'));
        assert!(HeaderError::ReplayDiverged("x".into())
            .to_string()
            .contains("message-independent"));
    }
}
