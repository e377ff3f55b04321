//! The parameterized fault-injection channel: the fuzzer's configurable
//! adversarial medium.
//!
//! [`LossyFifoChannel`](crate::simulated::LossyFifoChannel) and friends
//! each hard-code one failure mode. [`FaultyChannel`] instead exposes a
//! knob block ([`FaultSpec`]) covering the failure modes a schedule fuzzer
//! wants to sweep — uniform loss, duplication, bounded reordering, and
//! Gilbert–Elliott burst windows — while staying **fully deterministic**:
//! every per-send fault decision is a pure hash of `(salt, send counter)`,
//! both of which live in the automaton's state or the channel's immutable
//! configuration. Two runs over the same channel with the same scheduler
//! seed produce byte-identical traces, which is what makes fuzzer
//! counterexamples replayable from a `(seed, genome)` pair alone.
//!
//! Spec posture:
//!
//! * loss and burst windows stay within `PL-FIFO` (losing packets is what
//!   physical channels do);
//! * a reorder window `w > 1` stays within `PL` but violates `PL-FIFO`
//!   when a reordering actually happens;
//! * **duplication deliberately steps outside `PL`**: the duplicate copy
//!   carries the same analysis uid, so delivering both violates PL3
//!   ("every packet received at most once"). That is the point — it
//!   models a misbehaving medium. Judge such runs with data-link-only
//!   monitoring (`TraceMonitor::online_dl_violation`); the DL
//!   hypotheses (well-formedness, DL1–DL3) are unaffected by PL
//!   violations, so protocol-level verdicts remain meaningful.

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, Deterministic, TaskId};

use dl_core::action::{Dir, DlAction, Header, Msg, Packet, Tag};
use dl_core::protocol::channel_classify;

use crate::simulated::FlightState;

/// Deterministic splitmix64-style mix of a salt and an index: the fate
/// and ghost decisions of both fault channels, [`FaultyChannel`] and
/// [`CorruptChannel`](crate::CorruptChannel).
pub(crate) fn mix(salt: u64, n: u64) -> u64 {
    let mut z = salt
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(n.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Fault-injection knobs for one [`FaultyChannel`].
///
/// Rates are expressed per-256 (`loss = 64` ≈ 25% of sends dropped) so the
/// whole block is `Copy + Eq + Hash` and can live inside fuzzer genomes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultSpec {
    /// Per-256 probability that a send is dropped.
    pub loss: u8,
    /// Per-256 probability that a *kept* send is enqueued twice (same
    /// analysis uid — violates PL3 by design; see the module docs).
    pub dup: u8,
    /// Delivery window: the first `max(reorder, 1)` in-flight packets are
    /// eligible for delivery. `0`/`1` is FIFO; larger windows allow
    /// bounded reordering (solves `PL` but not `PL-FIFO`).
    pub reorder: u8,
    /// Length of the loss-free stretch of the burst cycle, in sends.
    /// Burst windows are disabled while [`FaultSpec::burst_bad`] is 0.
    pub burst_good: u16,
    /// Length of the drop-everything stretch of the burst cycle, in sends.
    pub burst_bad: u16,
    /// Decorrelates the per-send fault decisions of different channels
    /// (and of different fuzzer genomes).
    pub salt: u64,
}

impl FaultSpec {
    /// A fault-free specification: perfect FIFO delivery.
    #[must_use]
    pub fn none() -> Self {
        FaultSpec {
            loss: 0,
            dup: 0,
            reorder: 0,
            burst_good: 0,
            burst_bad: 0,
            salt: 0,
        }
    }

    /// The effective delivery window (at least 1).
    #[must_use]
    pub fn window(&self) -> usize {
        self.reorder.max(1) as usize
    }

    /// `true` if the channel stays within `PL` (no duplication).
    #[must_use]
    pub fn respects_pl(&self) -> bool {
        self.dup == 0
    }

    /// `true` if the channel stays within `PL-FIFO` (no duplication and
    /// no reordering).
    #[must_use]
    pub fn respects_fifo(&self) -> bool {
        self.respects_pl() && self.window() == 1
    }

    /// `true` if send number `n` (0-based) falls in a burst-loss stretch.
    #[must_use]
    pub fn in_bad_burst(&self, n: u64) -> bool {
        if self.burst_bad == 0 || self.burst_good == 0 {
            return false;
        }
        let cycle = u64::from(self.burst_good) + u64::from(self.burst_bad);
        n % cycle >= u64::from(self.burst_good)
    }

    /// Derives the per-session variant of this specification: the same
    /// knobs, with the salt replaced by a documented pure function of
    /// `(self.salt, salt, session_id)`.
    ///
    /// This is the one sanctioned way to fan a single fleet seed out into
    /// decorrelated per-session fault streams — `dl-fleet` calls it once
    /// per channel with `salt` set to the fleet seed and `session_id` set
    /// to `2·id` (`t→r`) or `2·id + 1` (`r→t`), so a whole fleet is
    /// replayable from `(fleet seed, fleet spec)` with no ad-hoc hashing
    /// at call sites. Deriving is stable (same inputs, same spec),
    /// injective in practice over the avalanche mix, and keeps the base
    /// spec's own salt in the mix so two template specs that differ only
    /// by salt stay decorrelated after derivation.
    #[must_use]
    pub fn derive(&self, salt: u64, session_id: u64) -> FaultSpec {
        FaultSpec {
            salt: mix(mix(salt, self.salt), session_id),
            ..*self
        }
    }

    /// The deterministic fate of send number `n`: `(dropped, duplicated)`.
    #[must_use]
    pub fn fate(&self, n: u64) -> (bool, bool) {
        let h = mix(self.salt, n);
        let dropped = self.in_bad_burst(n) || (h & 0xFF) < u64::from(self.loss);
        let duplicated = !dropped && ((h >> 8) & 0xFF) < u64::from(self.dup);
        (dropped, duplicated)
    }
}

impl Default for FaultSpec {
    fn default() -> Self {
        FaultSpec::none()
    }
}

/// A deterministic preload of *ghost packets*: the channel half of the
/// corrupted-configuration fault class (arXiv 1011.3632). A corrupted
/// configuration may place arbitrary packets in flight before the run
/// starts; `GhostSpec` generates them as a pure function of `(seed, i)`,
/// so a corrupted start is replayable from the spec alone — the same
/// posture as [`FaultSpec::fate`] for in-run faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GhostSpec {
    /// How many ghost packets to preload (in generation order).
    pub count: u8,
    /// Decorrelates ghost streams across channels and genomes.
    pub seed: u64,
}

impl GhostSpec {
    /// No ghosts: the honest empty-channel start.
    #[must_use]
    pub fn none() -> Self {
        GhostSpec { count: 0, seed: 0 }
    }

    /// `true` when no ghosts are preloaded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `i`-th ghost packet: tag, sequence number, and payload message
    /// are all drawn from the avalanche mix of `(seed, i)`; the uid is
    /// `u64::MAX - 1 - i`, far above any uid a run-stamping monitor
    /// assigns (and distinct from [`Packet::UNSTAMPED`]), so ghosts never
    /// collide with genuine traffic in uid-keyed analyses.
    #[must_use]
    pub fn packet(&self, i: u8) -> Packet {
        let h = mix(self.seed, u64::from(i));
        let tag = match h & 3 {
            0 => Tag::Data,
            1 => Tag::Ack,
            2 => Tag::Init,
            _ => Tag::InitAck,
        };
        let payload = (tag == Tag::Data).then_some(Msg((h >> 4) & 3));
        Packet {
            uid: u64::MAX - 1 - u64::from(i),
            header: Header {
                tag,
                seq: (h >> 2) & 3,
            },
            payload,
        }
    }
}

impl Default for GhostSpec {
    fn default() -> Self {
        GhostSpec::none()
    }
}

/// A deterministic fault-injecting channel parameterized by [`FaultSpec`].
///
/// State is the shared [`FlightState`] (in-flight packets + send counter);
/// every transition has exactly one successor, so the channel adds no
/// nondeterminism of its own — all schedule variation comes from the
/// executor, all fault variation from the spec. That keeps composed runs
/// reproducible from the runner seed and the spec alone.
///
/// An optional [`GhostSpec`] preloads the start state with in-flight ghost
/// packets, modeling the channel part of a corrupted configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultyChannel {
    dir: Dir,
    spec: FaultSpec,
    ghosts: GhostSpec,
}

impl FaultyChannel {
    /// A channel in `dir` with the given fault knobs and no ghosts.
    #[must_use]
    pub fn new(dir: Dir, spec: FaultSpec) -> Self {
        FaultyChannel {
            dir,
            spec,
            ghosts: GhostSpec::none(),
        }
    }

    /// The same channel starting from a corrupted configuration: `ghosts`
    /// are already in flight when the run begins.
    #[must_use]
    pub fn with_ghosts(mut self, ghosts: GhostSpec) -> Self {
        self.ghosts = ghosts;
        self
    }

    /// This channel's ghost preload.
    #[must_use]
    pub fn ghosts(&self) -> GhostSpec {
        self.ghosts
    }

    /// A fault-free (perfect FIFO) channel.
    #[must_use]
    pub fn perfect(dir: Dir) -> Self {
        FaultyChannel::new(dir, FaultSpec::none())
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// This channel's fault knobs.
    #[must_use]
    pub fn spec(&self) -> FaultSpec {
        self.spec
    }
}

impl FaultyChannel {
    /// The position of `p` among the packets deliverable from `s` (the
    /// first `window` in flight), or `None` when it is not one of them.
    fn deliverable(&self, s: &FlightState, p: &Packet) -> Option<usize> {
        let window = self.spec.window().min(s.in_flight.len());
        s.in_flight[..window].iter().position(|q| q == p)
    }
}

impl Deterministic for FaultyChannel {
    fn enabled(&self, s: &FlightState, a: &DlAction) -> bool {
        match a {
            DlAction::SendPkt(d, _) | DlAction::Wake(d) | DlAction::Fail(d) => *d == self.dir,
            DlAction::ReceivePkt(d, p) => *d == self.dir && self.deliverable(s, p).is_some(),
            DlAction::Crash(x) => *x == self.dir.sender(),
            _ => false,
        }
    }

    fn apply(&self, s: &mut FlightState, a: &DlAction) {
        match a {
            DlAction::SendPkt(_, p) => {
                let (dropped, duplicated) = self.spec.fate(s.sends);
                s.sends += 1;
                if !dropped {
                    s.in_flight.push(*p);
                    if duplicated {
                        s.in_flight.push(*p);
                    }
                }
            }
            DlAction::ReceivePkt(_, p) => {
                let k = self.deliverable(s, p).expect("guarded by `enabled`");
                s.in_flight.remove(k);
            }
            // `wake`, `fail` and the sender's crash leave the medium as it is.
            _ => {}
        }
    }
}

impl Automaton for FaultyChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_state(&self) -> FlightState {
        let mut s = FlightState::default();
        for i in 0..self.ghosts.count {
            s.in_flight.push(self.ghosts.packet(i));
        }
        s
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    ioa::deterministic_transitions!();

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // Each distinct packet of the delivery window once, at its first
        // occurrence. Windows are tiny (≤ 255), so the quadratic scan is
        // cheaper than a scratch set.
        let window = self.spec.window().min(s.in_flight.len());
        let eligible = &s.in_flight[..window];
        for (i, p) in eligible.iter().enumerate() {
            if eligible[..i].iter().any(|q| q == p) {
                continue;
            }
            f(DlAction::ReceivePkt(self.dir, *p))?;
        }
        ControlFlow::Continue(())
    }

    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }

    fn task_count(&self) -> usize {
        1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dl_core::action::{Msg, Packet};

    fn pkt(n: u64) -> Packet {
        Packet::data(n, Msg(n)).with_uid(n + 100)
    }

    fn feed(ch: &FaultyChannel, n: u64) -> FlightState {
        let mut s = ch.start_states().remove(0);
        for i in 0..n {
            s = ch
                .step_first(&s, &DlAction::SendPkt(ch.dir(), pkt(i)))
                .unwrap();
        }
        s
    }

    #[test]
    fn fault_free_spec_is_perfect_fifo() {
        let ch = FaultyChannel::perfect(Dir::TR);
        assert!(ch.spec().respects_fifo());
        let s = feed(&ch, 4);
        assert_eq!(s.in_flight.len(), 4);
        // Only the head is deliverable.
        assert_eq!(
            ch.enabled_local(&s),
            vec![DlAction::ReceivePkt(Dir::TR, pkt(0))]
        );
        assert!(ch
            .successors(&s, &DlAction::ReceivePkt(Dir::TR, pkt(1)))
            .is_empty());
    }

    #[test]
    fn fault_decisions_are_deterministic_and_salted() {
        let spec = FaultSpec {
            loss: 128,
            dup: 64,
            salt: 7,
            ..FaultSpec::none()
        };
        for n in 0..64 {
            assert_eq!(spec.fate(n), spec.fate(n));
        }
        let resalted = FaultSpec { salt: 8, ..spec };
        let differs = (0..64).any(|n| spec.fate(n) != resalted.fate(n));
        assert!(differs, "salt must decorrelate fault streams");
        // Roughly half the sends dropped at loss = 128.
        let drops = (0..256).filter(|&n| spec.fate(n).0).count();
        assert!((64..192).contains(&drops), "drops = {drops}");
    }

    #[test]
    fn derive_is_a_pure_decorrelating_function_of_its_inputs() {
        let base = FaultSpec {
            loss: 64,
            dup: 16,
            reorder: 2,
            burst_good: 8,
            burst_bad: 2,
            salt: 3,
        };
        // Stable: same (base, salt, session) → same spec.
        assert_eq!(base.derive(9, 41), base.derive(9, 41));
        // Only the salt moves; every knob survives derivation.
        let d = base.derive(9, 41);
        assert_eq!(
            (d.loss, d.dup, d.reorder, d.burst_good, d.burst_bad),
            (
                base.loss,
                base.dup,
                base.reorder,
                base.burst_good,
                base.burst_bad
            )
        );
        // Decorrelated along every argument: fleet seed, session id, and
        // the template's own salt all separate the derived streams.
        assert_ne!(base.derive(9, 41).salt, base.derive(10, 41).salt);
        assert_ne!(base.derive(9, 41).salt, base.derive(9, 42).salt);
        let resalted = FaultSpec { salt: 4, ..base };
        assert_ne!(base.derive(9, 41).salt, resalted.derive(9, 41).salt);
        // Neighboring sessions draw visibly different fault streams.
        let a = base.derive(9, 0);
        let b = base.derive(9, 1);
        assert!((0..64).any(|n| a.fate(n) != b.fate(n)));
    }

    #[test]
    fn loss_drops_the_decided_sends() {
        let spec = FaultSpec {
            loss: 128,
            salt: 3,
            ..FaultSpec::none()
        };
        let ch = FaultyChannel::new(Dir::TR, spec);
        let s = feed(&ch, 32);
        let expected: Vec<u64> = (0..32).filter(|&n| !spec.fate(n).0).collect();
        let kept: Vec<u64> = s.in_flight.iter().map(|p| p.header.seq).collect();
        assert_eq!(kept, expected);
        assert_eq!(s.sends, 32);
    }

    #[test]
    fn duplication_enqueues_the_same_uid_twice() {
        let spec = FaultSpec {
            dup: 255,
            ..FaultSpec::none()
        };
        assert!(!spec.respects_pl());
        let ch = FaultyChannel::new(Dir::TR, spec);
        let s = feed(&ch, 1);
        assert_eq!(s.in_flight, vec![pkt(0), pkt(0)]);
        // Both copies delivered, one at a time, via the same action.
        let a = DlAction::ReceivePkt(Dir::TR, pkt(0));
        assert_eq!(ch.enabled_local(&s), vec![a]);
        let s = ch.step_first(&s, &a).unwrap();
        assert_eq!(s.in_flight, vec![pkt(0)]);
        let s = ch.step_first(&s, &a).unwrap();
        assert!(s.in_flight.is_empty());
    }

    #[test]
    fn reorder_window_bounds_delivery_choice() {
        let spec = FaultSpec {
            reorder: 2,
            ..FaultSpec::none()
        };
        assert!(spec.respects_pl() && !spec.respects_fifo());
        let ch = FaultyChannel::new(Dir::TR, spec);
        let s = feed(&ch, 3);
        // Packets 0 and 1 are eligible; 2 is beyond the window.
        assert_eq!(
            ch.enabled_local(&s),
            vec![
                DlAction::ReceivePkt(Dir::TR, pkt(0)),
                DlAction::ReceivePkt(Dir::TR, pkt(1)),
            ]
        );
        assert!(ch
            .successors(&s, &DlAction::ReceivePkt(Dir::TR, pkt(2)))
            .is_empty());
        // Delivering 1 first is a genuine reordering.
        let s = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(1)))
            .unwrap();
        assert_eq!(s.in_flight, vec![pkt(0), pkt(2)]);
    }

    #[test]
    fn burst_windows_drop_in_stretches() {
        let spec = FaultSpec {
            burst_good: 2,
            burst_bad: 2,
            ..FaultSpec::none()
        };
        let ch = FaultyChannel::new(Dir::TR, spec);
        let s = feed(&ch, 8);
        // Cycle of 4: sends 0,1 kept; 2,3 dropped; 4,5 kept; 6,7 dropped.
        let kept: Vec<u64> = s.in_flight.iter().map(|p| p.header.seq).collect();
        assert_eq!(kept, vec![0, 1, 4, 5]);
    }

    #[test]
    fn burst_disabled_when_bad_is_zero() {
        let spec = FaultSpec {
            burst_good: 3,
            burst_bad: 0,
            ..FaultSpec::none()
        };
        assert!((0..32).all(|n| !spec.in_bad_burst(n)));
        assert!(spec.respects_fifo());
    }

    #[test]
    fn status_actions_are_noops() {
        let ch = FaultyChannel::perfect(Dir::RT);
        let s = ch.start_states().remove(0);
        assert_eq!(ch.successors(&s, &DlAction::Wake(Dir::RT)), vec![s.clone()]);
        assert_eq!(
            ch.successors(&s, &DlAction::Crash(dl_core::action::Station::R)),
            vec![s.clone()]
        );
        assert!(ch.successors(&s, &DlAction::Wake(Dir::TR)).is_empty());
        assert_eq!(ch.dir(), Dir::RT);
    }

    #[test]
    fn ghost_preload_models_a_corrupted_configuration() {
        let ghosts = GhostSpec { count: 3, seed: 9 };
        let ch = FaultyChannel::perfect(Dir::TR).with_ghosts(ghosts);
        let s = ch.start_states().remove(0);
        // Deterministic, replayable from the spec alone.
        assert_eq!(s, ch.start_states().remove(0));
        assert_eq!(s.in_flight.len(), 3);
        assert_eq!(s.sends, 0);
        // Ghost uids sit in their reserved band, away from UNSTAMPED.
        for p in &s.in_flight {
            assert!(p.uid >= u64::MAX - 3 && p.uid != Packet::UNSTAMPED);
        }
        // Seeds decorrelate ghost streams.
        let other = FaultyChannel::perfect(Dir::TR).with_ghosts(GhostSpec { count: 3, seed: 10 });
        assert_ne!(other.start_states(), ch.start_states());
        // No ghosts ≡ the honest start.
        assert_eq!(
            FaultyChannel::perfect(Dir::TR)
                .with_ghosts(GhostSpec::none())
                .start_states(),
            FaultyChannel::perfect(Dir::TR).start_states()
        );
        // Ghosts are genuine in-flight packets: the head is deliverable.
        let head = s.in_flight[0];
        let t = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, head))
            .expect("ghost head deliverable");
        assert_eq!(t.in_flight.len(), 2);
    }

    #[test]
    fn transitions_are_deterministic() {
        let spec = FaultSpec {
            loss: 64,
            dup: 64,
            reorder: 3,
            burst_good: 4,
            burst_bad: 2,
            salt: 11,
        };
        let ch = FaultyChannel::new(Dir::TR, spec);
        let mut s = ch.start_states().remove(0);
        for i in 0..16 {
            let succs = ch.successors(&s, &DlAction::SendPkt(Dir::TR, pkt(i)));
            assert_eq!(succs.len(), 1, "send transitions must be deterministic");
            s = succs.into_iter().next().unwrap();
        }
    }
}
