//! The corrupted-initial-configuration channel: bounded capacity,
//! non-FIFO delivery, and **arbitrary initial contents**.
//!
//! [`FaultyChannel`](crate::faulty::FaultyChannel) models a misbehaving
//! medium that starts empty. [`CorruptChannel`] models the strictly
//! richer fault class of the self-stabilization literature (arXiv
//! 1011.3632): at time zero the channel already holds up to `capacity`
//! arbitrary "ghost" packets — debris of a corrupted initial
//! configuration — and delivery is non-FIFO over the *whole* in-flight
//! multiset. Three properties are load-bearing for the stabilizing
//! protocol's counting argument and are guaranteed here by construction:
//!
//! * **bounded capacity** — a send while `capacity` packets are in
//!   flight is dropped, so the in-flight population never exceeds the
//!   bound the protocol's `capacity + 1` counting discipline assumes;
//! * **no duplication** — every in-flight packet is delivered at most
//!   once, so at most `capacity` copies of any value can ever be ghosts;
//! * **determinism** — ghost contents and per-send loss decisions are
//!   pure hashes of the [`CorruptSpec`], so corrupted runs replay
//!   byte-identically from `(seed, spec)` exactly like `FaultyChannel`
//!   runs do.
//!
//! Ghost receives are physical-layer violations by design (a ghost was
//! never sent, so PL4 trips): judge corrupted runs with data-link-only
//! monitoring in suffix mode (`dl_core::spec::stabilize`).

use std::ops::ControlFlow;

use ioa::action::ActionClass;
use ioa::automaton::{Automaton, Deterministic, TaskId};

use dl_core::action::{Dir, DlAction, Msg, Packet};
use dl_core::protocol::channel_classify;

use crate::faulty::mix;
use crate::simulated::FlightState;

/// Ghost uids live far above any uid a runner will ever stamp, so a
/// ghost never cancels a genuine send in the monitor's transit multiset.
const GHOST_UID_BASE: u64 = 1 << 62;

/// Ghost payloads live in their own message-value space, so a ghost
/// delivery is visibly a never-sent message (DL5 — pre-convergence noise
/// the suffix monitor absorbs) rather than a spurious hit on real
/// traffic.
const GHOST_MSG_BASE: u64 = 0x6005_7000;

/// Configuration of one [`CorruptChannel`].
///
/// `Copy + Eq + Hash` so the whole block can ride inside fuzzer genomes,
/// exactly like [`crate::faulty::FaultSpec`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CorruptSpec {
    /// Capacity bound `C`: the in-flight population never exceeds it
    /// (overflow sends are dropped), and at most `C` ghosts exist.
    pub capacity: u8,
    /// How many ghost packets the channel starts with (truncated to
    /// `capacity`).
    pub ghosts: u8,
    /// Per-256 probability that a (non-overflow) send is dropped.
    pub loss: u8,
    /// Seeds both the ghost contents and the per-send loss stream.
    pub seed: u64,
}

impl CorruptSpec {
    /// An empty-start, loss-free specification: a perfect bounded
    /// non-FIFO channel.
    #[must_use]
    pub fn clean(capacity: u8) -> Self {
        CorruptSpec {
            capacity,
            ghosts: 0,
            loss: 0,
            seed: 0,
        }
    }

    /// Derives the per-session variant of this specification: the same
    /// knobs with the seed replaced by a pure function of
    /// `(self.seed, salt, session_id)` — the same sanctioned fan-out
    /// contract as [`crate::faulty::FaultSpec::derive`].
    #[must_use]
    pub fn derive(&self, salt: u64, session_id: u64) -> CorruptSpec {
        CorruptSpec {
            seed: mix(mix(salt, self.seed), session_id),
            ..*self
        }
    }

    /// The effective ghost count (never above capacity).
    #[must_use]
    pub fn ghost_count(&self) -> usize {
        self.ghosts.min(self.capacity) as usize
    }

    /// The deterministic ghost packets this spec starts `dir` with.
    ///
    /// Ghosts are adversarial along both axes the stabilizing protocol
    /// must defend: data ghosts carry small sequence numbers (so they
    /// compete with real candidates at the receiver) but never-sent
    /// payloads; ack ghosts carry small sequence numbers (so they count
    /// toward — but can never complete — the transmitter's `C + 1` ack
    /// tally).
    #[must_use]
    pub fn ghost_packets(&self, dir: Dir) -> Vec<Packet> {
        let dir_sep = match dir {
            Dir::TR => 0x7121,
            Dir::RT => 0x1217,
        };
        (0..self.ghost_count() as u64)
            .map(|i| {
                let h = mix(self.seed ^ dir_sep, i);
                let seq = h & 0x7;
                let p = if h & 0x8 == 0 {
                    Packet::data(seq, Msg(GHOST_MSG_BASE + (h >> 4 & 0x7)))
                } else {
                    Packet::ack(seq)
                };
                p.with_uid(GHOST_UID_BASE + (h >> 1))
            })
            .collect()
    }

    /// `true` if send number `n` (0-based) is dropped by the loss knob.
    #[must_use]
    pub fn dropped(&self, n: u64) -> bool {
        (mix(self.seed ^ 0x1055, n) & 0xFF) < u64::from(self.loss)
    }
}

/// A bounded-capacity non-FIFO channel that may start corrupted (see the
/// module docs). State is the shared [`FlightState`]; every transition
/// has exactly one successor, so — like every simulated channel — it
/// adds no nondeterminism beyond the executor's delivery choices.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptChannel {
    dir: Dir,
    spec: CorruptSpec,
}

impl CorruptChannel {
    /// A channel in `dir` with the given corruption spec.
    #[must_use]
    pub fn new(dir: Dir, spec: CorruptSpec) -> Self {
        CorruptChannel { dir, spec }
    }

    /// This channel's direction.
    #[must_use]
    pub fn dir(&self) -> Dir {
        self.dir
    }

    /// This channel's corruption spec.
    #[must_use]
    pub fn spec(&self) -> CorruptSpec {
        self.spec
    }
}

impl Deterministic for CorruptChannel {
    fn enabled(&self, s: &FlightState, a: &DlAction) -> bool {
        match a {
            DlAction::SendPkt(d, _) | DlAction::Wake(d) | DlAction::Fail(d) => *d == self.dir,
            // Non-FIFO: any in-flight packet is deliverable.
            DlAction::ReceivePkt(d, p) => *d == self.dir && s.in_flight.contains(p),
            DlAction::Crash(x) => *x == self.dir.sender(),
            _ => false,
        }
    }

    fn apply(&self, s: &mut FlightState, a: &DlAction) {
        match a {
            DlAction::SendPkt(_, p) => {
                let overflow = s.in_flight.len() >= self.spec.capacity as usize;
                if !overflow && !self.spec.dropped(s.sends) {
                    s.in_flight.push(*p);
                }
                s.sends += 1;
            }
            // The first match is removed: delivered at most once, no
            // duplication.
            DlAction::ReceivePkt(_, p) => {
                let k = s
                    .in_flight
                    .iter()
                    .position(|q| q == p)
                    .expect("guarded by `enabled`");
                s.in_flight.remove(k);
            }
            // `wake`, `fail` and the sender's crash leave the medium as it is.
            _ => {}
        }
    }
}

impl Automaton for CorruptChannel {
    type Action = DlAction;
    type State = FlightState;

    fn start_states(&self) -> Vec<FlightState> {
        vec![self.start_state()]
    }

    fn start_state(&self) -> FlightState {
        FlightState {
            in_flight: self.spec.ghost_packets(self.dir),
            sends: 0,
        }
    }

    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        channel_classify(self.dir, a)
    }

    ioa::deterministic_transitions!();

    fn enabled_local(&self, s: &FlightState) -> Vec<DlAction> {
        let mut out = Vec::with_capacity(s.in_flight.len());
        for p in &s.in_flight {
            let a = DlAction::ReceivePkt(self.dir, *p);
            if !out.contains(&a) {
                out.push(a);
            }
        }
        out
    }

    fn for_each_enabled_local(
        &self,
        s: &FlightState,
        f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        // First-occurrence dedup without a scratch Vec: in-flight
        // populations are capacity-bounded (≤ 255), so the quadratic
        // scan is cheaper than an allocation.
        for (i, p) in s.in_flight.iter().enumerate() {
            if s.in_flight[..i].iter().any(|q| q == p) {
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

    fn pkt(n: u64) -> Packet {
        Packet::data(n, Msg(n)).with_uid(n + 100)
    }

    fn corrupted(ghosts: u8) -> CorruptChannel {
        CorruptChannel::new(
            Dir::TR,
            CorruptSpec {
                capacity: 4,
                ghosts,
                loss: 0,
                seed: 11,
            },
        )
    }

    #[test]
    fn starts_with_deterministic_ghosts() {
        let ch = corrupted(3);
        let a = ch.start_states().remove(0);
        let b = ch.start_states().remove(0);
        assert_eq!(a, b, "ghost contents must be a pure function of the spec");
        assert_eq!(a.in_flight.len(), 3);
        for g in &a.in_flight {
            assert!(g.uid >= GHOST_UID_BASE, "ghost uid collides: {g}");
        }
        // A different seed draws different debris.
        let other = CorruptChannel::new(
            Dir::TR,
            CorruptSpec {
                seed: 12,
                ..ch.spec()
            },
        );
        assert_ne!(other.start_states().remove(0).in_flight, a.in_flight);
    }

    #[test]
    fn ghost_count_is_capacity_bounded() {
        let ch = CorruptChannel::new(
            Dir::TR,
            CorruptSpec {
                capacity: 2,
                ghosts: 200,
                loss: 0,
                seed: 5,
            },
        );
        assert_eq!(ch.start_states().remove(0).in_flight.len(), 2);
    }

    #[test]
    fn capacity_bounds_the_in_flight_population() {
        let ch = CorruptChannel::new(Dir::TR, CorruptSpec::clean(2));
        let mut s = ch.start_states().remove(0);
        for i in 0..5 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(i)))
                .unwrap();
        }
        assert_eq!(s.in_flight.len(), 2, "overflow sends are dropped");
        assert_eq!(s.sends, 5, "the send counter still advances");
        assert_eq!(s.in_flight, vec![pkt(0), pkt(1)]);
    }

    #[test]
    fn delivery_is_non_fifo_and_never_duplicates() {
        let ch = CorruptChannel::new(Dir::TR, CorruptSpec::clean(4));
        let mut s = ch.start_states().remove(0);
        for i in 0..3 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(i)))
                .unwrap();
        }
        // Every in-flight packet is deliverable, not just the head.
        assert_eq!(ch.enabled_local(&s).len(), 3);
        let t = ch
            .step_first(&s, &DlAction::ReceivePkt(Dir::TR, pkt(2)))
            .unwrap();
        assert_eq!(t.in_flight, vec![pkt(0), pkt(1)]);
        // Delivered at most once: the same receive is now disabled.
        assert!(ch
            .successors(&t, &DlAction::ReceivePkt(Dir::TR, pkt(2)))
            .is_empty());
    }

    #[test]
    fn loss_is_deterministic_per_send_index() {
        let spec = CorruptSpec {
            capacity: 8,
            ghosts: 0,
            loss: 128,
            seed: 3,
        };
        let drops = (0..256).filter(|&n| spec.dropped(n)).count();
        assert!((64..192).contains(&drops), "drops = {drops}");
        let ch = CorruptChannel::new(Dir::TR, spec);
        let mut s = ch.start_states().remove(0);
        for i in 0..8 {
            s = ch
                .step_first(&s, &DlAction::SendPkt(Dir::TR, pkt(i)))
                .unwrap();
        }
        let survivors: Vec<u64> = (0..8).filter(|&n| !spec.dropped(n)).collect();
        assert_eq!(
            s.in_flight,
            survivors.iter().map(|&n| pkt(n)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn derive_decorrelates_sessions_and_keeps_knobs() {
        let base = CorruptSpec {
            capacity: 3,
            ghosts: 2,
            loss: 32,
            seed: 9,
        };
        assert_eq!(base.derive(1, 2), base.derive(1, 2));
        let d = base.derive(1, 2);
        assert_eq!(
            (d.capacity, d.ghosts, d.loss),
            (base.capacity, base.ghosts, base.loss)
        );
        assert_ne!(d.seed, base.derive(1, 3).seed);
        assert_ne!(d.seed, base.derive(2, 2).seed);
    }

    #[test]
    fn ghosts_are_direction_separated() {
        let spec = CorruptSpec {
            capacity: 4,
            ghosts: 4,
            loss: 0,
            seed: 21,
        };
        assert_ne!(spec.ghost_packets(Dir::TR), spec.ghost_packets(Dir::RT));
    }
}
