//! Fleet specifications: everything a replayable fleet is a function of.
//!
//! A fleet is fully determined by a [`FleetSpec`] — in particular by its
//! one `seed`. Every per-session quantity (runner seed, fault salts,
//! crash inclusion, crash placement) is a documented pure function of
//! `(seed, session id)` computed by [`session_config`], so any single
//! session can be rebuilt in isolation — which is exactly what the
//! fleet-vs-independent-runners differential suite does.

use dl_channels::{CorruptSpec, FaultSpec};
use dl_core::action::Station;
use dl_sim::{Script, ScriptStep};

/// One protocol of the zoo, as a fleet-schedulable kind: the zoo
/// registry itself, so fleet specs, fuzz targets and ledgers share its
/// stable names.
pub use dl_protocols::Zoo as ProtocolKind;

/// The whole fleet, as configuration: `(seed, spec)` replays exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetSpec {
    /// The one fleet seed every per-session quantity derives from.
    pub seed: u64,
    /// How many sessions to run (ids `0..sessions`).
    pub sessions: u64,
    /// The protocol mix; session `id` runs `protocols[id % len]`.
    pub protocols: Vec<ProtocolKind>,
    /// Messages each session delivers end-to-end.
    pub msgs_per_session: u64,
    /// Per-256 probability that a session's script includes a mid-run
    /// station crash (hash-decided per session; `0` disables crashes).
    /// [`ProtocolKind::Stabilizing`] sessions are always crash-free:
    /// their memory is volatile by design, so crash-loss is outside the
    /// stabilization claim being measured.
    pub crash_per256: u8,
    /// Per-256 probability that a [`ProtocolKind::Stabilizing`] session
    /// starts from a *corrupted initial configuration* (hash-decided per
    /// session): skewed station counters plus ghost packets pre-loaded
    /// into both channels, all derived from `(seed, id)`. Sessions of
    /// every other kind ignore the knob — corruption density is a
    /// property of the stabilizing fault class only.
    pub corruption_per256: u8,
    /// Fault-knob template for every channel; per-channel salts are
    /// derived via [`FaultSpec::derive`] so no two channels in the fleet
    /// share a fault schedule.
    pub faults: FaultSpec,
    /// Attach an online `TraceMonitor` sidecar to every session
    /// (first-violation abort plus per-session complete-trace verdicts).
    pub monitor: bool,
    /// Global step bound per session.
    pub max_steps: usize,
    /// Workers, one thread each (a single worker runs on the calling
    /// thread); per-session results and fleet counters are
    /// worker-count-independent by construction.
    pub workers: usize,
    /// Sessions resident per worker at a time — bounds peak memory, so a
    /// 10⁶-session fleet never materializes 10⁶ live sessions.
    pub chunk: usize,
    /// Actions per session per round-robin turn within a chunk.
    pub batch: usize,
}

impl Default for FleetSpec {
    fn default() -> Self {
        FleetSpec {
            seed: 0,
            sessions: 100,
            protocols: ProtocolKind::CLASSIC.to_vec(),
            msgs_per_session: 4,
            crash_per256: 32,
            corruption_per256: 192,
            faults: FaultSpec {
                loss: 32,
                dup: 8,
                reorder: 2,
                burst_good: 0,
                burst_bad: 0,
                salt: 0,
            },
            monitor: true,
            max_steps: 4_000,
            workers: 1,
            chunk: 1_024,
            batch: 64,
        }
    }
}

/// Splitmix64-style two-input mix, the same family `FaultyChannel` uses
/// for fate decisions. Local copy: the derivations below are part of the
/// replay contract and must not drift if the channel's internals do.
fn mix(a: u64, b: u64) -> u64 {
    let mut z = a
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(b.wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Domain separators so the seed/crash/station/corruption streams
/// decorrelate.
const DOMAIN_SEED: u64 = 0x5EED;
const DOMAIN_CRASH: u64 = 0xC4A5;
const DOMAIN_STATION: u64 = 0x57A7;
const DOMAIN_CORRUPT: u64 = 0xC02F;

/// A derived corrupted initial configuration for one stabilizing session:
/// skewed station counters plus per-direction [`CorruptSpec`] channel
/// states (bounded capacity, ghost packets, loss). A clean stabilizing
/// session carries zeros everywhere except the channel loss knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptionSpec {
    /// The transmitter's initial sequence counter.
    pub tx_seq: u64,
    /// The receiver's initial expectation counter (`>= tx_seq`; the
    /// difference is the message budget the convergence climb may
    /// consume).
    pub rx_expected: u64,
    /// Channel configurations `(t→r, r→t)`.
    pub channels: [CorruptSpec; 2],
}

impl CorruptionSpec {
    /// Messages the corrupted counters entitle the convergence climb to
    /// consume: sends beyond this budget must be delivered.
    #[must_use]
    pub fn budget(&self) -> u64 {
        self.rx_expected.saturating_sub(self.tx_seq)
    }

    /// `true` if this is a clean start (no counter skew, no ghosts).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.tx_seq == 0 && self.rx_expected == 0 && self.channels.iter().all(|c| c.ghosts == 0)
    }
}

/// Everything one session is a function of, derived from the fleet spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionConfig {
    /// The session id (`0..spec.sessions`).
    pub id: u64,
    /// Which protocol this session runs.
    pub protocol: ProtocolKind,
    /// The session's own runner seed (RNG stream).
    pub seed: u64,
    /// Per-direction fault schedules `(t→r, r→t)`, salts derived from
    /// the fleet seed via [`FaultSpec::derive`] with session ids `2·id`
    /// and `2·id + 1`.
    pub faults: [FaultSpec; 2],
    /// The environment script (wake, sends, optional crash, settle),
    /// shared with the session built from this config.
    pub script: Script,
    /// `true` if the script contains a crash (such sessions are judged
    /// for safety only, never DL8 liveness).
    pub crashed: bool,
    /// The derived corrupted initial configuration — `Some` exactly for
    /// [`ProtocolKind::Stabilizing`] sessions (possibly clean, when the
    /// per-session corruption hash says so), `None` for every other kind.
    pub corruption: Option<CorruptionSpec>,
}

/// Derives session `id`'s full configuration from the fleet spec — the
/// documented replay contract.
///
/// # Panics
///
/// Panics if the spec's protocol mix is empty.
#[must_use]
pub fn session_config(spec: &FleetSpec, id: u64) -> SessionConfig {
    assert!(
        !spec.protocols.is_empty(),
        "fleet spec needs at least one protocol"
    );
    let protocol = spec.protocols[(id % spec.protocols.len() as u64) as usize];
    let seed = mix(spec.seed ^ DOMAIN_SEED, id);
    let faults = [
        spec.faults.derive(spec.seed, 2 * id),
        spec.faults.derive(spec.seed, 2 * id + 1),
    ];
    let crashed = spec.crash_per256 > 0
        && spec.msgs_per_session > 0
        && protocol != ProtocolKind::Stabilizing
        && (mix(spec.seed ^ DOMAIN_CRASH, id) & 0xFF) < u64::from(spec.crash_per256);
    let corruption = (protocol == ProtocolKind::Stabilizing).then(|| {
        let h = mix(spec.seed ^ DOMAIN_CORRUPT, id);
        let capacity = dl_protocols::stabilizing::DEFAULT_CAPACITY as u8;
        let corrupted = (h & 0xFF) < u64::from(spec.corruption_per256);
        let tx_seq = if corrupted { (h >> 8) & 0x7 } else { 0 };
        CorruptionSpec {
            tx_seq,
            rx_expected: tx_seq + if corrupted { (h >> 11) & 0x7 } else { 0 },
            channels: [0u64, 1].map(|lane| CorruptSpec {
                capacity,
                ghosts: if corrupted {
                    ((h >> (14 + 2 * lane)) & 0x3) as u8
                } else {
                    0
                },
                loss: faults[lane as usize].loss,
                seed: mix(h, 2 * id + lane),
            }),
        }
    });
    let msgs = spec.msgs_per_session;
    let script = if crashed {
        let station = if mix(spec.seed ^ DOMAIN_STATION, id) & 1 == 0 {
            Station::T
        } else {
            Station::R
        };
        let before = msgs.div_ceil(2);
        // One chain of known length, so the script takes one allocation.
        ScriptStep::WAKE_BOTH
            .into_iter()
            .chain(ScriptStep::sends(0..before))
            .chain([ScriptStep::Local(6)])
            .chain(ScriptStep::crash_and_rewake(station))
            .chain(ScriptStep::sends(before..msgs))
            .chain([ScriptStep::Settle])
            .collect()
    } else {
        Script::deliver_n(msgs)
    };
    SessionConfig {
        id,
        protocol,
        seed,
        faults,
        script,
        crashed,
        corruption,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn session_configs_are_stable_and_decorrelated() {
        let spec = FleetSpec::default();
        let a = session_config(&spec, 17);
        let b = session_config(&spec, 17);
        assert_eq!(a, b, "derivation must be a pure function");

        let c = session_config(&spec, 18);
        assert_ne!(a.seed, c.seed);
        assert_ne!(a.faults[0].salt, c.faults[0].salt);
        assert_ne!(a.faults[0].salt, a.faults[1].salt, "directions decorrelate");

        let other = FleetSpec {
            seed: spec.seed + 1,
            ..spec
        };
        let d = session_config(&other, 17);
        assert_ne!(a.seed, d.seed, "fleet seed reaches every session");
    }

    #[test]
    fn crash_sessions_follow_the_knob() {
        let mut spec = FleetSpec {
            crash_per256: 0,
            ..FleetSpec::default()
        };
        assert!((0..64).all(|id| !session_config(&spec, id).crashed));
        spec.crash_per256 = 255;
        let crashed = (0..64)
            .filter(|&id| session_config(&spec, id).crashed)
            .count();
        assert!(crashed > 56, "255/256 should crash nearly all: {crashed}");
        // Crash scripts stay well-formed: crash then rewake, and the full
        // message budget is still injected.
        let cfg = session_config(&spec, 0);
        assert_eq!(
            cfg.script.input_count() as u64,
            2 + spec.msgs_per_session + 2
        );
    }

    #[test]
    fn the_default_mix_is_the_frozen_classic_nine() {
        assert_eq!(FleetSpec::default().protocols, ProtocolKind::CLASSIC);
    }

    #[test]
    fn only_stabilizing_sessions_carry_corruption() {
        let spec = FleetSpec {
            protocols: ProtocolKind::ALL.to_vec(),
            corruption_per256: 255,
            ..FleetSpec::default()
        };
        for id in 0..40 {
            let cfg = session_config(&spec, id);
            assert_eq!(
                cfg.corruption.is_some(),
                cfg.protocol == ProtocolKind::Stabilizing,
                "session {id}"
            );
        }
    }

    #[test]
    fn stabilizing_sessions_are_always_crash_free() {
        let spec = FleetSpec {
            protocols: vec![ProtocolKind::Stabilizing],
            crash_per256: 255,
            ..FleetSpec::default()
        };
        assert!((0..64).all(|id| !session_config(&spec, id).crashed));
    }

    #[test]
    fn corruption_density_follows_the_knob() {
        let clean = FleetSpec {
            protocols: vec![ProtocolKind::Stabilizing],
            corruption_per256: 0,
            ..FleetSpec::default()
        };
        for id in 0..64 {
            let c = session_config(&clean, id).corruption.unwrap();
            assert!(c.is_clean(), "knob 0 must mean clean starts");
            assert_eq!(c.budget(), 0);
        }
        let dense = FleetSpec {
            corruption_per256: 255,
            ..clean
        };
        let corrupted = (0..64)
            .filter(|&id| !session_config(&dense, id).corruption.unwrap().is_clean())
            .count();
        assert!(corrupted > 48, "255/256 density too low: {corrupted}");
        // Derived ghost populations respect the channel capacity, and the
        // counter skew keeps the budget small enough to converge within a
        // default session's message budget window.
        for id in 0..64 {
            let c = session_config(&dense, id).corruption.unwrap();
            for ch in c.channels {
                assert!(ch.ghost_count() as u64 <= u64::from(ch.capacity));
            }
            assert!(c.budget() <= 7);
            assert!(c.rx_expected >= c.tx_seq);
        }
        // The two directions' ghost seeds decorrelate.
        let c = session_config(&dense, 0).corruption.unwrap();
        assert_ne!(c.channels[0].seed, c.channels[1].seed);
    }
}
