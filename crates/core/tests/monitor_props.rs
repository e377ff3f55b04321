//! Differential tests: the streaming [`TraceMonitor`] and the
//! monitor-backed batch checkers against the frozen quadratic reference
//! implementation in `dl_core::spec::reference`.
//!
//! Three trace populations drive the comparison:
//!
//! * purely random action soup (adversarial: malformed wake/fail
//!   alternation, receives of unsent packets, duplicate uids, crashes);
//! * structured traces from a legality-biased builder (wake/fail cycles,
//!   FIFO-matched packet and message traffic — the deep, mostly
//!   well-formed paths batch checkers see in practice);
//! * structured traces with a random adversarial suffix spliced on.
//!
//! Every population must produce *identical* verdicts — including
//! violation payloads (property, index, reason) — between the streaming
//! and reference code paths, on the full trace and on every prefix.

use std::time::Instant;

use proptest::prelude::*;

use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use dl_core::spec::monitor::TraceMonitor;
use dl_core::spec::reference;
use dl_core::spec::wellformed::MediumTimeline;
use dl_core::spec::{datalink, physical};
use dl_core::spec::{datalink::DlModule, physical::PlModule};
use ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};

// ---------------------------------------------------------------------
// Trace generators.
// ---------------------------------------------------------------------

/// Arbitrary data-link actions over small alphabets (the adversarial
/// population; same shape as `spec_props.rs`).
fn action_strategy() -> impl Strategy<Value = DlAction> {
    let msg = (0u64..4).prop_map(Msg);
    let pkt = (0u64..3, 0u64..4, any::<bool>()).prop_map(|(seq, m, data)| {
        if data {
            Packet::data(seq, Msg(m)).with_uid(seq * 10 + m)
        } else {
            Packet::ack(seq).with_uid(100 + seq)
        }
    });
    prop_oneof![
        msg.clone().prop_map(DlAction::SendMsg),
        msg.prop_map(DlAction::ReceiveMsg),
        (prop_oneof![Just(Dir::TR), Just(Dir::RT)], pkt.clone())
            .prop_map(|(d, p)| DlAction::SendPkt(d, p)),
        (prop_oneof![Just(Dir::TR), Just(Dir::RT)], pkt)
            .prop_map(|(d, p)| DlAction::ReceivePkt(d, p)),
        prop_oneof![Just(Dir::TR), Just(Dir::RT)].prop_map(DlAction::Wake),
        prop_oneof![Just(Dir::TR), Just(Dir::RT)].prop_map(DlAction::Fail),
        prop_oneof![Just(Station::T), Just(Station::R)].prop_map(DlAction::Crash),
    ]
}

fn dir_index(d: Dir) -> usize {
    match d {
        Dir::TR => 0,
        Dir::RT => 1,
    }
}

/// Expands a byte string of choices into a legality-biased trace:
/// packet traffic only on up media and received in FIFO order, messages
/// delivered in send order, wake/fail strictly alternating, occasional
/// crashes.
fn structured_trace(choices: &[u8]) -> Vec<DlAction> {
    let mut out = vec![DlAction::Wake(Dir::TR), DlAction::Wake(Dir::RT)];
    let mut up = [true, true];
    let mut pending: [Vec<Packet>; 2] = [Vec::new(), Vec::new()];
    let mut undelivered: Vec<Msg> = Vec::new();
    let mut next_msg = 0u64;
    let mut uid = 0u64;
    for &c in choices {
        let d = if c & 1 == 0 { Dir::TR } else { Dir::RT };
        let di = dir_index(d);
        match (c >> 1) % 6 {
            0 => {
                out.push(DlAction::SendMsg(Msg(next_msg)));
                undelivered.push(Msg(next_msg));
                next_msg += 1;
            }
            1 => {
                if !undelivered.is_empty() {
                    out.push(DlAction::ReceiveMsg(undelivered.remove(0)));
                }
            }
            2 => {
                if up[di] {
                    uid += 1;
                    let p = Packet::data(uid % 5, Msg(uid % 7)).with_uid(uid);
                    pending[di].push(p);
                    out.push(DlAction::SendPkt(d, p));
                }
            }
            3 => {
                if up[di] && !pending[di].is_empty() {
                    out.push(DlAction::ReceivePkt(d, pending[di].remove(0)));
                }
            }
            4 => {
                if up[di] {
                    out.push(DlAction::Fail(d));
                } else {
                    out.push(DlAction::Wake(d));
                }
                up[di] = !up[di];
            }
            _ => {
                // Rare crash: downs the station's outgoing medium.
                if c.is_multiple_of(31) {
                    let s = if d == Dir::TR { Station::T } else { Station::R };
                    out.push(DlAction::Crash(s));
                    up[di] = false;
                }
            }
        }
    }
    out
}

/// Structured traces, optionally with an adversarial random suffix.
fn mixed_trace_strategy() -> impl Strategy<Value = Vec<DlAction>> {
    (
        prop::collection::vec(any::<u8>(), 0..48),
        prop::collection::vec(action_strategy(), 0..8),
    )
        .prop_map(|(choices, suffix)| {
            let mut t = structured_trace(&choices);
            t.extend(suffix);
            t
        })
}

fn random_trace_strategy() -> impl Strategy<Value = Vec<DlAction>> {
    prop::collection::vec(action_strategy(), 0..24)
}

/// Either population, so one proptest covers both.
fn any_trace_strategy() -> impl Strategy<Value = Vec<DlAction>> {
    prop_oneof![random_trace_strategy(), mixed_trace_strategy()]
}

/// Deterministic xorshift-driven structured trace of at least `n`
/// actions, for the scaling smoke test (and mirrored in the bench). The
/// builder drops infeasible choices, so choices are over-provisioned
/// until the trace is long enough.
fn synthetic_trace(n: usize, seed: u64) -> Vec<DlAction> {
    let mut budget = n + n / 2;
    loop {
        let mut s = seed;
        let mut choices = Vec::with_capacity(budget);
        while choices.len() < budget {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            choices.push((s >> 24) as u8);
        }
        let trace = structured_trace(&choices);
        if trace.len() >= n {
            return trace;
        }
        budget *= 2;
    }
}

// ---------------------------------------------------------------------
// Differential properties.
// ---------------------------------------------------------------------

proptest! {
    /// The monitor-backed `PlModule` equals the quadratic reference —
    /// verdict kind *and* violation payload — on both directions and
    /// both FIFO settings.
    #[test]
    fn pl_module_matches_reference(trace in any_trace_strategy()) {
        for dir in [Dir::TR, Dir::RT] {
            for fifo in [false, true] {
                let module = if fifo { PlModule::pl_fifo(dir) } else { PlModule::pl(dir) };
                let streaming = module.check(&trace, TraceKind::Complete);
                let oracle = reference::pl_check(&trace, dir, fifo);
                prop_assert_eq!(streaming, oracle, "dir {:?} fifo {}", dir, fifo);
            }
        }
    }

    /// The monitor-backed `DlModule` equals the reference on both
    /// strengths and both trace kinds.
    #[test]
    fn dl_module_matches_reference(trace in any_trace_strategy()) {
        for weak in [false, true] {
            let module = if weak { DlModule::weak() } else { DlModule::full() };
            for kind in [TraceKind::Prefix, TraceKind::Complete] {
                let streaming = module.check(&trace, kind);
                let oracle = reference::dl_check(&trace, weak, kind);
                prop_assert_eq!(streaming, oracle, "weak {} kind {:?}", weak, kind);
            }
        }
    }

    /// The standalone checker functions equal their reference twins,
    /// including the multiset `in_transit`.
    #[test]
    fn standalone_checkers_match_reference(trace in any_trace_strategy()) {
        for dir in [Dir::TR, Dir::RT] {
            let tl = MediumTimeline::scan(&trace, dir);
            prop_assert_eq!(physical::check_pl1(&trace, &tl, dir), reference::check_pl1(&trace, &tl, dir));
            prop_assert_eq!(physical::check_pl2(&trace, dir), reference::check_pl2(&trace, dir));
            prop_assert_eq!(physical::check_pl3(&trace, dir), reference::check_pl3(&trace, dir));
            prop_assert_eq!(physical::check_pl4(&trace, dir), reference::check_pl4(&trace, dir));
            prop_assert_eq!(physical::check_pl5(&trace, dir), reference::check_pl5(&trace, dir));
            prop_assert_eq!(physical::in_transit(&trace, dir), reference::in_transit(&trace, dir));
        }
        let tx = MediumTimeline::scan(&trace, Dir::TR);
        prop_assert_eq!(datalink::check_dl2(&trace, &tx), reference::check_dl2(&trace, &tx));
        prop_assert_eq!(datalink::check_dl3(&trace), reference::check_dl3(&trace));
        prop_assert_eq!(datalink::check_dl4(&trace), reference::check_dl4(&trace));
        prop_assert_eq!(datalink::check_dl5(&trace), reference::check_dl5(&trace));
        prop_assert_eq!(datalink::check_dl6(&trace), reference::check_dl6(&trace));
        prop_assert_eq!(datalink::check_dl8(&trace, &tx), reference::check_dl8(&trace, &tx));
        // DL7's interval grouping matches the reference on well-formed
        // transmitter timelines; on malformed ones the module verdict is
        // vacuous before DL7 is consulted, and the standalone function
        // is documented best-effort.
        if tx.is_well_formed() {
            prop_assert_eq!(datalink::check_dl7(&trace), reference::check_dl7(&trace, &tx));
        }
    }

    /// One incrementally-fed monitor reproduces the reference verdicts
    /// at *every* prefix — the tentpole guarantee that batch-on-prefix
    /// and streaming are the same judgement.
    #[test]
    fn incremental_monitor_matches_reference_on_every_prefix(trace in any_trace_strategy()) {
        let mut mon = TraceMonitor::new();
        for (i, a) in trace.iter().enumerate() {
            mon.observe(a);
            let prefix = &trace[..=i];
            for dir in [Dir::TR, Dir::RT] {
                for fifo in [false, true] {
                    prop_assert_eq!(
                        mon.pl_verdict(dir, fifo),
                        reference::pl_check(prefix, dir, fifo),
                        "prefix {} dir {:?} fifo {}", i, dir, fifo
                    );
                }
            }
            for weak in [false, true] {
                for kind in [TraceKind::Prefix, TraceKind::Complete] {
                    prop_assert_eq!(
                        mon.dl_verdict(weak, kind),
                        reference::dl_check(prefix, weak, kind),
                        "prefix {} weak {} kind {:?}", i, weak, kind
                    );
                }
            }
        }
    }

    /// When the online filter fires mid-trace, the violation it hands
    /// back is exactly the `Violated` payload some batch module reports
    /// on that prefix — or, for DL conclusions, the batch verdict is at
    /// worst `Vacuous(DL1)` (the one end-of-trace hypothesis the online
    /// filter deliberately ignores, since a later wake restores it while
    /// the violation persists).
    #[test]
    fn online_violation_agrees_with_some_batch_module(
        trace in any_trace_strategy(),
        full_dl in any::<bool>(),
        fifo in any::<bool>(),
    ) {
        let mut mon = TraceMonitor::new();
        for (i, a) in trace.iter().enumerate() {
            mon.observe(a);
            let Some(v) = mon.online_violation(full_dl, fifo) else { continue };
            let v = v.clone();
            let prefix = &trace[..=i];
            let mut matched = false;
            for dir in [Dir::TR, Dir::RT] {
                let module = if fifo { PlModule::pl_fifo(dir) } else { PlModule::pl(dir) };
                if let Verdict::Violated(x) = module.check(prefix, TraceKind::Prefix) {
                    matched |= x == v;
                }
            }
            let dl_module = if full_dl { DlModule::full() } else { DlModule::weak() };
            match dl_module.check(prefix, TraceKind::Prefix) {
                Verdict::Violated(x) => matched |= x == v,
                Verdict::Vacuous(x) => matched |= x.property == "DL1",
                Verdict::Satisfied => {}
            }
            prop_assert!(matched, "online {:?} unexplained by batch at prefix {}", v, i);
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Scaling smoke: linear growth guard for `scripts/check.sh`.
// ---------------------------------------------------------------------

/// One full monitor pass (all verdict families) over a 10⁵-action
/// structured trace must be fast — the quadratic legacy checkers took
/// seconds-to-minutes here. The bound is deliberately loose (CI noise,
/// debug builds); a quadratic regression overshoots it by orders of
/// magnitude.
#[test]
fn scaling_smoke() {
    let trace = synthetic_trace(100_000, 0x5eed);
    assert!(trace.len() >= 100_000, "builder emitted {}", trace.len());
    let t0 = Instant::now();
    let mon = TraceMonitor::scan(&trace);
    let mut verdicts = Vec::new();
    for dir in [Dir::TR, Dir::RT] {
        for fifo in [false, true] {
            verdicts.push(mon.pl_verdict(dir, fifo));
        }
    }
    for weak in [false, true] {
        for kind in [TraceKind::Prefix, TraceKind::Complete] {
            verdicts.push(mon.dl_verdict(weak, kind));
        }
    }
    let elapsed = t0.elapsed();
    assert_eq!(verdicts.len(), 8);
    assert!(
        elapsed.as_secs_f64() < 10.0,
        "streaming pass over {} actions took {elapsed:?} — linear checkers regressed",
        trace.len()
    );
}
