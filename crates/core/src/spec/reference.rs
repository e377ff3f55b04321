//! Frozen **reference** checkers: the executable specification.
//!
//! These are the original batch checkers, kept as a clarity-first,
//! independently-written second implementation (with the same
//! duplicate-poisoning semantics the streaming monitor uses — see
//! [`crate::spec::monitor`]). They deliberately retain the quadratic value
//! scans of the originals (`Vec::contains`, per-interval trace scans,
//! linear interval membership), which makes them:
//!
//! * the oracle of the differential test suite — the streaming
//!   [`TraceMonitor`](crate::spec::monitor::TraceMonitor) must agree with
//!   them on every trace, and the two implementations share no code; and
//! * the baseline of the `monitor/e11` ledger run in `dl-bench`, which
//!   holds the linear monitor's speedup on long traces to at least 10×.
//!
//! Production code should use the monitor-backed wrappers in
//! [`crate::spec::physical`] and [`crate::spec::datalink`]; nothing outside
//! tests and ledger runs should need this module.

use std::collections::{HashMap, HashSet};

use ioa::schedule_module::{TraceKind, Verdict, Violation};

use crate::action::{Dir, DlAction, Msg, Packet};
use crate::spec::wellformed::{scan_both, MediumTimeline, WorkingInterval};

/// Linear-scan interval membership, as the original checkers did it (the
/// [`MediumTimeline`] method itself is optimized now).
fn in_any_interval(tl: &MediumTimeline, i: usize) -> bool {
    tl.intervals().iter().any(|w| w.contains(i))
}

/// Reference PL1: every `send_pkt^{d}` occurs in a working interval.
#[must_use]
pub fn check_pl1(trace: &[DlAction], timeline: &MediumTimeline, dir: Dir) -> Option<Violation> {
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendPkt(d, _) = a {
            if *d == dir && !in_any_interval(timeline, i) {
                return Some(Violation {
                    property: "PL1",
                    at: Some(i),
                    reason: format!("send_pkt^{dir} outside any working interval"),
                });
            }
        }
    }
    None
}

/// Reference PL2: every packet is sent at most once.
#[must_use]
pub fn check_pl2(trace: &[DlAction], dir: Dir) -> Option<Violation> {
    let mut seen: Vec<&Packet> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendPkt(d, p) = a {
            if *d == dir {
                if seen.contains(&p) {
                    return Some(Violation {
                        property: "PL2",
                        at: Some(i),
                        reason: format!("packet {p} sent twice"),
                    });
                }
                seen.push(p);
            }
        }
    }
    None
}

/// Reference PL3: every packet is received at most once.
#[must_use]
pub fn check_pl3(trace: &[DlAction], dir: Dir) -> Option<Violation> {
    let mut seen: Vec<&Packet> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::ReceivePkt(d, p) = a {
            if *d == dir {
                if seen.contains(&p) {
                    return Some(Violation {
                        property: "PL3",
                        at: Some(i),
                        reason: format!("packet {p} received twice"),
                    });
                }
                seen.push(p);
            }
        }
    }
    None
}

/// Reference PL4: every received packet was previously sent.
#[must_use]
pub fn check_pl4(trace: &[DlAction], dir: Dir) -> Option<Violation> {
    let mut sent: Vec<&Packet> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        match a {
            DlAction::SendPkt(d, p) if *d == dir => sent.push(p),
            DlAction::ReceivePkt(d, p) if *d == dir && !sent.contains(&p) => {
                return Some(Violation {
                    property: "PL4",
                    at: Some(i),
                    reason: format!("packet {p} received but never sent"),
                });
            }
            _ => {}
        }
    }
    None
}

/// Reference PL5 (FIFO): delivered packets arrive in send order.
///
/// Duplicate-poisoning semantics: a duplicate send or a receive of a
/// never-sent packet ends FIFO judgement (violations found before that
/// point were already returned).
#[must_use]
pub fn check_pl5(trace: &[DlAction], dir: Dir) -> Option<Violation> {
    let mut send_pos: HashMap<&Packet, usize> = HashMap::new();
    let mut sends = 0usize;
    let mut last_pos: Option<usize> = None;
    for (i, a) in trace.iter().enumerate() {
        match a {
            DlAction::SendPkt(d, p) if *d == dir => {
                if send_pos.insert(p, sends).is_some() {
                    return None; // duplicate send: PL2's violation to report
                }
                sends += 1;
            }
            DlAction::ReceivePkt(d, p) if *d == dir => {
                let pos = *send_pos.get(p)?; // never sent: PL4's violation
                if let Some(prev) = last_pos {
                    if pos < prev {
                        return Some(Violation {
                            property: "PL5 (FIFO)",
                            at: Some(i),
                            reason: format!(
                                "packet {p} (send position {pos}) received after a packet \
                                 with send position {prev}"
                            ),
                        });
                    }
                }
                last_pos = Some(pos);
            }
            _ => {}
        }
    }
    None
}

/// Reference in-transit multiset: for each packet value, the last
/// `sends − receives` copies (clamped at zero) are pending, in send order.
#[must_use]
pub fn in_transit(trace: &[DlAction], dir: Dir) -> Vec<Packet> {
    let mut recv_count: HashMap<Packet, usize> = HashMap::new();
    for a in trace {
        if let DlAction::ReceivePkt(d, p) = a {
            if *d == dir {
                *recv_count.entry(*p).or_insert(0) += 1;
            }
        }
    }
    let mut pending = Vec::new();
    for a in trace {
        if let DlAction::SendPkt(d, p) = a {
            if *d == dir {
                match recv_count.get_mut(p) {
                    Some(n) if *n > 0 => *n -= 1, // cancelled by a receive
                    _ => pending.push(*p),
                }
            }
        }
    }
    pending
}

/// Reference DL2: every `send_msg` occurs in a transmitter working
/// interval.
#[must_use]
pub fn check_dl2(trace: &[DlAction], tx: &MediumTimeline) -> Option<Violation> {
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendMsg(m) = a {
            if !in_any_interval(tx, i) {
                return Some(Violation {
                    property: "DL2",
                    at: Some(i),
                    reason: format!("send_msg({m}) outside any transmitter working interval"),
                });
            }
        }
    }
    None
}

/// Reference DL3: every message is sent at most once.
#[must_use]
pub fn check_dl3(trace: &[DlAction]) -> Option<Violation> {
    let mut seen: Vec<Msg> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendMsg(m) = a {
            if seen.contains(m) {
                return Some(Violation {
                    property: "DL3",
                    at: Some(i),
                    reason: format!("message {m} sent twice"),
                });
            }
            seen.push(*m);
        }
    }
    None
}

/// Reference DL4: every message is received at most once.
#[must_use]
pub fn check_dl4(trace: &[DlAction]) -> Option<Violation> {
    let mut seen: Vec<Msg> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::ReceiveMsg(m) = a {
            if seen.contains(m) {
                return Some(Violation {
                    property: "DL4",
                    at: Some(i),
                    reason: format!("message {m} received twice"),
                });
            }
            seen.push(*m);
        }
    }
    None
}

/// Reference DL5: every received message was previously sent.
#[must_use]
pub fn check_dl5(trace: &[DlAction]) -> Option<Violation> {
    let mut sent: Vec<Msg> = Vec::new();
    for (i, a) in trace.iter().enumerate() {
        match a {
            DlAction::SendMsg(m) => sent.push(*m),
            DlAction::ReceiveMsg(m) if !sent.contains(m) => {
                return Some(Violation {
                    property: "DL5",
                    at: Some(i),
                    reason: format!("message {m} received but never sent"),
                });
            }
            _ => {}
        }
    }
    None
}

/// Reference DL6 (FIFO): messages are received in send order, with the
/// same duplicate-poisoning semantics as [`check_pl5`].
#[must_use]
pub fn check_dl6(trace: &[DlAction]) -> Option<Violation> {
    let mut send_pos: HashMap<Msg, usize> = HashMap::new();
    let mut sends = 0usize;
    let mut last_pos: Option<usize> = None;
    for (i, a) in trace.iter().enumerate() {
        match a {
            DlAction::SendMsg(m) => {
                if send_pos.insert(*m, sends).is_some() {
                    return None; // duplicate send: DL3's violation to report
                }
                sends += 1;
            }
            DlAction::ReceiveMsg(m) => {
                let pos = *send_pos.get(m)?; // never sent: DL5's violation
                if let Some(prev) = last_pos {
                    if pos < prev {
                        return Some(Violation {
                            property: "DL6 (FIFO)",
                            at: Some(i),
                            reason: format!(
                                "message {m} (send position {pos}) received after a message \
                                 with send position {prev}"
                            ),
                        });
                    }
                }
                last_pos = Some(pos);
            }
            _ => {}
        }
    }
    None
}

/// Reference DL7 (no gaps): per transmitter working interval, a full-trace
/// scan looking for a delivered send after a lost one.
#[must_use]
pub fn check_dl7(trace: &[DlAction], tx: &MediumTimeline) -> Option<Violation> {
    let received: HashSet<Msg> = trace
        .iter()
        .filter_map(|a| match a {
            DlAction::ReceiveMsg(m) => Some(*m),
            _ => None,
        })
        .collect();
    for w in tx.intervals() {
        let mut first_lost: Option<(usize, Msg)> = None;
        for (i, a) in trace.iter().enumerate() {
            if !w.contains(i) {
                continue;
            }
            if let DlAction::SendMsg(m) = a {
                if received.contains(m) {
                    if let Some((j, lost)) = first_lost {
                        return Some(Violation {
                            property: "DL7",
                            at: Some(j),
                            reason: format!(
                                "message {lost} (sent at {j}) lost, but later message {m} \
                                 from the same working interval was delivered"
                            ),
                        });
                    }
                } else if first_lost.is_none() {
                    first_lost = Some((i, *m));
                }
            }
        }
    }
    None
}

/// Reference DL8 (on complete traces): every message sent in the unbounded
/// transmitter working interval is received.
#[must_use]
pub fn check_dl8(trace: &[DlAction], tx: &MediumTimeline) -> Option<Violation> {
    let unbounded: WorkingInterval = tx.unbounded()?;
    let received: HashSet<Msg> = trace
        .iter()
        .filter_map(|a| match a {
            DlAction::ReceiveMsg(m) => Some(*m),
            _ => None,
        })
        .collect();
    for (i, a) in trace.iter().enumerate() {
        if let DlAction::SendMsg(m) = a {
            if unbounded.contains(i) && !received.contains(m) {
                return Some(Violation {
                    property: "DL8",
                    at: Some(i),
                    reason: format!(
                        "message {m} sent in the unbounded transmitter working interval but \
                         never received (trace is complete)"
                    ),
                });
            }
        }
    }
    None
}

/// The reference physical-layer module verdict (`PL^{dir}` /
/// `PL-FIFO^{dir}`), assembled exactly like
/// [`crate::spec::physical::PlModule::check`].
#[must_use]
pub fn pl_check(trace: &[DlAction], dir: Dir, fifo: bool) -> Verdict {
    let timeline = MediumTimeline::scan(trace, dir);
    if let Some(e) = timeline.error() {
        return Verdict::Vacuous(Violation {
            property: "well-formedness",
            at: Some(e.at),
            reason: e.reason.to_string(),
        });
    }
    if let Some(v) = check_pl1(trace, &timeline, dir) {
        return Verdict::Vacuous(v);
    }
    if let Some(v) = check_pl2(trace, dir) {
        return Verdict::Vacuous(v);
    }
    if let Some(v) = check_pl3(trace, dir) {
        return Verdict::Violated(v);
    }
    if let Some(v) = check_pl4(trace, dir) {
        return Verdict::Violated(v);
    }
    if fifo {
        if let Some(v) = check_pl5(trace, dir) {
            return Verdict::Violated(v);
        }
    }
    Verdict::Satisfied
}

/// The reference data-link module verdict (`DL` / `WDL`), assembled exactly
/// like [`crate::spec::datalink::DlModule::check`].
#[must_use]
pub fn dl_check(trace: &[DlAction], weak: bool, kind: TraceKind) -> Verdict {
    let (tx, rx) = scan_both(trace);
    if let Some(e) = tx.error().or_else(|| rx.error()) {
        return Verdict::Vacuous(Violation {
            property: "well-formedness",
            at: Some(e.at),
            reason: e.reason.to_string(),
        });
    }
    if let Some(v) = crate::spec::datalink::check_dl1(&tx, &rx) {
        return Verdict::Vacuous(v);
    }
    if let Some(v) = check_dl2(trace, &tx) {
        return Verdict::Vacuous(v);
    }
    if let Some(v) = check_dl3(trace) {
        return Verdict::Vacuous(v);
    }
    if let Some(v) = check_dl4(trace) {
        return Verdict::Violated(v);
    }
    if let Some(v) = check_dl5(trace) {
        return Verdict::Violated(v);
    }
    if !weak {
        if let Some(v) = check_dl6(trace) {
            return Verdict::Violated(v);
        }
        if let Some(v) = check_dl7(trace, &tx) {
            return Verdict::Violated(v);
        }
    }
    if kind == TraceKind::Complete {
        if let Some(v) = check_dl8(trace, &tx) {
            return Verdict::Violated(v);
        }
    }
    Verdict::Satisfied
}
