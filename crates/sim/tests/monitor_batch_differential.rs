//! Batched-vs-streaming monitor differential over the protocol zoo.
//!
//! `TraceMonitor::observe_all` is a fast path, not a semantic fork: on
//! any schedule — here, every protocol of the zoo composed with
//! fault-injected channels under proptest-chosen fault knobs, crash
//! scripts, and chunk sizes — a monitor fed slice-at-a-time must agree
//! with one fed action-at-a-time (and with the one-shot
//! [`TraceMonitor::scan`]) on *everything observable*: all eight module
//! verdicts, the first online violation and its index for every policy
//! combination, the per-direction in-transit multisets, and the
//! footprint estimate (batching may pre-reserve, so footprints are
//! compared only between equal chunkings; verdicts never differ).
//!
//! The same schedules also pin the data-link-only posture: a
//! [`TraceMonitor::data_link_only`] monitor, which skips packet actions,
//! must agree with a full monitor on the online data-link check after
//! every action and on every data-link query at the end, fed one action
//! at a time, in chunks, or in one call.

use proptest::prelude::*;

use dl_channels::{CorruptChannel, CorruptSpec, FaultSpec, FaultyChannel};
use dl_core::action::{Dir, DlAction};
use dl_core::protocol::DataLinkProtocol;
use dl_core::spec::monitor::TraceMonitor;
use dl_sim::{link_system, Runner, Scenario, Script};
use ioa::automaton::Automaton;
use ioa::schedule_module::{TraceKind, Verdict, Violation};

fn zoo_schedule_for<T, R>(
    protocol: DataLinkProtocol<T, R>,
    seed: u64,
    faults: [FaultSpec; 2],
    script: &Script,
) -> Vec<DlAction>
where
    T: Automaton<Action = DlAction>,
    R: Automaton<Action = DlAction>,
{
    let sys = link_system(
        protocol.transmitter,
        protocol.receiver,
        FaultyChannel::new(Dir::TR, faults[0]),
        FaultyChannel::new(Dir::RT, faults[1]),
    );
    Runner::new(seed, 30_000).run(&sys, script).schedule()
}

fn zoo_schedule(proto: usize, seed: u64, faults: [FaultSpec; 2], script: &Script) -> Vec<DlAction> {
    match proto {
        0 => zoo_schedule_for(dl_protocols::abp::protocol(), seed, faults, script),
        1 => zoo_schedule_for(
            dl_protocols::sliding_window::protocol(2),
            seed,
            faults,
            script,
        ),
        2 => zoo_schedule_for(
            dl_protocols::sliding_window::protocol(8),
            seed,
            faults,
            script,
        ),
        3 => zoo_schedule_for(
            dl_protocols::selective_repeat::protocol(4),
            seed,
            faults,
            script,
        ),
        4 => zoo_schedule_for(dl_protocols::fragmenting::protocol(), seed, faults, script),
        5 => zoo_schedule_for(dl_protocols::parity::protocol(), seed, faults, script),
        6 => zoo_schedule_for(dl_protocols::stenning::protocol(), seed, faults, script),
        7 => zoo_schedule_for(dl_protocols::nonvolatile::protocol(), seed, faults, script),
        8 => zoo_schedule_for(dl_protocols::quirky::protocol(), seed, faults, script),
        9 => stabilizing_schedule(seed, faults, script),
        _ => unreachable!("the zoo has ten protocols"),
    }
}

/// Zoo member #10 runs over the non-FIFO [`CorruptChannel`] from a
/// **corrupted initial configuration** (skewed counters, ghost packets
/// derived from the seed) — the monitor must digest these maximally
/// reordered, ghost-seeded schedules exactly like any other. The loss
/// knobs of `faults` carry over; duplication and windows do not apply
/// (the channel never duplicates and is wholly unordered).
fn stabilizing_schedule(seed: u64, faults: [FaultSpec; 2], script: &Script) -> Vec<DlAction> {
    let protocol = dl_protocols::stabilizing::corrupted(3, seed & 3, (seed >> 2) & 7);
    let corrupt = |lane: u64| CorruptSpec {
        capacity: 3,
        ghosts: ((seed >> (4 + 2 * lane)) & 3) as u8,
        loss: faults[lane as usize].loss,
        seed: seed ^ (0x0DD5 << lane),
    };
    let sys = link_system(
        protocol.transmitter,
        protocol.receiver,
        CorruptChannel::new(Dir::TR, corrupt(0)),
        CorruptChannel::new(Dir::RT, corrupt(1)),
    );
    Runner::new(seed, 30_000).run(&sys, script).schedule()
}

/// Everything a consumer can observe about a monitor's final state.
#[derive(Debug, PartialEq)]
struct Observables {
    actions: usize,
    verdicts: Vec<ioa::schedule_module::Verdict>,
    online: Vec<Option<(Option<usize>, &'static str, String)>>,
    in_transit: [Vec<dl_core::action::Packet>; 2],
}

fn observables(mon: &TraceMonitor) -> Observables {
    let mut verdicts = Vec::new();
    for dir in Dir::BOTH {
        for fifo in [false, true] {
            verdicts.push(mon.pl_verdict(dir, fifo));
        }
    }
    for weak in [false, true] {
        for kind in [TraceKind::Prefix, TraceKind::Complete] {
            verdicts.push(mon.dl_verdict(weak, kind));
        }
    }
    let mut online = Vec::new();
    for full_dl in [false, true] {
        for fifo in [false, true] {
            online.push(
                mon.online_violation(full_dl, fifo)
                    .map(|v| (v.at, v.property, v.reason.clone())),
            );
        }
        online.push(
            mon.online_dl_violation(full_dl)
                .map(|v| (v.at, v.property, v.reason.clone())),
        );
    }
    Observables {
        actions: mon.actions_observed(),
        verdicts,
        online,
        in_transit: [mon.in_transit(Dir::TR), mon.in_transit(Dir::RT)],
    }
}

/// Everything a data-link-only monitor answers.
#[derive(Debug, PartialEq)]
struct DlObservables {
    actions: usize,
    verdicts: Vec<Verdict>,
    end_of_trace: [Option<Violation>; 3],
    wellformedness: [Option<Violation>; 2],
    online: [Option<Violation>; 2],
}

fn dl_observables(mon: &TraceMonitor) -> DlObservables {
    let mut verdicts = Vec::new();
    for weak in [false, true] {
        for kind in [TraceKind::Prefix, TraceKind::Complete] {
            verdicts.push(mon.dl_verdict(weak, kind));
        }
    }
    DlObservables {
        actions: mon.actions_observed(),
        verdicts,
        end_of_trace: [
            mon.dl1_violation(),
            mon.dl7_violation(),
            mon.dl8_violation(),
        ],
        wellformedness: Dir::BOTH.map(|d| mon.wellformedness_violation(d)),
        online: [false, true].map(|full_dl| mon.online_dl_violation(full_dl).cloned()),
    }
}

/// Feeds `schedule` to a full and a data-link-only monitor side by side,
/// comparing the online data-link check after every action and every
/// data-link query at the end; data-link-only monitors fed in chunks and
/// in one call must end the same.
fn check_data_link_only(schedule: &[DlAction], chunk: usize) -> Result<(), TestCaseError> {
    let mut full = TraceMonitor::new();
    let mut lean = TraceMonitor::data_link_only();
    for (i, a) in schedule.iter().enumerate() {
        full.observe(a);
        lean.observe(a);
        for full_dl in [false, true] {
            prop_assert_eq!(
                lean.online_dl_violation(full_dl),
                full.online_dl_violation(full_dl),
                "after action {}",
                i
            );
        }
    }
    let mut chunked = TraceMonitor::data_link_only();
    for slice in schedule.chunks(chunk) {
        chunked.observe_all(slice);
    }
    let mut whole = TraceMonitor::data_link_only();
    whole.observe_all(schedule);
    let reference = dl_observables(&full);
    prop_assert_eq!(&dl_observables(&lean), &reference, "one action at a time");
    prop_assert_eq!(
        &dl_observables(&chunked),
        &reference,
        "chunk size {}",
        chunk
    );
    prop_assert_eq!(&dl_observables(&whole), &reference, "one call");
    Ok(())
}

fn fault_spec(loss: u8, dup: u8, reorder: u8, salt: u64) -> FaultSpec {
    FaultSpec {
        loss,
        dup,
        reorder,
        burst_good: 4,
        burst_bad: 2,
        salt,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_ingestion_is_observationally_identical(
        proto in 0usize..10,
        seed in any::<u64>(),
        knobs in (0u8..97, 0u8..65, 0u8..4),
        msgs in 1u64..10,
        crash in any::<bool>(),
        chunk in 1usize..96,
    ) {
        let (loss, dup, reorder) = knobs;
        let faults = [
            fault_spec(loss, dup, reorder, seed ^ 0xA5),
            fault_spec(loss / 2, dup, reorder, seed ^ 0x5A),
        ];
        let script = if crash {
            Scenario::CrashStorm { burst: 3, crashes: 1 }.script()
        } else {
            Script::new().wake_both().send_msgs(0, msgs).settle()
        };
        let schedule = zoo_schedule(proto, seed, faults, &script);
        if schedule.is_empty() {
            return Ok(());
        }

        // One action at a time.
        let mut one = TraceMonitor::new();
        for a in &schedule {
            one.observe(a);
        }
        // Proptest-sized chunks.
        let mut batched = TraceMonitor::new();
        for slice in schedule.chunks(chunk) {
            batched.observe_all(slice);
        }
        // The whole trace in one call.
        let scanned = TraceMonitor::scan(&schedule);

        let reference = observables(&one);
        prop_assert_eq!(&observables(&batched), &reference, "chunk size {}", chunk);
        prop_assert_eq!(&observables(&scanned), &reference, "one-shot scan");
        check_data_link_only(&schedule, chunk)?;
    }

    /// The multiset view itself is chunking-independent at every prefix,
    /// not just at the end — feed the same trace through two different
    /// chunk patterns and compare after every aligned boundary.
    #[test]
    fn in_transit_agrees_at_aligned_chunk_boundaries(
        proto in 0usize..10,
        seed in any::<u64>(),
        chunk in 2usize..64,
    ) {
        let faults = [fault_spec(32, 16, 2, 1), fault_spec(16, 16, 2, 2)];
        let script = Script::new().wake_both().send_msgs(0, 6).settle();
        let schedule = zoo_schedule(proto, seed, faults, &script);
        if schedule.len() < chunk {
            return Ok(());
        }

        let mut one = TraceMonitor::new();
        let mut batched = TraceMonitor::new();
        for slice in schedule.chunks(chunk) {
            for a in slice {
                one.observe(a);
            }
            batched.observe_all(slice);
            for dir in Dir::BOTH {
                prop_assert_eq!(one.in_transit(dir), batched.in_transit(dir));
                prop_assert_eq!(
                    one.in_transit_count(dir),
                    batched.in_transit_count(dir)
                );
                prop_assert_eq!(
                    one.in_transit_iter(dir).count(),
                    batched.in_transit_count(dir)
                );
            }
        }
        prop_assert_eq!(&observables(&one), &observables(&batched));
        check_data_link_only(&schedule, chunk)?;
    }

    /// Reorder-dense traces: wide reorder windows on the windowed
    /// protocols, and the wholly unordered ghost-seeded `CorruptChannel`
    /// for the stabilizing member. Reordering is where batching could
    /// plausibly fork from streaming — the in-transit multiset churns on
    /// nearly every action and out-of-order receipts drive the PL-FIFO
    /// and DL value tables down their rare paths — so it gets its own
    /// generator: maximal windows, no loss masking, long message runs,
    /// and adversarial chunk sizes including 1 and the whole trace.
    #[test]
    fn reorder_dense_traces_agree_batched_and_streaming(
        proto in 0usize..10,
        seed in any::<u64>(),
        window in 4u8..16,
        dup in 0u8..33,
        msgs in 6u64..16,
        chunk in 1usize..128,
    ) {
        let faults = [
            FaultSpec { loss: 0, dup, reorder: window, burst_good: 0, burst_bad: 0, salt: seed ^ 0xD1 },
            FaultSpec { loss: 0, dup: 0, reorder: window, burst_good: 0, burst_bad: 0, salt: seed ^ 0x1D },
        ];
        let script = Script::new().wake_both().send_msgs(0, msgs).settle();
        let schedule = zoo_schedule(proto, seed, faults, &script);
        if schedule.is_empty() {
            return Ok(());
        }
        let mut streaming = TraceMonitor::new();
        let mut batched = TraceMonitor::new();
        for slice in schedule.chunks(chunk) {
            batched.observe_all(slice);
        }
        for a in &schedule {
            streaming.observe(a);
        }
        let whole = TraceMonitor::scan(&schedule);
        let reference = observables(&streaming);
        prop_assert_eq!(&observables(&batched), &reference, "chunk size {}", chunk);
        prop_assert_eq!(&observables(&whole), &reference, "one-shot scan");
        check_data_link_only(&schedule, chunk)?;
    }
}
