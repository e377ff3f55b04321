//! Bounded fleet smoke: a mixed-protocol, fault-injected, monitored
//! fleet completes, stays replayable, and emits a well-formed ledger.
//! `scripts/check.sh`'s fleet-smoke stage runs exactly this suite.

use dl_fleet::{run_fleet, FleetSpec, ProtocolKind};
use dl_obs::RunLedger;

fn smoke_spec() -> FleetSpec {
    FleetSpec {
        seed: 0x5A0CE,
        sessions: 400,
        workers: 2,
        chunk: 64,
        // The whole zoo, stabilizing included (the default mix stays the
        // frozen classic nine to keep pinned ledgers stable).
        protocols: ProtocolKind::ALL.to_vec(),
        ..FleetSpec::default()
    }
}

#[test]
fn mixed_fleet_completes_and_replays() {
    let report = run_fleet(&smoke_spec());
    assert_eq!(report.sessions(), 400);
    assert!(report.outcomes.iter().all(|o| o.steps > 0));
    // Every protocol of the zoo took part.
    for kind in ProtocolKind::ALL {
        assert!(
            report.outcomes.iter().any(|o| o.protocol == kind),
            "{} missing from the mix",
            kind.name()
        );
    }
    // Per-session fault injection is real: with loss on, some sessions
    // need more steps than the fault-free minimum; with crashes on, some
    // sessions crash.
    assert!(report.crash_sessions > 0);
    assert!(report.quiescent_sessions > 0);
    // Sessions stay lean: a few KB, not a trace allocation storm (the
    // bound is generous; typical sessions are far smaller).
    assert!(
        report.peak_session_bytes < 64 * 1024,
        "peak session bytes blew up: {}",
        report.peak_session_bytes
    );

    // Full replay: same spec, same fleet, byte for byte.
    let again = run_fleet(&smoke_spec());
    assert_eq!(report.outcomes, again.outcomes);
}

#[test]
fn ledger_round_trips_and_is_gateable() {
    let report = run_fleet(&FleetSpec {
        sessions: 60,
        ..smoke_spec()
    });
    let ledger = report.to_ledger("smoke");
    assert_eq!(ledger.engine, "fleet");
    // The gate's keys: a sessions_per_sec floor and deterministic
    // counters (including the session-memory ceiling).
    assert!(ledger.gauges.contains_key("sessions_per_sec"));
    assert!(ledger.counters.contains_key("peak_session_bytes"));
    assert_eq!(ledger.counters["sessions"], 60);
    let back = RunLedger::from_json(&ledger.to_json()).unwrap();
    assert_eq!(back, ledger);
}

#[test]
fn stabilizing_sessions_report_their_suffix_monitor() {
    // A stabilizing session keeps no trace: its resident cost is the lean
    // session core plus the suffix monitor, whose tables are its
    // `monitor_bytes`.
    let report = run_fleet(&FleetSpec {
        sessions: 40,
        protocols: vec![ProtocolKind::Stabilizing],
        corruption_per256: 255,
        ..smoke_spec()
    });
    let classic = run_fleet(&FleetSpec {
        sessions: 40,
        protocols: ProtocolKind::CLASSIC.to_vec(),
        ..smoke_spec()
    });
    let classic_peak = classic
        .outcomes
        .iter()
        .map(|o| o.resident_bytes)
        .max()
        .unwrap();
    for o in &report.outcomes {
        assert!(o.steps > 0);
        assert!(o.monitor_bytes > 0, "session {}: no monitor bytes", o.id);
        assert!(
            o.resident_bytes < 2 * classic_peak,
            "session {}: {} resident bytes against a classic peak of {classic_peak}",
            o.id,
            o.resident_bytes
        );
    }
    assert!(report.peak_monitor_bytes > 0);
}

/// A lean session core stays small for every zoo kind: the online
/// monitor is data-link-only and carries no packet tables, so a
/// `SessionStep` is about 1.1 KB (it was about 2.4 KB while both
/// directions' packet tables sat inline in every monitor).
#[test]
fn lean_session_cores_are_small() {
    use dl_fleet::{FleetSystem, StabilizeSystem};
    use dl_protocols as p;
    use dl_sim::SessionStep;
    use std::mem::size_of;

    let sizes = [
        size_of::<SessionStep<FleetSystem<p::AbpTransmitter, p::AbpReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::SwTransmitter, p::SwReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::SrTransmitter, p::SrReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::FragTransmitter, p::FragReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::ParityTransmitter, p::ParityReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::StenningTransmitter, p::StenningReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::NvTransmitter, p::NvReceiver>>>(),
        size_of::<SessionStep<FleetSystem<p::QuirkyTransmitter, p::QuirkyReceiver>>>(),
        size_of::<SessionStep<StabilizeSystem>>(),
    ];
    assert!(
        sizes.iter().all(|&s| s <= 1_300),
        "session cores grew: {sizes:?} bytes"
    );
}
