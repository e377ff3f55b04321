//! Integration tests: the full theorem pipelines, end to end, with
//! independent certification of every emitted counterexample.

use datalink::channels::{FlightState, LossMode, LossyFifoChannel, ReorderChannel};
use datalink::core::action::{Dir, DlAction, Msg, Station};
use datalink::core::protocol::DataLinkProtocol;
use datalink::core::spec::datalink as dlspec;
use datalink::core::spec::datalink::DlModule;
use datalink::core::spec::{reference, wellformed};
use datalink::impossibility::crash::{
    build_reference, refute_crash_tolerance, refute_protocol, CounterexampleFlavor, CrashConfig,
    CrashCounterexample, CrashEngine, CrashError,
};
use datalink::impossibility::driver::ProtocolAutomaton;
use datalink::impossibility::headers::{
    refute_bounded_headers, HeaderConfig, HeaderCounterexample, HeaderEngine, HeaderOutcome,
};
use datalink::ioa::schedule_module::{ScheduleModule, TraceKind, Verdict};
use datalink::ioa::Automaton;
use datalink::sim::link_system;
use datalink::sim::system::LinkStateExt;

/// A counterexample is only a counterexample if the *hypotheses* hold and
/// a *conclusion* fails. Check both, independently of the engine.
fn certify_wdl_violation(behavior: &[DlAction], kind: TraceKind) {
    let (tx_tl, rx_tl) = wellformed::scan_both(behavior);
    assert!(tx_tl.is_well_formed(), "behavior not well-formed");
    assert!(rx_tl.is_well_formed(), "behavior not well-formed");
    assert!(
        dlspec::check_dl1(&tx_tl, &rx_tl).is_none(),
        "DL1 hypothesis broken"
    );
    assert!(
        dlspec::check_dl2(behavior, &tx_tl).is_none(),
        "DL2 hypothesis broken"
    );
    assert!(
        dlspec::check_dl3(behavior).is_none(),
        "DL3 hypothesis broken"
    );
    let v = DlModule::weak().check(behavior, kind);
    assert!(!v.is_allowed(), "behavior unexpectedly allowed by WDL");
}

fn kind_for(flavor: CounterexampleFlavor) -> TraceKind {
    match flavor {
        CounterexampleFlavor::Dl8Liveness => TraceKind::Complete,
        CounterexampleFlavor::DuplicateOrPhantom => TraceKind::Prefix,
    }
}

/// The explorer's lossy FIFO channel: the schedules Theorem 7.5 builds
/// over `Ĉ` must be schedules over it.
fn lossy_fifo(dir: Dir) -> LossyFifoChannel {
    LossyFifoChannel::new(dir, LossMode::Nondet)
}

/// The explorer's lossy reordering channel: the schedules Theorem 8.5
/// builds over `C̄` must be schedules over it.
fn lossy_reorder(dir: Dir) -> ReorderChannel {
    ReorderChannel::new(dir, LossMode::Nondet)
}

/// Replays `trace` as a schedule of `link_system(tx, rx, C, C)` through
/// the allocating `successors` API, with `channel` building each
/// direction's `C`. At each `send_pkt` the channel keeps the packet if the
/// trace later receives it and drops it otherwise; every other step must
/// have exactly one successor. Returns whether the last state is
/// quiescent, or the first step the composed system refuses.
fn replay_schedule<T, R, C>(
    tx: &T,
    rx: &R,
    channel: fn(Dir) -> C,
    trace: &[DlAction],
) -> Result<bool, String>
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
    C: Automaton<Action = DlAction, State = FlightState>,
{
    let sys = link_system(tx.clone(), rx.clone(), channel(Dir::TR), channel(Dir::RT));
    let mut s = sys.start_states().remove(0);
    for (i, a) in trace.iter().enumerate() {
        let succs = sys.successors(&s, a);
        let next = match a {
            DlAction::SendPkt(d, p) => {
                let kept = trace[i + 1..].contains(&DlAction::ReceivePkt(*d, *p));
                succs.into_iter().find(|t| {
                    let flight = match d {
                        Dir::TR => t.channel_tr(),
                        Dir::RT => t.channel_rt(),
                    };
                    flight.in_flight.contains(p) == kept
                })
            }
            _ if succs.len() > 1 => {
                return Err(format!("step {i} ({a}) has {} successors", succs.len()))
            }
            _ => succs.into_iter().next(),
        };
        s = next.ok_or_else(|| format!("step {i} ({a}) is not a step of the composed system"))?;
    }
    Ok(!sys.has_enabled_local(&s))
}

/// The frozen reference checker must flag `behavior` with the property
/// the engine reported.
fn reference_agrees(name: &str, behavior: &[DlAction], property: &str, kind: TraceKind) {
    match reference::dl_check(behavior, true, kind) {
        Verdict::Violated(v) => assert_eq!(v.property, property, "{name}: reference verdict"),
        other => panic!("{name}: the reference checker does not flag the behavior: {other:?}"),
    }
}

/// Fresh station automata accept every step of `trace` they take part
/// in, and no channel delivers a packet twice or one never sent.
fn replay_stations<T, R>(name: &str, tx: &T, rx: &R, trace: &[DlAction])
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    replay_component(tx, trace);
    replay_component(rx, trace);
    for dir in Dir::BOTH {
        assert!(
            reference::check_pl3(trace, dir).is_none(),
            "{name}: {dir} delivers a packet twice"
        );
        assert!(
            reference::check_pl4(trace, dir).is_none(),
            "{name}: {dir} delivers a never-sent packet"
        );
    }
}

/// Certifies a Theorem 7.5 counterexample without the driver that built
/// it: today's `WDL` verdict, the reference checker's, fresh-automata
/// replays, and the whole trace as a schedule over lossy FIFO channels.
/// A complete (DL8) trace must end quiescent there too.
fn certify_crash<T, R>(name: &str, tx: &T, rx: &R, cx: &CrashCounterexample)
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let kind = kind_for(cx.flavor);
    certify_wdl_violation(&cx.behavior, kind);
    reference_agrees(name, &cx.behavior, cx.violation.property, kind);
    replay_stations(name, tx, rx, &cx.trace);
    let quiescent =
        replay_schedule(tx, rx, lossy_fifo, &cx.trace).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        kind == TraceKind::Prefix || quiescent,
        "{name}: the complete trace does not end quiescent"
    );
}

/// Certifies a Theorem 8.5 counterexample like [`certify_crash`], over
/// lossy reordering channels. The impersonation works only by
/// reordering, so lossy FIFO channels must refuse the same trace.
fn certify_header<T, R>(name: &str, tx: &T, rx: &R, cx: &HeaderCounterexample)
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    certify_wdl_violation(&cx.behavior, TraceKind::Prefix);
    reference_agrees(name, &cx.behavior, cx.violation.property, TraceKind::Prefix);
    replay_stations(name, tx, rx, &cx.trace);
    replay_schedule(tx, rx, lossy_reorder, &cx.trace).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert!(
        replay_schedule(tx, rx, lossy_fifo, &cx.trace).is_err(),
        "{name}: the trace is also a schedule over FIFO channels"
    );
}

/// Refutes a bounded-header protocol and certifies the counterexample.
fn refute_header_victim<T, R>(name: &str, p: DataLinkProtocol<T, R>) -> HeaderCounterexample
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let (tx, rx) = (p.transmitter.clone(), p.receiver.clone());
    let outcome = refute_bounded_headers(p).unwrap_or_else(|e| panic!("{name}: {e}"));
    let HeaderOutcome::Violation(cx) = outcome else {
        panic!("{name} not refuted: {outcome:?}");
    };
    certify_header(name, &tx, &rx, &cx);
    *cx
}

/// Refutes one crashing protocol and pins the E4/E5 shape every victim
/// shares: the 8-step reference α, 3 pumps, a 16-event counterexample
/// trace, and DL8 on the complete fair trace.
fn refute_crashing_victim<T, R>(name: &str, tx: T, rx: R)
where
    T: ProtocolAutomaton,
    R: ProtocolAutomaton,
{
    let engine = CrashEngine::new(tx.clone(), rx.clone(), CrashConfig::default())
        .unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(engine.reference().len(), 8, "{name}: |α|");
    let cx = engine.run().unwrap_or_else(|e| panic!("{name}: {e}"));
    certify_crash(name, &tx, &rx, &cx);
    assert_eq!(cx.pumps, 3, "{name}: pumps");
    assert_eq!(cx.trace.len(), 16, "{name}: trace length");
    assert_eq!(cx.violation.property, "DL8", "{name}: violation");
    assert_eq!(cx.flavor, CounterexampleFlavor::Dl8Liveness, "{name}");
}

#[test]
fn theorem_7_5_all_crashing_victims() {
    // Every crashing protocol in the zoo falls, whatever its header
    // discipline or window size.
    let abp = datalink::protocols::abp::protocol();
    refute_crashing_victim("abp", abp.transmitter, abp.receiver);

    for w in [1, 2, 3, 4, 5, 8, 16] {
        let p = datalink::protocols::sliding_window::protocol(w);
        refute_crashing_victim(&format!("go-back-{w}"), p.transmitter, p.receiver);
    }

    let st = datalink::protocols::stenning::protocol();
    refute_crashing_victim("stenning", st.transmitter, st.receiver);

    for w in [1, 2, 4] {
        let p = datalink::protocols::selective_repeat::protocol(w);
        refute_crashing_victim(&format!("selective-repeat-{w}"), p.transmitter, p.receiver);
    }
}

#[test]
fn theorem_7_5_counterexample_is_a_real_execution() {
    // The trace must be replayable: every receive_pkt delivers a packet
    // previously sent (PL4 on the constructed schedule), and the behavior
    // embeds in the trace.
    let p = datalink::protocols::abp::protocol();
    let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
    for dir in datalink::core::action::Dir::BOTH {
        assert!(
            datalink::core::spec::physical::check_pl4(&cx.trace, dir).is_none(),
            "constructed schedule delivers a never-sent packet"
        );
        assert!(
            datalink::core::spec::physical::check_pl3(&cx.trace, dir).is_none(),
            "constructed schedule delivers a packet twice"
        );
    }
    // The behavior is the packet-hidden projection of the trace.
    let projected: Vec<DlAction> = cx
        .trace
        .iter()
        .filter(|a| !a.is_packet_action() && !matches!(a, DlAction::Internal(..)))
        .copied()
        .collect();
    assert_eq!(projected, cx.behavior);
}

/// Replays every action of `trace` owned by the given automaton through a
/// fresh copy, verifying each step is a genuine transition.
fn replay_component<M>(aut: &M, trace: &[DlAction])
where
    M: datalink::ioa::Automaton<Action = DlAction>,
{
    let mut s = aut.start_states().remove(0);
    for a in trace {
        if aut.in_signature(a) {
            s = aut
                .step_first(&s, a)
                .unwrap_or_else(|| panic!("{a} is not a legal step during replay"));
        }
    }
}

#[test]
fn crash_counterexamples_replay_through_fresh_automata() {
    // The strongest "genuine execution" certification: both protocol
    // automata accept the constructed schedule step by step from scratch.
    let p = datalink::protocols::abp::protocol();
    let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
    replay_component(&p.transmitter, &cx.trace);
    replay_component(&p.receiver, &cx.trace);

    let p = datalink::protocols::sliding_window::protocol(3);
    let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
    replay_component(&p.transmitter, &cx.trace);
    replay_component(&p.receiver, &cx.trace);
}

#[test]
fn header_counterexamples_replay_through_fresh_automata() {
    let p = datalink::protocols::abp::protocol();
    let tx = p.transmitter;
    let rx = p.receiver;
    let HeaderOutcome::Violation(cx) = refute_bounded_headers(p).unwrap() else {
        panic!("expected violation");
    };
    replay_component(&tx, &cx.trace);
    replay_component(&rx, &cx.trace);
}

#[test]
fn header_engine_exhausts_on_nonvolatile_protocol_too() {
    // The NV protocol has unbounded (epoch-tagged) headers; without
    // crashes its epochs never advance, so its per-run headers mirror
    // Stenning's — the pump cannot corner it either.
    let p = datalink::protocols::nonvolatile::protocol();
    let outcome = HeaderEngine::new(
        p.transmitter,
        p.receiver,
        HeaderConfig {
            max_rounds: 8,
            delivery_bound: 50_000,
        },
    )
    .run()
    .unwrap();
    assert!(
        matches!(outcome, HeaderOutcome::Exhausted { .. }),
        "got {outcome:?}"
    );
}

#[test]
fn theorem_7_5_nonvolatile_escape_is_the_only_escape_used() {
    let p = datalink::protocols::nonvolatile::protocol();
    match refute_crash_tolerance(p.transmitter, p.receiver) {
        Err(CrashError::NotCrashing(station)) => {
            assert_eq!(station, Station::T);
        }
        other => panic!("expected NotCrashing, got {other:?}"),
    }
}

#[test]
fn engines_detect_message_dependence() {
    // The quirky protocol falsely claims message-independence; the crash
    // engine's checked replay catches the lie instead of emitting a bogus
    // counterexample.
    let p = datalink::protocols::quirky::protocol();
    match refute_crash_tolerance(p.transmitter, p.receiver) {
        Err(CrashError::ReplayDiverged(_)) => {}
        other => panic!("expected ReplayDiverged, got {other:?}"),
    }
}

#[test]
fn reference_execution_shapes() {
    // Lemma 4.1 for each protocol: the reference behavior is exactly
    // wake wake send receive, and projections are consistent.
    let p = datalink::protocols::sliding_window::protocol(2);
    let r = build_reference(&p.transmitter, &p.receiver, Msg(7), 10_000).unwrap();
    assert_eq!(r.msg, Msg(7));
    let beh: Vec<&DlAction> = r
        .actions
        .iter()
        .filter(|a| !a.is_packet_action() && !matches!(a, DlAction::Internal(..)))
        .collect();
    assert_eq!(beh.len(), 4);
    // Per-station action multisets partition the schedule.
    let t_actions = r.acts_of(Station::T, r.len());
    let r_actions = r.acts_of(Station::R, r.len());
    assert_eq!(t_actions.len() + r_actions.len(), r.len());
    // What t sends is what r receives (loss-free reference).
    assert_eq!(
        r.out_pkts(Station::T, r.len()),
        r.in_pkts(Station::R, r.len())
    );
    assert_eq!(
        r.out_pkts(Station::R, r.len()),
        r.in_pkts(Station::T, r.len())
    );
}

#[test]
fn crash_engine_respects_custom_config() {
    let p = datalink::protocols::abp::protocol();
    let engine = CrashEngine::new(
        p.transmitter,
        p.receiver,
        CrashConfig {
            reference_bound: 500,
            extension_bound: 500,
            ..CrashConfig::default()
        },
    )
    .unwrap();
    assert_eq!(engine.reference().len(), 8);
    let cx = engine.run().unwrap();
    assert!(cx.pumps >= 2);
}

#[test]
fn theorem_8_5_all_bounded_header_victims() {
    // The E6 table: go-back-W has |H| = 2(W + 1) header classes, and the
    // pump needs W + 1 rounds, inside the paper's k·|H| bound.
    for (w, headers, rounds) in [(1, 4, 2), (2, 6, 3), (3, 8, 4), (4, 10, 5), (6, 14, 7)] {
        let p = datalink::protocols::sliding_window::protocol(w);
        assert_eq!(p.info.header_bound, Some(headers), "window {w}: |H|");
        let bound = headers as usize * p.info.k_bound.unwrap();
        let cx = refute_header_victim(&format!("go-back-{w}"), p);
        assert_eq!(cx.rounds, rounds, "window {w}: pump rounds");
        assert!(cx.rounds <= bound, "window {w}: rounds over k·|H|");
        // The impersonation used genuinely distinct packet identities.
        for (fresh, old) in &cx.matched {
            assert_ne!(fresh.uid, old.uid);
            assert_eq!(fresh.header, old.header);
        }
    }
}

#[test]
fn theorem_8_5_refutes_selective_repeat() {
    for w in [1, 2, 3] {
        let p = datalink::protocols::selective_repeat::protocol(w);
        refute_header_victim(&format!("selective-repeat-{w}"), p);
    }
}

#[test]
fn theorem_8_5_refutes_the_2_bounded_fragmenting_protocol() {
    // k = 2: the pump must strand a stale packet of *each* fragment class
    // before the Lemma 8.4 match exists.
    let p = datalink::protocols::fragmenting::protocol();
    let bound = p.info.header_bound.unwrap() as usize * p.info.k_bound.unwrap();
    let cx = refute_header_victim("fragmenting", p);
    // Two packets impersonated: one per fragment class.
    assert_eq!(cx.matched.len(), 2);
    assert_eq!(cx.rounds, 4, "the E6 table's fragmenting row");
    assert_ne!(cx.matched[0].0.header, cx.matched[1].0.header);
    assert!(
        cx.rounds <= bound + 2,
        "rounds {} > bound {bound}",
        cx.rounds
    );
}

#[test]
fn section_9_extension_refutes_the_parity_protocol() {
    // The §9 message-class case: the pump must draw fresh messages from
    // the reference message's parity class; `refute_protocol` reads the
    // declared modulus and succeeds.
    let p = datalink::protocols::parity::protocol();
    let (tx, rx) = (p.transmitter, p.receiver);
    let cx = refute_protocol(p).unwrap();
    certify_crash("parity", &tx, &rx, &cx);

    // With an odd reference message and class-aware freshness it works
    // equally (the odd class is infinite too).
    let cx = CrashEngine::new(
        tx,
        rx,
        CrashConfig {
            reference_msg: Msg(1),
            msg_class_modulus: Some(2),
            ..CrashConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    certify_crash("parity, odd reference message", &tx, &rx, &cx);
}

#[test]
fn section_9_extension_class_blind_pump_diverges() {
    // Without the class-aware refinement the pump picks a fresh message of
    // the wrong parity: the replayed transmitter wants different packets
    // and the engine detects the divergence, as §5.3.1's strict
    // message-independence demands.
    let p = datalink::protocols::parity::protocol();
    let result = CrashEngine::new(
        p.transmitter,
        p.receiver,
        CrashConfig {
            reference_msg: Msg(1), // odd; class-blind fresh messages are even
            msg_class_modulus: None,
            ..CrashConfig::default()
        },
    )
    .unwrap()
    .run();
    match result {
        Err(CrashError::ReplayDiverged(_)) => {}
        other => panic!("expected ReplayDiverged, got {other:?}"),
    }
}

#[test]
fn theorem_7_5_refutes_the_fragmenting_protocol() {
    let p = datalink::protocols::fragmenting::protocol();
    let cx = refute_crash_tolerance(p.transmitter, p.receiver).unwrap();
    certify_crash("fragmenting", &p.transmitter, &p.receiver, &cx);
    // The E5 table's fragmenting row (the single-packet victims need 3
    // pumps and a 16-event trace).
    assert_eq!((cx.pumps, cx.trace.len()), (5, 26));
    assert_eq!(cx.violation.property, "DL8");
}

#[test]
fn theorem_8_5_refutes_the_parity_protocol() {
    // The header pump needs no class machinery: it measures each round's
    // packet_set directly, and the receiver replay compares headers only.
    let p = datalink::protocols::parity::protocol();
    refute_header_victim("parity", p);
}

#[test]
fn theorem_8_5_round_bound_matches_paper() {
    // The paper bounds the pump chain by k·|H|. With ABP (|H| = 4 but only
    // 2 data classes matter, k = 1) the engine needs very few rounds.
    let p = datalink::protocols::abp::protocol();
    let cx = refute_header_victim("abp", p);
    assert!(cx.rounds <= 4, "took {} rounds", cx.rounds);
    assert_eq!(cx.rounds, 2, "the E6 table's alternating-bit row");
}

#[test]
fn theorem_8_5_stenning_transit_grows_linearly() {
    // Run the pump at several budgets; the stranded header classes grow
    // linearly with the budget — Stenning pays for immunity with headers.
    let mut previous = 0;
    for budget in [4usize, 8, 12] {
        let p = datalink::protocols::stenning::protocol();
        let outcome = HeaderEngine::new(
            p.transmitter,
            p.receiver,
            HeaderConfig {
                max_rounds: budget,
                delivery_bound: 50_000,
            },
        )
        .run()
        .unwrap();
        let HeaderOutcome::Exhausted {
            rounds,
            distinct_classes,
            ..
        } = outcome
        else {
            panic!("Stenning must not be refuted");
        };
        assert_eq!(rounds, budget);
        assert!(distinct_classes >= budget);
        assert!(distinct_classes > previous);
        previous = distinct_classes;
    }
}

#[test]
fn both_theorems_against_the_same_protocol() {
    // ABP sits in the intersection of both hypothesis sets: it falls to
    // both engines, with *different* violations.
    let p1 = datalink::protocols::abp::protocol();
    let crash_cx = refute_crash_tolerance(p1.transmitter, p1.receiver).unwrap();

    let p2 = datalink::protocols::abp::protocol();
    let HeaderOutcome::Violation(header_cx) = refute_bounded_headers(p2).unwrap() else {
        panic!("expected violation");
    };

    // The crash counterexample needs crash events; the header one has none
    // (the §8 note: no fail or crash actions are needed there).
    assert!(crash_cx
        .behavior
        .iter()
        .any(|a| matches!(a, DlAction::Crash(_))));
    assert!(!header_cx
        .behavior
        .iter()
        .any(|a| matches!(a, DlAction::Crash(_) | DlAction::Fail(_))));
}
