//! Engine robustness: how the impossibility engines fail when their
//! preconditions do not hold — budgets too small, protocols that never
//! deliver, degenerate configurations.

use std::ops::ControlFlow;

use datalink::core::action::{DlAction, Msg, Station};
use datalink::core::equivalence::MsgRenaming;
use datalink::core::protocol::{
    receiver_classify, transmitter_classify, MessageIndependent, StationAutomaton,
};
use datalink::impossibility::crash::{build_reference, CrashConfig, CrashEngine, CrashError};
use datalink::impossibility::headers::{HeaderConfig, HeaderEngine, HeaderError, HeaderOutcome};
use datalink::ioa::action::ActionClass;
use datalink::ioa::automaton::TaskId;
use datalink::ioa::Automaton;

/// A transmitter that absorbs everything and never sends a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct MuteTransmitter;

impl Automaton for MuteTransmitter {
    type Action = DlAction;
    type State = u8;

    fn start_state(&self) -> u8 {
        0
    }
    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        transmitter_classify(a)
    }
    fn successors(&self, s: &u8, a: &DlAction) -> Vec<u8> {
        match self.classify(a) {
            Some(ActionClass::Input) => vec![*s],
            _ => vec![],
        }
    }
    fn for_each_enabled_local(
        &self,
        _s: &u8,
        _f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }
    fn task_count(&self) -> usize {
        1
    }
}

impl StationAutomaton for MuteTransmitter {
    fn station(&self) -> Station {
        Station::T
    }
}

impl MessageIndependent for MuteTransmitter {
    fn relabel_state(&self, s: &u8, _r: &MsgRenaming) -> u8 {
        *s
    }
}

/// A receiver that absorbs everything and never delivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct MuteReceiver;

impl Automaton for MuteReceiver {
    type Action = DlAction;
    type State = u8;

    fn start_state(&self) -> u8 {
        0
    }
    fn classify(&self, a: &DlAction) -> Option<ActionClass> {
        receiver_classify(a)
    }
    fn successors(&self, s: &u8, a: &DlAction) -> Vec<u8> {
        match self.classify(a) {
            Some(ActionClass::Input) => vec![*s],
            _ => vec![],
        }
    }
    fn for_each_enabled_local(
        &self,
        _s: &u8,
        _f: &mut dyn FnMut(DlAction) -> ControlFlow<()>,
    ) -> ControlFlow<()> {
        ControlFlow::Continue(())
    }
    fn task_of(&self, _a: &DlAction) -> TaskId {
        TaskId(0)
    }
    fn task_count(&self) -> usize {
        1
    }
}

impl StationAutomaton for MuteReceiver {
    fn station(&self) -> Station {
        Station::R
    }
}

impl MessageIndependent for MuteReceiver {
    fn relabel_state(&self, s: &u8, _r: &MsgRenaming) -> u8 {
        *s
    }
}

#[test]
fn crash_engine_reports_mute_protocols_as_reference_failures() {
    // A protocol that cannot deliver even one message over perfect
    // channels fails at the Lemma 4.1 stage — it is not a data link
    // protocol at all, and the engine says so rather than "refuting" it.
    let err = CrashEngine::new(MuteTransmitter, MuteReceiver, CrashConfig::default())
        .err()
        .expect("mute protocol must fail the reference stage");
    assert!(matches!(err, CrashError::ReferenceFailed(_)), "{err}");
}

#[test]
fn header_engine_reports_mute_protocols_as_no_delivery() {
    let err = HeaderEngine::new(MuteTransmitter, MuteReceiver, HeaderConfig::default())
        .run()
        .unwrap_err();
    assert!(matches!(err, HeaderError::NoDelivery { round: 0 }), "{err}");
}

#[test]
fn build_reference_rejects_wrong_behavior() {
    let err = build_reference(&MuteTransmitter, &MuteReceiver, Msg(0), 1000).unwrap_err();
    let text = err.to_string();
    assert!(
        text.contains("Lemma 4.1") || text.contains("behavior"),
        "{text}"
    );
}

#[test]
fn header_engine_zero_round_budget_exhausts_immediately() {
    let p = datalink::protocols::abp::protocol();
    let outcome = HeaderEngine::new(
        p.transmitter,
        p.receiver,
        HeaderConfig {
            max_rounds: 0,
            delivery_bound: 1000,
        },
    )
    .run()
    .unwrap();
    match outcome {
        HeaderOutcome::Exhausted {
            rounds,
            transit_size,
            distinct_classes,
        } => {
            assert_eq!(rounds, 0);
            assert_eq!(transit_size, 0);
            assert_eq!(distinct_classes, 0);
        }
        other => panic!("expected immediate exhaustion, got {other:?}"),
    }
}

#[test]
fn crash_engine_tiny_reference_budget_fails_cleanly() {
    let p = datalink::protocols::abp::protocol();
    let err = CrashEngine::new(
        p.transmitter,
        p.receiver,
        CrashConfig {
            reference_bound: 2, // cannot even deliver once
            extension_bound: 1000,
            ..CrashConfig::default()
        },
    )
    .err()
    .expect("budget too small to build α");
    assert!(matches!(err, CrashError::ReferenceFailed(_)));
}

#[test]
fn mute_automata_are_valid_station_automata() {
    // The mute protocol is signature-conformant and input-enabled — the
    // engines reject it for *behavioral* reasons, not formatting ones.
    use datalink::core::protocol::{action_sample, check_station_signature};
    assert!(check_station_signature(&MuteTransmitter, &action_sample()).is_ok());
    assert!(check_station_signature(&MuteReceiver, &action_sample()).is_ok());
    let sample = action_sample();
    assert!(MuteTransmitter.check_input_enabled(&[0], &sample).is_none());
    assert!(MuteReceiver.check_input_enabled(&[0], &sample).is_none());
}
