//! Property tests: the §5.3.1 message-independence axioms hold on random
//! reachable states of every protocol in the zoo that claims them — the
//! single contract behind `MessageIndependent`, the workspace's one
//! relabeling API.
//!
//! The axioms, in the concrete renaming form of `dl-core`:
//!
//! * axiom 4 — if `a` is enabled in `s` then `ρ(a)` is enabled in `ρ(s)`;
//! * axiom 5 — `ρ(step(s, a)) == step(ρ(s), ρ(a))` (determinism folds the
//!   existential into an equation);
//! * crash/start discipline — relabeling fixes start states.
//!
//! The renaming `i ↦ 1000 + i` preserves parity, so it is also a renaming
//! of the `parity` protocol's mod-2 message classes. A negative test shows
//! the contract bites: `quirky`, whose headers are derived from message
//! identity, fails axiom 4.

use proptest::prelude::*;

use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use dl_core::equivalence::MsgRenaming;
use dl_core::protocol::{MessageIndependent, StationAutomaton};
use ioa::Automaton;

/// Random input actions for a transmitter.
fn tx_input_strategy() -> impl Strategy<Value = DlAction> {
    let msg = (0u64..5).prop_map(Msg);
    let ack = (0u64..4).prop_map(|s| Packet::ack(s).with_uid(500 + s));
    prop_oneof![
        msg.prop_map(DlAction::SendMsg),
        ack.prop_map(|p| DlAction::ReceivePkt(Dir::RT, p)),
        Just(DlAction::Wake(Dir::TR)),
        Just(DlAction::Fail(Dir::TR)),
        Just(DlAction::Crash(Station::T)),
    ]
}

/// Random input actions for a receiver.
fn rx_input_strategy() -> impl Strategy<Value = DlAction> {
    let data = (0u64..4, 0u64..5).prop_map(|(s, m)| Packet::data(s, Msg(m)).with_uid(s * 10 + m));
    prop_oneof![
        data.prop_map(|p| DlAction::ReceivePkt(Dir::TR, p)),
        Just(DlAction::Wake(Dir::RT)),
        Just(DlAction::Fail(Dir::RT)),
        Just(DlAction::Crash(Station::R)),
    ]
}

/// A renaming that permutes the small message alphabet into a disjoint one.
fn rho() -> MsgRenaming {
    let mut r = MsgRenaming::identity();
    for i in 0..5 {
        r.insert(Msg(i), Msg(1000 + i)).unwrap();
    }
    r
}

/// Drives an automaton by inputs and its own outputs (taking the first
/// enabled local action after every input), reaching "realistic" states.
fn reach<M>(aut: &M, inputs: &[DlAction]) -> M::State
where
    M: Automaton<Action = DlAction>,
{
    let mut s = aut.start_states().remove(0);
    for a in inputs {
        s = aut.step_first(&s, a).expect("inputs always enabled");
        if let Some(local) = aut.enabled_local(&s).into_iter().next() {
            s = aut.step_first(&s, &local).expect("enabled action steps");
        }
    }
    s
}

/// Checks axioms 4 and 5 at one state for one action.
fn check_axioms<M>(aut: &M, s: &M::State, a: &DlAction) -> Result<(), TestCaseError>
where
    M: Automaton<Action = DlAction> + MessageIndependent,
    M::State: PartialEq + std::fmt::Debug,
{
    let r = rho();
    let rs = aut.relabel_state(s, &r);
    let ra = r.apply_action(a);
    let stepped = aut.step_first(s, a);
    let rstepped = aut.step_first(&rs, &ra);
    match (stepped, rstepped) {
        (Some(t), Some(rt)) => {
            prop_assert_eq!(aut.relabel_state(&t, &r), rt, "axiom 5 failed for {}", a);
        }
        (None, None) => {}
        (x, y) => {
            return Err(TestCaseError::fail(format!(
                "axiom 4 failed for {a}: enabledness differs ({} vs {})",
                x.is_some(),
                y.is_some()
            )));
        }
    }
    Ok(())
}

macro_rules! independence_suite {
    ($tx_name:ident, $rx_name:ident, $make:expr) => {
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]

            #[test]
            fn $tx_name(
                history in prop::collection::vec(tx_input_strategy(), 0..12),
                probe in tx_input_strategy(),
            ) {
                let p = $make;
                let tx = p.transmitter;
                let s = reach(&tx, &history);
                // Inputs, the probe, and every enabled local action.
                check_axioms(&tx, &s, &probe)?;
                for a in tx.enabled_local(&s) {
                    check_axioms(&tx, &s, &a)?;
                }
                // Relabeling fixes the start state (axiom 1: start states
                // map to start states).
                let start = tx.start_states().remove(0);
                prop_assert_eq!(tx.relabel_state(&start, &rho()), start);
            }

            #[test]
            fn $rx_name(
                history in prop::collection::vec(rx_input_strategy(), 0..12),
                probe in rx_input_strategy(),
            ) {
                let p = $make;
                let rx = p.receiver;
                let s = reach(&rx, &history);
                check_axioms(&rx, &s, &probe)?;
                for a in rx.enabled_local(&s) {
                    check_axioms(&rx, &s, &a)?;
                }
                let start = rx.start_states().remove(0);
                prop_assert_eq!(rx.relabel_state(&start, &rho()), start);
            }
        }
    };
}

independence_suite!(
    abp_tx_independent,
    abp_rx_independent,
    dl_protocols::abp::protocol()
);
independence_suite!(
    sw_tx_independent,
    sw_rx_independent,
    dl_protocols::sliding_window::protocol(3)
);
independence_suite!(
    stenning_tx_independent,
    stenning_rx_independent,
    dl_protocols::stenning::protocol()
);
independence_suite!(
    nv_tx_independent,
    nv_rx_independent,
    dl_protocols::nonvolatile::protocol()
);
independence_suite!(
    sr_tx_independent,
    sr_rx_independent,
    dl_protocols::selective_repeat::protocol(4)
);
independence_suite!(
    frag_tx_independent,
    frag_rx_independent,
    dl_protocols::fragmenting::protocol()
);
independence_suite!(
    parity_tx_independent,
    parity_rx_independent,
    dl_protocols::parity::protocol()
);
independence_suite!(
    stab_tx_independent,
    stab_rx_independent,
    dl_protocols::stabilizing::protocol()
);

/// The contract bites: `quirky`'s transmitter stamps each packet with a
/// header derived from the message itself, so once a message is queued
/// the renamed send (same header, renamed payload) is not enabled in the
/// renamed state.
#[test]
fn quirky_tx_fails_axiom_4() {
    let tx = dl_protocols::quirky::protocol().transmitter;
    let s = reach(&tx, &[DlAction::Wake(Dir::TR), DlAction::SendMsg(Msg(1))]);
    let send = tx
        .enabled_local(&s)
        .into_iter()
        .next()
        .expect("the queued message is sent");
    let err = check_axioms(&tx, &s, &send).expect_err("quirky must fail the axioms");
    assert_eq!(
        err.to_string(),
        format!("axiom 4 failed for {send}: enabledness differs (true vs false)")
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The crashing protocols really do reset to the unique start state
    /// from every reachable state (the §5.3.2 audit, randomized).
    #[test]
    fn crashing_protocols_reset(
        history in prop::collection::vec(tx_input_strategy(), 0..12),
    ) {
        let p = dl_protocols::abp::protocol();
        let s = reach(&p.transmitter, &history);
        prop_assert!(dl_core::protocol::check_crashing(&p.transmitter, &[s]).is_ok());

        let p = dl_protocols::stenning::protocol();
        let s = reach(&p.transmitter, &history);
        prop_assert!(dl_core::protocol::check_crashing(&p.transmitter, &[s]).is_ok());
    }

    /// ... and the non-volatile transmitter never does, from any state.
    #[test]
    fn nonvolatile_never_resets(
        history in prop::collection::vec(tx_input_strategy(), 0..12),
    ) {
        let p = dl_protocols::nonvolatile::protocol();
        let tx = p.transmitter;
        let s = reach(&tx, &history);
        let crashed = tx.step_first(&s, &DlAction::Crash(Station::T)).unwrap();
        let start = tx.start_states().remove(0);
        prop_assert_ne!(crashed, start, "epoch counter must survive the crash");
    }

    /// Signatures conform on arbitrary actions (not just the fixed
    /// sample): protocol classify agrees with the canonical §5.1 maps.
    #[test]
    fn signatures_conform_pointwise(a in tx_input_strategy(), b in rx_input_strategy()) {
        use dl_core::protocol::station_classify;
        let abp = dl_protocols::abp::protocol();
        for probe in [a, b] {
            prop_assert_eq!(
                abp.transmitter.classify(&probe),
                station_classify(abp.transmitter.station(), &probe)
            );
            prop_assert_eq!(
                abp.receiver.classify(&probe),
                station_classify(abp.receiver.station(), &probe)
            );
        }
    }
}
