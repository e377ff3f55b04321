//! Property tests: the `PackedCodec` contract holds on random reachable
//! states of every protocol in the zoo.
//!
//! The contract, as documented on `ioa::intern::PackedCodec`:
//!
//! * **roundtrip** — `decode(encode(s)) == s`, consuming exactly the
//!   bytes `encode` wrote (the encoding is self-delimiting);
//! * **canonical** — equal states produce identical bytes, so re-encoding
//!   a decoded state reproduces the original byte string;
//! * **injective** — distinct reachable states along one trajectory
//!   produce distinct byte strings (byte equality IS state equality,
//!   which is what lets the packed exploration arena skip `Eq` on
//!   decoded values entirely);
//! * **in place** — `decode_into` onto a value that holds another state
//!   (the previously visited one) gives exactly what `decode` gives, as
//!   the explorer relies on when it decodes every frontier state into one
//!   reused state.

use proptest::prelude::*;

use dl_core::action::{Dir, DlAction, Msg, Packet, Station};
use ioa::intern::PackedCodec;
use ioa::Automaton;

/// Random input actions for a transmitter-side automaton.
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

/// Random input actions for a receiver-side automaton.
fn rx_input_strategy() -> impl Strategy<Value = DlAction> {
    let data = (0u64..4, 0u64..5).prop_map(|(s, m)| Packet::data(s, Msg(m)).with_uid(s * 10 + m));
    prop_oneof![
        data.prop_map(|p| DlAction::ReceivePkt(Dir::TR, p)),
        Just(DlAction::Wake(Dir::RT)),
        Just(DlAction::Fail(Dir::RT)),
        Just(DlAction::Crash(Station::R)),
    ]
}

/// Checks the full codec contract along one input-driven trajectory:
/// every visited state roundtrips, decodes in place onto the state
/// visited before it, re-encodes canonically, and encodings collide only
/// for equal states.
fn check_codec<M>(aut: &M, inputs: &[DlAction]) -> Result<(), TestCaseError>
where
    M: Automaton<Action = DlAction>,
    M::State: PackedCodec + Clone + PartialEq + std::fmt::Debug,
{
    let mut visited: Vec<(M::State, Vec<u8>)> = Vec::new();
    let mut s = aut.start_states().remove(0);
    let mut check_one = |s: &M::State| -> Result<(), TestCaseError> {
        let mut bytes = Vec::new();
        s.encode(&mut bytes);
        // Roundtrip, consuming exactly the bytes written.
        let mut cursor = &bytes[..];
        let back = M::State::decode(&mut cursor);
        prop_assert!(cursor.is_empty(), "encoding is not self-delimiting");
        prop_assert_eq!(&back, s, "decode(encode(s)) != s");
        // In place, onto a dirty target: the previously visited state.
        if let Some((prev, _)) = visited.last() {
            let mut onto = prev.clone();
            let mut cursor = &bytes[..];
            onto.decode_into(&mut cursor);
            prop_assert!(cursor.is_empty(), "decode_into consumed a different length");
            prop_assert_eq!(&onto, &back, "decode_into differs from decode");
        }
        // Canonical: re-encoding the decoded value reproduces the bytes.
        let mut again = Vec::new();
        back.encode(&mut again);
        prop_assert_eq!(&again, &bytes, "re-encoding is not canonical");
        // Injective along the trajectory: byte equality == state equality.
        for (t, tb) in &visited {
            prop_assert_eq!(
                tb == &bytes,
                t == s,
                "byte equality diverged from state equality"
            );
        }
        visited.push((s.clone(), bytes));
        Ok(())
    };
    check_one(&s)?;
    for a in inputs {
        s = aut.step_first(&s, a).expect("inputs always enabled");
        check_one(&s)?;
        if let Some(local) = aut.enabled_local(&s).into_iter().next() {
            s = aut.step_first(&s, &local).expect("enabled action steps");
            check_one(&s)?;
        }
    }
    Ok(())
}

macro_rules! codec_props {
    ($tx_test:ident, $rx_test:ident, $protocol:expr) => {
        proptest! {
            #[test]
            fn $tx_test(inputs in proptest::collection::vec(tx_input_strategy(), 1..40)) {
                check_codec(&$protocol.transmitter, &inputs)?;
            }

            #[test]
            fn $rx_test(inputs in proptest::collection::vec(rx_input_strategy(), 1..40)) {
                check_codec(&$protocol.receiver, &inputs)?;
            }
        }
    };
}

codec_props!(
    abp_tx_roundtrips,
    abp_rx_roundtrips,
    dl_protocols::abp::protocol()
);
codec_props!(
    go_back_2_tx_roundtrips,
    go_back_2_rx_roundtrips,
    dl_protocols::sliding_window::protocol(2)
);
codec_props!(
    go_back_8_tx_roundtrips,
    go_back_8_rx_roundtrips,
    dl_protocols::sliding_window::protocol(8)
);
codec_props!(
    selective_repeat_tx_roundtrips,
    selective_repeat_rx_roundtrips,
    dl_protocols::selective_repeat::protocol(4)
);
codec_props!(
    fragmenting_tx_roundtrips,
    fragmenting_rx_roundtrips,
    dl_protocols::fragmenting::protocol()
);
codec_props!(
    parity_tx_roundtrips,
    parity_rx_roundtrips,
    dl_protocols::parity::protocol()
);
codec_props!(
    stenning_tx_roundtrips,
    stenning_rx_roundtrips,
    dl_protocols::stenning::protocol()
);
codec_props!(
    nonvolatile_tx_roundtrips,
    nonvolatile_rx_roundtrips,
    dl_protocols::nonvolatile::protocol()
);
codec_props!(
    quirky_tx_roundtrips,
    quirky_rx_roundtrips,
    dl_protocols::quirky::protocol()
);
codec_props!(
    stabilizing_tx_roundtrips,
    stabilizing_rx_roundtrips,
    dl_protocols::stabilizing::protocol()
);
