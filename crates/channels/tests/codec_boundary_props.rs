//! Property tests: the `PackedCodec` contract at every boundary of the
//! codings that fill an explorer state — a packet's one-byte header and
//! the run coder behind message sets, sorted id sets and message queues —
//! and of the channel and observer states built from them.
//!
//! The explorer's models reach few of these boundaries: their headers
//! stay below the header byte's `seq` escape, their packets are
//! unstamped, and their message sets and queues are single runs. Each
//! case checks, over a batch of values that mixes boundary and random
//! ones, the four properties `ioa::intern::PackedCodec` documents:
//!
//! * **roundtrip** — `decode(encode(v)) == v`, consuming exactly the
//!   bytes `encode` wrote although another encoding follows them;
//! * **canonical** — re-encoding a decoded value gives the same bytes;
//! * **in place** — `decode_into` onto any other value of the batch gives
//!   what `decode` gives;
//! * **injective** — two values of the batch have equal bytes exactly
//!   when they are equal.

use std::collections::{BTreeSet, VecDeque};
use std::fmt::Debug;

use proptest::prelude::*;

use dl_channels::FlightState;
use dl_core::action::{Header, Msg, Packet, Tag};
use dl_core::observer::{MsgSet, ObserverState, SafetyFlag};
use ioa::intern::PackedCodec;

/// The four contract properties, over every value of `values` and every
/// pair of them.
fn check_contract<T>(values: &[T]) -> Result<(), TestCaseError>
where
    T: PackedCodec + Clone + PartialEq + Debug,
{
    let encoded: Vec<Vec<u8>> = values
        .iter()
        .map(|v| {
            let mut bytes = Vec::new();
            v.encode(&mut bytes);
            bytes
        })
        .collect();
    for (i, (v, bytes)) in values.iter().zip(&encoded).enumerate() {
        // Roundtrip, stopping where the next value's encoding begins.
        let mut stream = bytes.clone();
        stream.extend_from_slice(&encoded[(i + 1) % encoded.len()]);
        let mut cursor = &stream[..];
        let back = T::decode(&mut cursor);
        prop_assert_eq!(
            stream.len() - cursor.len(),
            bytes.len(),
            "{:?}: decode consumed another length than encode wrote",
            v
        );
        prop_assert_eq!(&back, v, "decode(encode(v)) != v");
        // Canonical: the decoded value re-encodes to the same bytes.
        let mut again = Vec::new();
        back.encode(&mut again);
        prop_assert_eq!(&again, bytes, "{:?}: re-encoding differs", v);
        for (w, w_bytes) in values.iter().zip(&encoded) {
            // In place, onto a target that holds another value.
            let mut onto = w.clone();
            let mut cursor = &bytes[..];
            onto.decode_into(&mut cursor);
            prop_assert!(
                cursor.is_empty(),
                "{:?}: decode_into consumed another length",
                v
            );
            prop_assert_eq!(&onto, v, "decode_into onto {:?} differs from decode", w);
            // Injective: byte equality is value equality.
            prop_assert_eq!(
                w_bytes == bytes,
                w == v,
                "byte equality diverged from equality for {:?} and {:?}",
                v,
                w
            );
        }
    }
    Ok(())
}

/// A station's message queue under the codec the zoo protocols give
/// their `queue` and `deliver` fields.
#[derive(Debug, Clone, PartialEq)]
struct Queue(VecDeque<Msg>);

impl PackedCodec for Queue {
    fn encode(&self, out: &mut Vec<u8>) {
        Msg::encode_queue(&self.0, out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        Queue(Msg::decode_queue(input))
    }
    fn decode_into(&mut self, input: &mut &[u8]) {
        Msg::decode_queue_into(&mut self.0, input);
    }
}

fn msg_set(values: &[u64]) -> MsgSet {
    let mut set = MsgSet::default();
    for &v in values {
        set.insert(Msg(v));
    }
    set
}

fn queue(values: &[u64]) -> Queue {
    Queue(values.iter().copied().map(Msg).collect())
}

/// A `u64` at an edge of the codings, or anywhere: the header byte's
/// `seq` escape (14, 15, 16), one-byte varints (127, 128) and the top of
/// the range, where runs wrap.
fn edge_u64() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(1u64),
        Just(14u64),
        Just(15u64),
        Just(16u64),
        Just(127u64),
        Just(128u64),
        Just(u64::MAX - 1),
        Just(u64::MAX),
        0u64..40,
        any::<u64>(),
    ]
}

fn tag() -> impl Strategy<Value = Tag> {
    prop_oneof![
        Just(Tag::Data),
        Just(Tag::Ack),
        Just(Tag::Init),
        Just(Tag::InitAck),
    ]
}

fn packet() -> impl Strategy<Value = Packet> {
    let uid = prop_oneof![
        Just(Packet::UNSTAMPED),
        Just(0u64),
        Just(u64::MAX - 1),
        any::<u64>(),
    ];
    let payload = prop_oneof![Just(None), edge_u64().prop_map(|m| Some(Msg(m)))];
    (tag(), edge_u64(), uid, payload).prop_map(|(tag, seq, uid, payload)| Packet {
        uid,
        header: Header::new(tag, seq),
        payload,
    })
}

/// A set's values in ascending order: the union of up to three runs of
/// one to four values, each from an edge value and capped at `u64::MAX`,
/// so the empty set, singletons, gaps and runs ending at `u64::MAX` all
/// occur.
fn set_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((edge_u64(), 1u64..5), 0..4).prop_map(|runs| {
        let mut set = BTreeSet::new();
        for (start, len) in runs {
            set.extend((0..len).map(|i| start.saturating_add(i)));
        }
        set.into_iter().collect()
    })
}

/// A queue that need not ascend: up to three pieces of one to four
/// values, each rising, repeating or falling from an edge value and
/// wrapping past either end of the range.
fn queue_values() -> impl Strategy<Value = Vec<u64>> {
    prop::collection::vec((edge_u64(), 1u64..5, 0u8..3), 0..4).prop_map(|pieces| {
        let mut values = Vec::new();
        for (start, len, shape) in pieces {
            values.extend((0..len).map(|i| match shape {
                0 => start.wrapping_add(i),
                1 => start,
                _ => start.wrapping_sub(i),
            }));
        }
        values
    })
}

fn safety_flag() -> impl Strategy<Value = Option<SafetyFlag>> {
    prop_oneof![
        Just(None),
        edge_u64().prop_map(|m| Some(SafetyFlag::Duplicate(Msg(m)))),
        edge_u64().prop_map(|m| Some(SafetyFlag::Phantom(Msg(m)))),
    ]
}

/// Every combination of the header byte's boundaries: all four tags;
/// `seq` 0, 14, 15, 16 and `u64::MAX`; uid unstamped, 0 and
/// `u64::MAX − 1`; payload absent, 0 and `u64::MAX`.
#[test]
fn packet_boundaries() {
    let mut packets = Vec::new();
    for tag in [Tag::Data, Tag::Ack, Tag::Init, Tag::InitAck] {
        for seq in [0, 14, 15, 16, u64::MAX] {
            for uid in [Packet::UNSTAMPED, 0, u64::MAX - 1] {
                for payload in [None, Some(Msg(0)), Some(Msg(u64::MAX))] {
                    packets.push(Packet {
                        uid,
                        header: Header::new(tag, seq),
                        payload,
                    });
                }
            }
        }
    }
    check_contract(&packets).unwrap();
}

/// Sets at the run coder's boundaries, with the neighbours a miscount
/// would confuse them with.
const SETS: [&[u64]; 12] = [
    &[],
    &[0],
    &[1],
    &[0, 1],
    &[0, 1, 2],
    &[0, 1, 2, 3],
    &[0, 1, 2, 5, 6],
    &[0, 2, 4],
    &[u64::MAX],
    &[u64::MAX - 1, u64::MAX],
    &[0, u64::MAX],
    &[0, 1, u64::MAX - 1, u64::MAX],
];

#[test]
fn set_boundaries() {
    let sets: Vec<BTreeSet<u64>> = SETS.iter().map(|s| s.iter().copied().collect()).collect();
    check_contract(&sets).unwrap();
    let sets: Vec<MsgSet> = SETS.iter().map(|s| msg_set(s)).collect();
    check_contract(&sets).unwrap();
}

/// Queues that are not ascending, beside the ascending ones they could be
/// mistaken for.
#[test]
fn queue_boundaries() {
    let queues: Vec<Queue> = [
        &[][..],
        &[0],
        &[0, 1, 2],
        &[5, 5, 5],
        &[5, 5],
        &[4, 3, 2, 1, 0],
        &[0, 1, 2, 1, 2],
        &[u64::MAX - 1, u64::MAX, 0, 1],
        &[u64::MAX, 0],
        &[0, u64::MAX],
        &[u64::MAX, 0, u64::MAX],
        &[1, 0, u64::MAX],
    ]
    .iter()
    .map(|q| queue(q))
    .collect();
    check_contract(&queues).unwrap();
}

proptest! {
    #[test]
    fn packets_keep_the_contract(packets in prop::collection::vec(packet(), 1..8)) {
        check_contract(&packets)?;
    }

    #[test]
    fn sorted_sets_keep_the_contract(sets in prop::collection::vec(set_values(), 1..6)) {
        let ids: Vec<BTreeSet<u64>> = sets.iter().map(|s| s.iter().copied().collect()).collect();
        check_contract(&ids)?;
        let msgs: Vec<MsgSet> = sets.iter().map(|s| msg_set(s)).collect();
        check_contract(&msgs)?;
    }

    #[test]
    fn queues_keep_the_contract(queues in prop::collection::vec(queue_values(), 1..6)) {
        let queues: Vec<Queue> = queues.iter().map(|q| queue(q)).collect();
        check_contract(&queues)?;
    }

    #[test]
    fn flight_states_keep_the_contract(
        flights in prop::collection::vec((prop::collection::vec(packet(), 0..5), edge_u64()), 1..6)
    ) {
        let flights: Vec<FlightState> = flights
            .into_iter()
            .map(|(in_flight, sends)| FlightState { in_flight, sends })
            .collect();
        check_contract(&flights)?;
    }

    #[test]
    fn observer_states_keep_the_contract(
        observers in prop::collection::vec((set_values(), set_values(), safety_flag()), 1..6)
    ) {
        let observers: Vec<ObserverState> = observers
            .into_iter()
            .map(|(sent, received, flag)| ObserverState {
                sent: msg_set(&sent),
                received: msg_set(&received),
                flag,
            })
            .collect();
        check_contract(&observers)?;
    }
}
