//! The shared action universe of a data link implementation.
//!
//! The paper parameterizes everything by an ordered pair `(t, r)` of station
//! names; we fix the two stations [`Station::T`] (transmitter) and
//! [`Station::R`] (receiver) and the two channel directions [`Dir::TR`] and
//! [`Dir::RT`]. All automata in a data link implementation — the two
//! protocol automata and the two physical channels — share the single
//! action type [`DlAction`], which makes the composition operator of `ioa`
//! directly applicable.

use std::collections::VecDeque;
use std::fmt;

use ioa::intern::{read_runs, read_varint, write_runs, write_varint, PackedCodec};

/// A station name: the transmitter `t` or the receiver `r`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Station {
    /// The transmitting station `t`.
    T,
    /// The receiving station `r`.
    R,
}

impl Station {
    /// The other station (`x̄` in the paper's notation).
    #[must_use]
    pub fn other(self) -> Station {
        match self {
            Station::T => Station::R,
            Station::R => Station::T,
        }
    }

    /// The channel direction on which this station transmits packets:
    /// `t` sends on `t→r`, `r` sends on `r→t`.
    #[must_use]
    pub fn sends_on(self) -> Dir {
        match self {
            Station::T => Dir::TR,
            Station::R => Dir::RT,
        }
    }

    /// The channel direction on which this station receives packets.
    #[must_use]
    pub fn receives_on(self) -> Dir {
        self.sends_on().reverse()
    }
}

impl fmt::Display for Station {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Station::T => f.write_str("t"),
            Station::R => f.write_str("r"),
        }
    }
}

/// A physical channel direction: transmitter-to-receiver or back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Dir {
    /// The `t → r` direction.
    TR,
    /// The `r → t` direction.
    RT,
}

impl Dir {
    /// Both directions, in `(TR, RT)` order.
    pub const BOTH: [Dir; 2] = [Dir::TR, Dir::RT];

    /// The opposite direction.
    #[must_use]
    pub fn reverse(self) -> Dir {
        match self {
            Dir::TR => Dir::RT,
            Dir::RT => Dir::TR,
        }
    }

    /// The station that sends packets in this direction.
    #[must_use]
    pub fn sender(self) -> Station {
        match self {
            Dir::TR => Station::T,
            Dir::RT => Station::R,
        }
    }

    /// The station that receives packets sent in this direction.
    #[must_use]
    pub fn receiver(self) -> Station {
        self.sender().other()
    }
}

impl fmt::Display for Dir {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Dir::TR => f.write_str("t,r"),
            Dir::RT => f.write_str("r,t"),
        }
    }
}

/// A message from the paper's fixed **infinite** alphabet `M`.
///
/// Messages are opaque identities; message-independent protocols never
/// branch on the value (see [`crate::equivalence`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Msg(pub u64);

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "m{}", self.0)
    }
}

impl PackedCodec for Msg {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.0);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        Msg(read_varint(input))
    }
}

impl Msg {
    /// Appends a station's message queue as runs of consecutive messages
    /// ([`write_runs`]): the explorer's models send messages in order, so
    /// a queue is one run, three bytes long whatever its length. The
    /// generic `VecDeque` codec would write every message.
    #[inline]
    pub fn encode_queue(queue: &VecDeque<Msg>, out: &mut Vec<u8>) {
        write_runs(out, queue.iter().map(|m| m.0));
    }

    /// Inverse of [`encode_queue`](Self::encode_queue).
    #[inline]
    #[must_use]
    pub fn decode_queue(input: &mut &[u8]) -> VecDeque<Msg> {
        let mut queue = VecDeque::new();
        Msg::decode_queue_into(&mut queue, input);
        queue
    }

    /// [`decode_queue`](Self::decode_queue) into `queue`, reusing its
    /// buffer: no allocation once it has grown.
    #[inline]
    pub fn decode_queue_into(queue: &mut VecDeque<Msg>, input: &mut &[u8]) {
        queue.clear();
        read_runs(input, |v| queue.push_back(Msg(v)));
    }
}

/// The protocol-interpreted part of a packet header: its role.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Tag {
    /// Carries a message payload.
    Data,
    /// Acknowledges received data.
    Ack,
    /// Link-initialization request (used by the Baratz–Segall-style
    /// protocol).
    Init,
    /// Link-initialization acknowledgement.
    InitAck,
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Tag::Data => "DATA",
            Tag::Ack => "ACK",
            Tag::Init => "INIT",
            Tag::InitAck => "INIT-ACK",
        };
        f.write_str(s)
    }
}

/// A packet header: the information a data link protocol adds to a message
/// before sending it on the physical channel (§1, §5.3.1).
///
/// The set of *distinct header values a protocol ever sends* is the paper's
/// `headers(A, ≡)`; a protocol has **bounded headers** when that set is
/// finite. Sliding-window protocols keep `seq` modulo a constant (bounded);
/// Stenning's protocol lets `seq` grow without bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Header {
    /// The packet's role.
    pub tag: Tag,
    /// Sequence number (modulo some constant for bounded-header protocols).
    pub seq: u64,
}

impl Header {
    /// Convenience constructor.
    #[must_use]
    pub fn new(tag: Tag, seq: u64) -> Self {
        Header { tag, seq }
    }

    /// A data header with the given sequence number.
    #[must_use]
    pub fn data(seq: u64) -> Self {
        Header::new(Tag::Data, seq)
    }

    /// An ack header with the given sequence number.
    #[must_use]
    pub fn ack(seq: u64) -> Self {
        Header::new(Tag::Ack, seq)
    }
}

impl fmt::Display for Header {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.tag, self.seq)
    }
}

/// A packet from the paper's alphabet `P`.
///
/// Following §3 (footnote 4), each packet carries a **unique label** `uid`
/// that exists "for ease of analysis" only: it models the packet's identity
/// so that PL2–PL5 can correlate sends with receives, but it does not
/// correspond to bits on the wire and **no protocol may interpret it**.
///
/// Protocol automata emit packets with `uid == Packet::UNSTAMPED` and accept
/// any uid on input; executors stamp globally fresh uids at send time (see
/// `dl-sim`). Two packets are *equivalent* (same header class, §5.3.1) when
/// they agree on everything except `uid` and payload identity — see
/// [`crate::equivalence::packets_equivalent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Packet {
    /// Analysis-only unique label (paper §3, footnote 4).
    pub uid: u64,
    /// The protocol-interpreted header.
    pub header: Header,
    /// Message payload, if this packet carries one.
    pub payload: Option<Msg>,
}

impl Packet {
    /// The uid protocol automata use when emitting a packet; executors
    /// replace it with a globally fresh value.
    pub const UNSTAMPED: u64 = u64::MAX;

    /// An unstamped packet with the given header and payload.
    #[must_use]
    pub fn new(header: Header, payload: Option<Msg>) -> Self {
        Packet {
            uid: Packet::UNSTAMPED,
            header,
            payload,
        }
    }

    /// An unstamped data packet.
    #[must_use]
    pub fn data(seq: u64, msg: Msg) -> Self {
        Packet::new(Header::data(seq), Some(msg))
    }

    /// An unstamped ack packet.
    #[must_use]
    pub fn ack(seq: u64) -> Self {
        Packet::new(Header::ack(seq), None)
    }

    /// A copy of this packet with the given uid.
    #[must_use]
    pub fn with_uid(mut self, uid: u64) -> Self {
        self.uid = uid;
        self
    }

    /// A copy with the uid reset to [`Packet::UNSTAMPED`] — the packet's
    /// protocol-visible content.
    #[must_use]
    pub fn content(mut self) -> Self {
        self.uid = Packet::UNSTAMPED;
        self
    }
}

/// `seq` values below this fit a packed packet's header byte; from it
/// on, the byte holds it and `seq − SEQ_ESCAPE` follows as a varint.
const SEQ_ESCAPE: u64 = 15;

/// One header byte, then only the varints it announces: the uid if the
/// packet is stamped, `seq − 15` if `seq` does not fit the byte, and the
/// payload if there is one. The byte holds the tag in bits 0–1, a
/// payload flag in bit 2, a stamped flag in bit 3 and `min(seq, 15)` in
/// bits 4–7. A bounded-header protocol's unstamped packet, the common
/// case in explorer states, takes 1 byte without a payload and 2 with
/// a small one.
impl PackedCodec for Packet {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        let tag = match self.header.tag {
            Tag::Data => 0,
            Tag::Ack => 1,
            Tag::Init => 2,
            Tag::InitAck => 3,
        };
        let stamped = self.uid != Packet::UNSTAMPED;
        let seq = self.header.seq.min(SEQ_ESCAPE) as u8;
        out.push(tag | u8::from(self.payload.is_some()) << 2 | u8::from(stamped) << 3 | seq << 4);
        if stamped {
            write_varint(out, self.uid);
        }
        if self.header.seq >= SEQ_ESCAPE {
            write_varint(out, self.header.seq - SEQ_ESCAPE);
        }
        if let Some(m) = self.payload {
            write_varint(out, m.0);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let (&byte, rest) = input.split_first().expect("truncated packet");
        *input = rest;
        let tag = match byte & 0b11 {
            0 => Tag::Data,
            1 => Tag::Ack,
            2 => Tag::Init,
            _ => Tag::InitAck,
        };
        let uid = if byte & 0b1000 != 0 {
            read_varint(input)
        } else {
            Packet::UNSTAMPED
        };
        let mut seq = u64::from(byte >> 4);
        if seq == SEQ_ESCAPE {
            seq += read_varint(input);
        }
        let payload = (byte & 0b100 != 0).then(|| Msg(read_varint(input)));
        Packet {
            uid,
            header: Header { tag, seq },
            payload,
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "⟨{}", self.header)?;
        if let Some(m) = self.payload {
            write!(f, " {m}")?;
        }
        if self.uid != Packet::UNSTAMPED {
            write!(f, " u{}", self.uid)?;
        }
        f.write_str("⟩")
    }
}

/// The shared action universe (paper Figures 1–3).
///
/// `send_msg`/`receive_msg` are fixed to the `t → r` data link (the paper's
/// `send_msg^{t,r}` / `receive_msg^{t,r}`); packets flow on both directed
/// physical channels. `wake`/`fail` are indexed by medium direction and
/// `crash` by the station that crashed (the paper writes `crash^{t,r}` for a
/// transmitter crash and `crash^{r,t}` for a receiver crash).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DlAction {
    /// `send_msg^{t,r}(m)` — the environment hands a message to the data
    /// link at the transmitting station.
    SendMsg(Msg),
    /// `receive_msg^{t,r}(m)` — the data link delivers a message to the
    /// environment at the receiving station.
    ReceiveMsg(Msg),
    /// `send_pkt^{d}(p)` — a protocol automaton puts a packet on the
    /// physical channel in direction `d`.
    SendPkt(Dir, Packet),
    /// `receive_pkt^{d}(p)` — the physical channel in direction `d`
    /// delivers a packet.
    ReceivePkt(Dir, Packet),
    /// `wake^{d}` — notification that the medium in direction `d` became
    /// active.
    Wake(Dir),
    /// `fail^{d}` — notification that the medium in direction `d` became
    /// inactive.
    Fail(Dir),
    /// `crash^{x}` — notification that station `x` suffered a hardware
    /// crash.
    Crash(Station),
    /// An internal action of the protocol automaton at the given station,
    /// identified by an opaque code.
    Internal(Station, u64),
}

impl DlAction {
    /// The packet carried by a `send_pkt`/`receive_pkt` action.
    #[must_use]
    pub fn packet(&self) -> Option<&Packet> {
        match self {
            DlAction::SendPkt(_, p) | DlAction::ReceivePkt(_, p) => Some(p),
            _ => None,
        }
    }

    /// The message carried by a `send_msg`/`receive_msg` action.
    #[must_use]
    pub fn message(&self) -> Option<Msg> {
        match self {
            DlAction::SendMsg(m) | DlAction::ReceiveMsg(m) => Some(*m),
            _ => None,
        }
    }

    /// `true` for `send_pkt`/`receive_pkt` — the actions hidden by
    /// `hide_Φ` in the correctness definition (§5.2).
    #[must_use]
    pub fn is_packet_action(&self) -> bool {
        matches!(self, DlAction::SendPkt(..) | DlAction::ReceivePkt(..))
    }

    /// A copy with any carried packet's uid replaced by `uid`.
    #[must_use]
    pub fn with_packet_uid(self, uid: u64) -> DlAction {
        match self {
            DlAction::SendPkt(d, p) => DlAction::SendPkt(d, p.with_uid(uid)),
            DlAction::ReceivePkt(d, p) => DlAction::ReceivePkt(d, p.with_uid(uid)),
            other => other,
        }
    }
}

impl fmt::Display for DlAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DlAction::SendMsg(m) => write!(f, "send_msg^t,r({m})"),
            DlAction::ReceiveMsg(m) => write!(f, "receive_msg^t,r({m})"),
            DlAction::SendPkt(d, p) => write!(f, "send_pkt^{d}({p})"),
            DlAction::ReceivePkt(d, p) => write!(f, "receive_pkt^{d}({p})"),
            DlAction::Wake(d) => write!(f, "wake^{d}"),
            DlAction::Fail(d) => write!(f, "fail^{d}"),
            DlAction::Crash(Station::T) => f.write_str("crash^t,r"),
            DlAction::Crash(Station::R) => f.write_str("crash^r,t"),
            DlAction::Internal(s, c) => write!(f, "internal^{s}({c})"),
        }
    }
}

/// Renders a trace one action per line, for diagnostics and examples.
#[must_use]
pub fn format_trace(trace: &[DlAction]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for (i, a) in trace.iter().enumerate() {
        let _ = writeln!(out, "{i:>4}  {a}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn station_duality() {
        assert_eq!(Station::T.other(), Station::R);
        assert_eq!(Station::R.other(), Station::T);
        assert_eq!(Station::T.sends_on(), Dir::TR);
        assert_eq!(Station::T.receives_on(), Dir::RT);
        assert_eq!(Station::R.sends_on(), Dir::RT);
        assert_eq!(Station::R.receives_on(), Dir::TR);
    }

    #[test]
    fn dir_duality() {
        assert_eq!(Dir::TR.reverse(), Dir::RT);
        assert_eq!(Dir::RT.reverse(), Dir::TR);
        assert_eq!(Dir::TR.sender(), Station::T);
        assert_eq!(Dir::TR.receiver(), Station::R);
        assert_eq!(Dir::RT.sender(), Station::R);
        for d in Dir::BOTH {
            assert_eq!(d.sender().sends_on(), d);
        }
    }

    #[test]
    fn packet_constructors() {
        let p = Packet::data(3, Msg(9));
        assert_eq!(p.uid, Packet::UNSTAMPED);
        assert_eq!(p.header, Header::new(Tag::Data, 3));
        assert_eq!(p.payload, Some(Msg(9)));

        let a = Packet::ack(4);
        assert_eq!(a.header.tag, Tag::Ack);
        assert_eq!(a.payload, None);

        let stamped = p.with_uid(17);
        assert_eq!(stamped.uid, 17);
        assert_eq!(stamped.content(), p);
    }

    #[test]
    fn packed_packets_take_one_header_byte() {
        let len = |p: Packet| {
            let mut out = Vec::new();
            p.encode(&mut out);
            out.len()
        };
        assert_eq!(len(Packet::data(1, Msg(9))), 2);
        assert_eq!(len(Packet::ack(0)), 1);
        assert_eq!(len(Packet::new(Header::new(Tag::InitAck, 14), None)), 1);
        // Past the byte: an escaped seq and a stamp each add a varint.
        assert_eq!(len(Packet::ack(15)), 2);
        assert_eq!(len(Packet::data(1, Msg(9)).with_uid(3)), 3);
    }

    #[test]
    fn action_accessors() {
        let p = Packet::data(0, Msg(1)).with_uid(5);
        let send = DlAction::SendPkt(Dir::TR, p);
        assert_eq!(send.packet(), Some(&p));
        assert!(send.is_packet_action());
        assert_eq!(send.message(), None);
        assert_eq!(send.with_packet_uid(9).packet().unwrap().uid, 9);

        let sm = DlAction::SendMsg(Msg(2));
        assert_eq!(sm.message(), Some(Msg(2)));
        assert!(!sm.is_packet_action());
        assert_eq!(sm.with_packet_uid(9), sm);
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(DlAction::Wake(Dir::TR).to_string(), "wake^t,r");
        assert_eq!(DlAction::Crash(Station::R).to_string(), "crash^r,t");
        assert_eq!(DlAction::SendMsg(Msg(3)).to_string(), "send_msg^t,r(m3)");
        let p = Packet::data(1, Msg(2)).with_uid(7);
        assert_eq!(
            DlAction::SendPkt(Dir::TR, p).to_string(),
            "send_pkt^t,r(⟨DATA#1 m2 u7⟩)"
        );
        assert_eq!(Packet::ack(0).to_string(), "⟨ACK#0⟩");
    }

    #[test]
    fn format_trace_numbers_lines() {
        let t = vec![DlAction::Wake(Dir::TR), DlAction::Fail(Dir::TR)];
        let s = format_trace(&t);
        assert!(s.contains("   0  wake^t,r"));
        assert!(s.contains("   1  fail^t,r"));
    }
}
