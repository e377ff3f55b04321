//! Streaming, single-pass conformance monitor for the layer specifications.
//!
//! [`TraceMonitor`] consumes [`DlAction`]s — one at a time via
//! [`observe`](TraceMonitor::observe) or a slice at a time via
//! [`observe_all`](TraceMonitor::observe_all) — and maintains just enough
//! state to judge the physical-layer properties PL1–PL5 (per direction),
//! the data-link properties DL1–DL8, well-formedness, and the in-transit
//! packet multiset — all in amortized `O(1)` per action. The batch
//! checkers in [`crate::spec::physical`] and [`crate::spec::datalink`] are
//! thin replay wrappers over this monitor, so there is exactly one code
//! path and every verdict (property name, trace index, reason string)
//! matches what the original quadratic checkers produced.
//!
//! # State layout
//!
//! Packet and message values are interned through
//! [`ioa::intern::StateTable`] keyed by the deterministic
//! [`FxBuildHasher`], so each observed action pays **one** hash-and-probe
//! and every per-value fact afterwards is an array index on the dense
//! `u32` id. The facts themselves are struct-of-arrays columns aligned
//! with the interner: a sent/received bit-flag column and a first-send
//! ordinal column (the FIFO checkers' send-position map). The in-transit
//! multiset is a slot arena threaded by two intrusive lists — a per-value
//! FIFO chain (which pending copy a receive cancels) and a global
//! send-order list (what [`in_transit`](TraceMonitor::in_transit)
//! enumerates) — with cancelled slots recycled through a free list, so
//! monitor memory is bounded by the **live** in-transit population plus
//! the distinct-value tables, never by total sends.
//!
//! Two kinds of properties coexist:
//!
//! * **online** properties (PL2–PL5, DL2–DL6, well-formedness) are decided
//!   the moment the offending action is observed; the monitor records the
//!   *first* violation of each and [`TraceMonitor::online_violation`]
//!   reports the earliest conclusion-class one — the hook the simulator
//!   uses to abort a run on the offending prefix;
//! * **end-of-trace** properties (PL1 is online too, but DL1, DL7 and DL8
//!   quantify over the *final* received set and the *unbounded* working
//!   interval) are evaluated lazily at verdict-query time, "as if the trace
//!   ended now". Querying is `O(sends)` for DL7/DL8 and `O(1)` for the
//!   rest; observing stays `O(1)`.
//!
//! # Data-link-only posture
//!
//! [`TraceMonitor::data_link_only`] builds a monitor for runs that judge
//! only the data link (the simulator's `monitor_pl = false` posture, which
//! the fleet and the fuzzer run). Packet actions only advance its trace
//! index, so every violation's `at` still points into the full schedule.
//! It keeps each direction's well-formedness status inline, as every
//! monitor does, but has no packet tables: the two directions' tables sit
//! behind one box that only [`TraceMonitor::new`] fills, so a
//! data-link-only monitor is a third the size and builds without
//! allocating. Its physical-layer queries panic rather than answer
//! without them.
//!
//! Duplicate-send semantics (see `spec::physical::check_pl5` /
//! `spec::datalink::check_dl6`): a duplicate packet (resp. message) send
//! *poisons* the FIFO checker — PL2 (resp. DL3) already makes the module
//! verdict vacuous in that case, so PL5/DL6 stop judging rather than
//! misattribute a legal retransmission to reordering. A receive of a
//! never-sent value likewise poisons FIFO checking (it is PL4/DL5's
//! violation to report). Violations recorded *before* the poisoning event
//! stand.

use ioa::intern::{FxBuildHasher, StateId, StateTable};
use ioa::schedule_module::{TraceKind, Verdict, Violation};

use crate::action::{Dir, DlAction, Msg, Packet};

/// Null link/slot marker in the intrusive lists and id columns.
const NONE: u32 = u32::MAX;

/// "No send position recorded" sentinel in the FIFO ordinal column.
const NO_POS: u64 = u64::MAX;

/// `flags` bit: the value has been sent at least once.
const SENT: u8 = 1;

/// `flags` bit: the value has been received at least once.
const RECEIVED: u8 = 2;

/// Batches below this length skip the reserve pre-scan: the scan only
/// pays off when a slice is long enough for mid-stream table doublings.
const RESERVE_THRESHOLD: usize = 4096;

/// Online well-formedness state for one medium direction: the streaming
/// equivalent of [`crate::spec::wellformed::MediumTimeline`].
#[derive(Debug, Clone, Default)]
struct StatusState {
    /// `true` between a `wake` and the next `fail`/`crash`.
    up: bool,
    /// First well-formedness violation (index + reason), if any.
    error: Option<(usize, &'static str)>,
}

impl StatusState {
    fn wake(&mut self, i: usize) {
        if self.up && self.error.is_none() {
            self.error = Some((i, "wake while medium already active"));
        }
        self.up = true;
    }

    fn fail(&mut self, i: usize) {
        if !self.up && self.error.is_none() {
            self.error = Some((i, "fail while medium not active"));
        }
        self.up = false;
    }

    fn crash(&mut self) {
        // A crash may follow a wake with no intervening fail and starts a
        // new crash interval; never a well-formedness error by itself.
        self.up = false;
    }

    fn violation(&self) -> Option<Violation> {
        self.error.map(|(at, reason)| Violation {
            property: "well-formedness",
            at: Some(at),
            reason: reason.to_string(),
        })
    }
}

/// Per-value history columns, indexed by interned value id.
#[derive(Debug, Clone, Default)]
struct ValueCols {
    /// [`SENT`] / [`RECEIVED`] bit-flags.
    flags: Vec<u8>,
    /// First-send ordinal for the FIFO checker, [`NO_POS`] if none.
    /// Written only while the checker is unpoisoned, mirroring the
    /// insertion discipline of the old `send_pos` map.
    send_pos: Vec<u64>,
}

impl ValueCols {
    /// Appends the columns for a freshly interned id.
    #[inline]
    fn push_value(&mut self) {
        self.flags.push(0);
        self.send_pos.push(NO_POS);
    }

    fn reserve(&mut self, additional: usize) {
        self.flags.reserve(additional);
        self.send_pos.reserve(additional);
    }

    fn approx_bytes(&self) -> usize {
        self.flags.capacity() + self.send_pos.capacity() * std::mem::size_of::<u64>()
    }
}

/// In-transit packet tracking with **multiset** semantics: each receive
/// cancels the earliest still-pending send of the same packet value, and a
/// receive with no pending copy pre-cancels the *next* send of that value
/// (net in-transit count per value = sends − receives, clamped at zero,
/// surviving copies being the latest sends).
///
/// Struct-of-arrays slot arena. A pending send occupies one slot carrying
/// its value id; slots are threaded onto two intrusive lists — the
/// per-value FIFO chain rooted at `q_head`/`q_tail` and the global
/// send-order list rooted at `ord_head`/`ord_tail`. A cancelled slot is
/// unlinked from both and pushed on the free list (reusing the
/// `next_same` column as the link), so the arena never outgrows the
/// **peak live** in-transit population.
#[derive(Debug, Clone)]
struct TransitState {
    /// Interned value id of each slot.
    slot_val: Vec<u32>,
    /// Live slot: next pending slot of the same value, oldest first.
    /// Freed slot: next entry on the free list.
    next_same: Vec<u32>,
    /// Global send-order doubly-linked list.
    ord_prev: Vec<u32>,
    ord_next: Vec<u32>,
    ord_head: u32,
    ord_tail: u32,
    free_head: u32,
    live: u32,
    /// Per-value (id-indexed): oldest/newest pending slot of that value.
    q_head: Vec<u32>,
    q_tail: Vec<u32>,
    /// Per-value: receives observed with no pending matching send.
    unmatched: Vec<u32>,
}

impl Default for TransitState {
    fn default() -> Self {
        TransitState {
            slot_val: Vec::new(),
            next_same: Vec::new(),
            ord_prev: Vec::new(),
            ord_next: Vec::new(),
            ord_head: NONE,
            ord_tail: NONE,
            free_head: NONE,
            live: 0,
            q_head: Vec::new(),
            q_tail: Vec::new(),
            unmatched: Vec::new(),
        }
    }
}

impl TransitState {
    /// Appends the per-value columns for a freshly interned id.
    #[inline]
    fn push_value(&mut self) {
        self.q_head.push(NONE);
        self.q_tail.push(NONE);
        self.unmatched.push(0);
    }

    fn send(&mut self, id: u32) {
        let v = id as usize;
        if self.unmatched[v] > 0 {
            self.unmatched[v] -= 1;
            return;
        }
        let slot = if self.free_head == NONE {
            let s = u32::try_from(self.slot_val.len()).expect("transit arena overflowed u32");
            self.slot_val.push(id);
            self.next_same.push(NONE);
            self.ord_prev.push(NONE);
            self.ord_next.push(NONE);
            s
        } else {
            let s = self.free_head;
            self.free_head = self.next_same[s as usize];
            self.slot_val[s as usize] = id;
            self.next_same[s as usize] = NONE;
            s
        };
        let si = slot as usize;
        // Append to this value's FIFO chain…
        if self.q_tail[v] == NONE {
            self.q_head[v] = slot;
        } else {
            self.next_same[self.q_tail[v] as usize] = slot;
        }
        self.q_tail[v] = slot;
        // …and to the global send-order list.
        self.ord_prev[si] = self.ord_tail;
        self.ord_next[si] = NONE;
        if self.ord_tail == NONE {
            self.ord_head = slot;
        } else {
            self.ord_next[self.ord_tail as usize] = slot;
        }
        self.ord_tail = slot;
        self.live += 1;
    }

    fn receive(&mut self, id: u32) {
        let v = id as usize;
        let slot = self.q_head[v];
        if slot == NONE {
            self.unmatched[v] += 1;
            return;
        }
        let si = slot as usize;
        // Pop the oldest pending copy off the value chain…
        self.q_head[v] = self.next_same[si];
        if self.q_head[v] == NONE {
            self.q_tail[v] = NONE;
        }
        // …unlink it from the send-order list…
        let (p, n) = (self.ord_prev[si], self.ord_next[si]);
        if p == NONE {
            self.ord_head = n;
        } else {
            self.ord_next[p as usize] = n;
        }
        if n == NONE {
            self.ord_tail = p;
        } else {
            self.ord_prev[n as usize] = p;
        }
        // …and recycle the slot.
        self.next_same[si] = self.free_head;
        self.free_head = slot;
        self.live -= 1;
    }

    fn reserve(&mut self, additional: usize) {
        self.q_head.reserve(additional);
        self.q_tail.reserve(additional);
        self.unmatched.reserve(additional);
    }

    fn approx_bytes(&self) -> usize {
        (self.slot_val.capacity()
            + self.next_same.capacity()
            + self.ord_prev.capacity()
            + self.ord_next.capacity()
            + self.q_head.capacity()
            + self.q_tail.capacity()
            + self.unmatched.capacity())
            * std::mem::size_of::<u32>()
    }
}

/// Per-direction physical-layer monitor state (PL1–PL5 + in-transit);
/// the direction's well-formedness status lives beside it in
/// [`TraceMonitor`].
#[derive(Debug, Clone, Default)]
struct PlState {
    /// Packet value interner: every send/receive pays one probe here and
    /// indexes the columns below with the resulting dense id.
    values: StateTable<Packet, FxBuildHasher>,
    vals: ValueCols,
    transit: TransitState,
    sends: u64,
    last_recv_pos: Option<u64>,
    /// PL5 stops judging after a duplicate send or a receive-of-unsent.
    fifo_poisoned: bool,
    pl1: Option<Violation>,
    pl2: Option<Violation>,
    pl3: Option<Violation>,
    pl4: Option<Violation>,
    pl5: Option<Violation>,
}

impl PlState {
    #[inline]
    fn intern(&mut self, p: &Packet) -> u32 {
        let (id, fresh) = self.values.intern(*p);
        if fresh {
            self.vals.push_value();
            self.transit.push_value();
        }
        id.0
    }

    /// A `send_pkt` at trace index `i`, with the medium `up` or not.
    fn send(&mut self, i: usize, dir: Dir, p: &Packet, up: bool) {
        if !up && self.pl1.is_none() {
            self.pl1 = Some(Violation {
                property: "PL1",
                at: Some(i),
                reason: format!("send_pkt^{dir} outside any working interval"),
            });
        }
        let v = self.intern(p) as usize;
        if self.vals.flags[v] & SENT != 0 {
            if self.pl2.is_none() {
                self.pl2 = Some(Violation {
                    property: "PL2",
                    at: Some(i),
                    reason: format!("packet {p} sent twice"),
                });
            }
        } else {
            self.vals.flags[v] |= SENT;
        }
        if !self.fifo_poisoned {
            if self.vals.send_pos[v] == NO_POS {
                self.vals.send_pos[v] = self.sends;
            } else {
                self.fifo_poisoned = true;
            }
        }
        self.sends += 1;
        self.transit.send(v as u32);
    }

    fn receive(&mut self, i: usize, p: &Packet) {
        let v = self.intern(p) as usize;
        if self.vals.flags[v] & RECEIVED != 0 {
            if self.pl3.is_none() {
                self.pl3 = Some(Violation {
                    property: "PL3",
                    at: Some(i),
                    reason: format!("packet {p} received twice"),
                });
            }
        } else {
            self.vals.flags[v] |= RECEIVED;
        }
        if self.vals.flags[v] & SENT == 0 && self.pl4.is_none() {
            self.pl4 = Some(Violation {
                property: "PL4",
                at: Some(i),
                reason: format!("packet {p} received but never sent"),
            });
        }
        if !self.fifo_poisoned && self.pl5.is_none() {
            let pos = self.vals.send_pos[v];
            if pos == NO_POS {
                self.fifo_poisoned = true;
            } else {
                if let Some(prev) = self.last_recv_pos {
                    if pos < prev {
                        self.pl5 = Some(Violation {
                            property: "PL5 (FIFO)",
                            at: Some(i),
                            reason: format!(
                                "packet {p} (send position {pos}) received after a packet \
                                 with send position {prev}"
                            ),
                        });
                    }
                }
                self.last_recv_pos = Some(pos);
            }
        }
        self.transit.receive(v as u32);
    }

    fn approx_bytes(&self) -> usize {
        self.values.approx_bytes() + self.vals.approx_bytes() + self.transit.approx_bytes()
    }
}

/// Data-link-layer monitor state (DL2–DL8; DL1 is derived from the status
/// monitors at query time).
#[derive(Debug, Clone, Default)]
struct DlState {
    /// Message value interner; columns below are indexed by its dense ids.
    values: StateTable<Msg, FxBuildHasher>,
    vals: ValueCols,
    sends: u64,
    last_recv_pos: Option<u64>,
    /// DL6 stops judging after a duplicate send or a receive-of-unsent.
    fifo_poisoned: bool,
    /// `(trace index, message id)` of each `send_msg` inside a *closed*
    /// transmitter working interval, grouped per interval in trace order.
    closed_interval_sends: Vec<Vec<(usize, u32)>>,
    /// Sends inside the currently open transmitter working interval.
    open_interval_sends: Vec<(usize, u32)>,
    dl2: Option<Violation>,
    dl3: Option<Violation>,
    dl4: Option<Violation>,
    dl5: Option<Violation>,
    dl6: Option<Violation>,
}

impl DlState {
    #[inline]
    fn intern(&mut self, m: Msg) -> u32 {
        let (id, fresh) = self.values.intern(m);
        if fresh {
            self.vals.push_value();
        }
        id.0
    }

    fn on_tx_wake(&mut self) {
        // On a malformed double wake the previous interval's sends are
        // sealed off as well; the module verdict is vacuous then anyway.
        self.on_tx_down();
        self.open_interval_sends = Vec::new();
    }

    fn on_tx_down(&mut self) {
        if !self.open_interval_sends.is_empty() {
            self.closed_interval_sends
                .push(std::mem::take(&mut self.open_interval_sends));
        }
    }

    fn send(&mut self, i: usize, m: Msg, tx_up: bool) {
        let v = self.intern(m) as usize;
        if tx_up {
            self.open_interval_sends.push((i, v as u32));
        } else if self.dl2.is_none() {
            self.dl2 = Some(Violation {
                property: "DL2",
                at: Some(i),
                reason: format!("send_msg({m}) outside any transmitter working interval"),
            });
        }
        if self.vals.flags[v] & SENT != 0 {
            if self.dl3.is_none() {
                self.dl3 = Some(Violation {
                    property: "DL3",
                    at: Some(i),
                    reason: format!("message {m} sent twice"),
                });
            }
        } else {
            self.vals.flags[v] |= SENT;
        }
        if !self.fifo_poisoned {
            if self.vals.send_pos[v] == NO_POS {
                self.vals.send_pos[v] = self.sends;
            } else {
                self.fifo_poisoned = true;
            }
        }
        self.sends += 1;
    }

    fn receive(&mut self, i: usize, m: Msg) {
        let v = self.intern(m) as usize;
        if self.vals.flags[v] & RECEIVED != 0 {
            if self.dl4.is_none() {
                self.dl4 = Some(Violation {
                    property: "DL4",
                    at: Some(i),
                    reason: format!("message {m} received twice"),
                });
            }
        } else {
            self.vals.flags[v] |= RECEIVED;
        }
        if self.vals.flags[v] & SENT == 0 && self.dl5.is_none() {
            self.dl5 = Some(Violation {
                property: "DL5",
                at: Some(i),
                reason: format!("message {m} received but never sent"),
            });
        }
        if !self.fifo_poisoned && self.dl6.is_none() {
            let pos = self.vals.send_pos[v];
            if pos == NO_POS {
                self.fifo_poisoned = true;
            } else {
                if let Some(prev) = self.last_recv_pos {
                    if pos < prev {
                        self.dl6 = Some(Violation {
                            property: "DL6 (FIFO)",
                            at: Some(i),
                            reason: format!(
                                "message {m} (send position {pos}) received after a \
                                 message with send position {prev}"
                            ),
                        });
                    }
                }
                self.last_recv_pos = Some(pos);
            }
        }
    }

    /// `true` if the message with interned id `id` has been received.
    #[inline]
    fn is_received(&self, id: u32) -> bool {
        self.vals.flags[id as usize] & RECEIVED != 0
    }

    #[inline]
    fn msg(&self, id: u32) -> Msg {
        *self.values.get(StateId(id))
    }

    fn approx_bytes(&self) -> usize {
        let pair = std::mem::size_of::<(usize, u32)>();
        self.values.approx_bytes()
            + self.vals.approx_bytes()
            + self.open_interval_sends.capacity() * pair
            + self
                .closed_interval_sends
                .iter()
                .map(|v| v.capacity() * pair)
                .sum::<usize>()
            + self.closed_interval_sends.capacity() * std::mem::size_of::<Vec<(usize, u32)>>()
    }
}

/// Of two recorded violations, the one observed earlier (first argument
/// wins ties) — the allocation-free core of the online candidate filter.
fn earlier<'a>(best: Option<&'a Violation>, cand: Option<&'a Violation>) -> Option<&'a Violation> {
    match (best, cand) {
        (Some(b), Some(c)) if c.at < b.at => Some(c),
        (Some(b), _) => Some(b),
        (None, c) => c,
    }
}

/// A single-pass, incremental conformance checker over `DlAction` traces.
///
/// Feed it a trace one action at a time with [`observe`](Self::observe)
/// (or slice-at-a-time with [`observe_all`](Self::observe_all) /
/// [`scan`](Self::scan)) and query verdicts at any prefix. Verdicts are
/// exactly those of the batch schedule modules
/// [`crate::spec::physical::PlModule`] and
/// [`crate::spec::datalink::DlModule`] on the observed prefix.
///
/// ```
/// use dl_core::action::{Dir, DlAction, Msg};
/// use dl_core::spec::monitor::TraceMonitor;
/// use ioa::schedule_module::{TraceKind, Verdict};
///
/// let mut mon = TraceMonitor::new();
/// for a in [
///     DlAction::Wake(Dir::TR),
///     DlAction::Wake(Dir::RT),
///     DlAction::SendMsg(Msg(1)),
///     DlAction::ReceiveMsg(Msg(1)),
/// ] {
///     mon.observe(&a);
/// }
/// assert_eq!(mon.dl_verdict(true, TraceKind::Complete), Verdict::Satisfied);
/// ```
#[derive(Debug, Clone)]
pub struct TraceMonitor {
    next_index: usize,
    saw_wake: bool,
    saw_fail_or_crash: bool,
    /// Well-formedness status per direction, in `Dir::BOTH` order (TR, RT).
    status: [StatusState; 2],
    /// Physical-layer tables per direction, in the same order. `None` on a
    /// [`data_link_only`](TraceMonitor::data_link_only) monitor, whose
    /// packet actions only advance `next_index`.
    pl: Option<Box<[PlState; 2]>>,
    dl: DlState,
}

impl Default for TraceMonitor {
    fn default() -> Self {
        TraceMonitor::new()
    }
}

fn dir_index(dir: Dir) -> usize {
    match dir {
        Dir::TR => 0,
        Dir::RT => 1,
    }
}

/// Iterator over the pending in-transit packets of one direction, oldest
/// (earliest surviving send) first. See
/// [`TraceMonitor::in_transit_iter`].
pub struct InTransit<'a> {
    pl: &'a PlState,
    slot: u32,
}

impl Iterator for InTransit<'_> {
    type Item = Packet;

    fn next(&mut self) -> Option<Packet> {
        if self.slot == NONE {
            return None;
        }
        let si = self.slot as usize;
        self.slot = self.pl.transit.ord_next[si];
        Some(*self.pl.values.get(StateId(self.pl.transit.slot_val[si])))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // Exact only when fresh; after partial consumption still an
        // upper bound (the list never grows mid-iteration).
        let n = self.pl.transit.live as usize;
        (0, Some(n))
    }
}

impl TraceMonitor {
    /// A monitor that has observed the empty trace.
    #[must_use]
    pub fn new() -> Self {
        TraceMonitor {
            pl: Some(Box::default()),
            ..TraceMonitor::data_link_only()
        }
    }

    /// A monitor that has observed the empty trace and judges only the
    /// data link: packet actions advance the trace index and nothing else.
    ///
    /// Data-link, well-formedness and bookkeeping queries
    /// ([`dl_verdict`](Self::dl_verdict),
    /// [`online_dl_violation`](Self::online_dl_violation), `dl*_violation`,
    /// [`wellformedness_violation`](Self::wellformedness_violation),
    /// [`actions_observed`](Self::actions_observed),
    /// [`approx_bytes`](Self::approx_bytes)) answer exactly as on a
    /// [`new`](Self::new) monitor fed the same trace. The physical-layer
    /// queries panic. It has no packet tables, and building it allocates
    /// nothing.
    #[must_use]
    pub fn data_link_only() -> Self {
        TraceMonitor {
            next_index: 0,
            saw_wake: false,
            saw_fail_or_crash: false,
            status: Default::default(),
            pl: None,
            dl: DlState::default(),
        }
    }

    /// A monitor that has observed all of `trace`, in order.
    #[must_use]
    pub fn scan(trace: &[DlAction]) -> Self {
        let mut mon = TraceMonitor::new();
        mon.observe_all(trace);
        mon
    }

    /// Observes one action. Amortized `O(1)`.
    pub fn observe(&mut self, a: &DlAction) {
        let i = self.next_index;
        self.next_index = i + 1;
        self.ingest(i, a);
    }

    /// Observes a slice of actions, in order — the batched fast path.
    ///
    /// Equivalent to calling [`observe`](Self::observe) per action (the
    /// differential suites pin this), but long slices first take a
    /// counting pre-scan that reserves the value tables and columns up
    /// front, so ingestion never pauses for a mid-stream rehash.
    pub fn observe_all(&mut self, trace: &[DlAction]) {
        if trace.len() >= RESERVE_THRESHOLD {
            self.reserve_for(trace);
        }
        let mut i = self.next_index;
        for a in trace {
            self.ingest(i, a);
            i += 1;
        }
        self.next_index = i;
    }

    /// Sizes tables for a pending batch: each packet/message action can
    /// introduce at most one fresh value, so the per-kind action counts
    /// are a safe (if loose) reservation bound.
    fn reserve_for(&mut self, trace: &[DlAction]) {
        let mut pkts = [0usize; 2];
        let mut msgs = 0usize;
        for a in trace {
            match a {
                DlAction::SendPkt(d, _) | DlAction::ReceivePkt(d, _) => {
                    pkts[dir_index(*d)] += 1;
                }
                DlAction::SendMsg(_) | DlAction::ReceiveMsg(_) => msgs += 1,
                _ => {}
            }
        }
        if let Some(pl) = &mut self.pl {
            for (d, n) in pl.iter_mut().zip(pkts) {
                if n > 0 {
                    d.values.reserve(n);
                    d.vals.reserve(n);
                    d.transit.reserve(n);
                }
            }
        }
        if msgs > 0 {
            self.dl.values.reserve(msgs);
            self.dl.vals.reserve(msgs);
        }
    }

    #[inline]
    fn ingest(&mut self, i: usize, a: &DlAction) {
        match a {
            DlAction::Wake(d) => {
                self.saw_wake = true;
                self.status[dir_index(*d)].wake(i);
                if *d == Dir::TR {
                    self.dl.on_tx_wake();
                }
            }
            DlAction::Fail(d) => {
                self.saw_fail_or_crash = true;
                self.status[dir_index(*d)].fail(i);
                if *d == Dir::TR {
                    self.dl.on_tx_down();
                }
            }
            DlAction::Crash(s) => {
                self.saw_fail_or_crash = true;
                self.status[dir_index(s.sends_on())].crash();
                if s.sends_on() == Dir::TR {
                    self.dl.on_tx_down();
                }
            }
            DlAction::SendPkt(d, p) => {
                if let Some(pl) = &mut self.pl {
                    let k = dir_index(*d);
                    pl[k].send(i, *d, p, self.status[k].up);
                }
            }
            DlAction::ReceivePkt(d, p) => {
                if let Some(pl) = &mut self.pl {
                    pl[dir_index(*d)].receive(i, p);
                }
            }
            DlAction::SendMsg(m) => {
                let tx_up = self.status[0].up;
                self.dl.send(i, *m, tx_up);
            }
            DlAction::ReceiveMsg(m) => self.dl.receive(i, *m),
            DlAction::Internal(..) => {}
        }
    }

    /// How many actions have been observed so far.
    #[must_use]
    pub fn actions_observed(&self) -> usize {
        self.next_index
    }

    /// `true` if any `wake` event was observed (either direction).
    #[must_use]
    pub fn saw_wake(&self) -> bool {
        self.saw_wake
    }

    /// `true` if any `fail` or `crash` event was observed.
    #[must_use]
    pub fn saw_fail_or_crash(&self) -> bool {
        self.saw_fail_or_crash
    }

    /// Approximate resident heap bytes of the monitor state: value
    /// interners, per-value columns, transit arena, and interval lists.
    /// Bounded by distinct observed values plus **peak live** in-transit
    /// packets — independent of trace length (the allocation-ceiling
    /// regression test pins this). A data-link-only monitor has no packet
    /// tables, so only distinct messages count.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        let pl = self
            .pl
            .as_ref()
            .map_or(0, |pl| pl.iter().map(PlState::approx_bytes).sum());
        pl + self.dl.approx_bytes()
    }

    /// The packet tables, for a physical-layer query.
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor, which has
    /// none.
    fn physical(&self, query: &str) -> &[PlState; 2] {
        self.pl.as_deref().unwrap_or_else(|| {
            panic!(
                "TraceMonitor::{query} needs packet state, but this monitor is data-link-only \
                 (built for the `monitor_pl = false` posture)"
            )
        })
    }

    /// First well-formedness violation for `dir`, if any.
    #[must_use]
    pub fn wellformedness_violation(&self, dir: Dir) -> Option<Violation> {
        self.status[dir_index(dir)].violation()
    }

    /// First violation of the given PL property (1–5) for `dir` on the
    /// observed prefix. PL1–PL4 are exact; PL5 is judged under the
    /// duplicate-poisoning semantics documented on the module.
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn pl_violation(&self, dir: Dir, property: u8) -> Option<&Violation> {
        let d = &self.physical("pl_violation")[dir_index(dir)];
        match property {
            1 => d.pl1.as_ref(),
            2 => d.pl2.as_ref(),
            3 => d.pl3.as_ref(),
            4 => d.pl4.as_ref(),
            5 => d.pl5.as_ref(),
            _ => None,
        }
    }

    /// First violation of the given DL property (2–6) on the observed
    /// prefix. DL1/DL7/DL8 are end-of-trace properties; use
    /// [`dl1_violation`](Self::dl1_violation),
    /// [`dl7_violation`](Self::dl7_violation) and
    /// [`dl8_violation`](Self::dl8_violation).
    #[must_use]
    pub fn dl_violation(&self, property: u8) -> Option<&Violation> {
        match property {
            2 => self.dl.dl2.as_ref(),
            3 => self.dl.dl3.as_ref(),
            4 => self.dl.dl4.as_ref(),
            5 => self.dl.dl5.as_ref(),
            6 => self.dl.dl6.as_ref(),
            _ => None,
        }
    }

    /// DL1 as if the trace ended now: an unbounded transmitter working
    /// interval iff an unbounded receiver one (i.e. both media currently up
    /// or both down).
    #[must_use]
    pub fn dl1_violation(&self) -> Option<Violation> {
        match (self.status[0].up, self.status[1].up) {
            (true, false) => Some(Violation {
                property: "DL1",
                at: None,
                reason: "unbounded transmitter working interval without an unbounded receiver one"
                    .into(),
            }),
            (false, true) => Some(Violation {
                property: "DL1",
                at: None,
                reason: "unbounded receiver working interval without an unbounded transmitter one"
                    .into(),
            }),
            _ => None,
        }
    }

    /// DL7 as if the trace ended now: within each transmitter working
    /// interval, no delivered send may follow a lost one. `O(sends)`.
    #[must_use]
    pub fn dl7_violation(&self) -> Option<Violation> {
        let intervals = self
            .dl
            .closed_interval_sends
            .iter()
            .chain(std::iter::once(&self.dl.open_interval_sends));
        for sends in intervals {
            let mut first_lost: Option<(usize, u32)> = None;
            for &(i, id) in sends {
                if self.dl.is_received(id) {
                    if let Some((j, lost_id)) = first_lost {
                        let lost = self.dl.msg(lost_id);
                        let m = self.dl.msg(id);
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
                    first_lost = Some((i, id));
                }
            }
        }
        None
    }

    /// DL8 as if the trace were complete now: every message sent in the
    /// (currently) unbounded transmitter working interval must have been
    /// received. `O(sends in that interval)`.
    #[must_use]
    pub fn dl8_violation(&self) -> Option<Violation> {
        if !self.status[0].up {
            return None;
        }
        for &(i, id) in &self.dl.open_interval_sends {
            if !self.dl.is_received(id) {
                let m = self.dl.msg(id);
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
        None
    }

    /// The packets currently in transit on `dir`: sent but not (yet)
    /// received, under multiset semantics, in send order.
    ///
    /// Allocates a fresh `Vec`; on hot paths prefer
    /// [`in_transit_iter`](Self::in_transit_iter) or
    /// [`in_transit_count`](Self::in_transit_count).
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn in_transit(&self, dir: Dir) -> Vec<Packet> {
        // Checked here too, so the panic names this query.
        let _ = self.physical("in_transit");
        self.in_transit_iter(dir).collect()
    }

    /// Iterates the in-transit packets of `dir` in send order without
    /// allocating.
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn in_transit_iter(&self, dir: Dir) -> InTransit<'_> {
        let pl = &self.physical("in_transit_iter")[dir_index(dir)];
        InTransit {
            pl,
            slot: pl.transit.ord_head,
        }
    }

    /// How many packets are currently in transit on `dir`. `O(1)`.
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn in_transit_count(&self, dir: Dir) -> usize {
        self.physical("in_transit_count")[dir_index(dir)]
            .transit
            .live as usize
    }

    /// The physical-layer module verdict (`PL^{dir}` or `PL-FIFO^{dir}`)
    /// on the observed prefix. Identical to
    /// [`PlModule`](crate::spec::physical::PlModule)'s
    /// [`check`](ioa::schedule_module::ScheduleModule::check).
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn pl_verdict(&self, dir: Dir, fifo: bool) -> Verdict {
        let d = &self.physical("pl_verdict")[dir_index(dir)];
        // Hypotheses: well-formedness, PL1, PL2.
        if let Some(v) = self.status[dir_index(dir)].violation() {
            return Verdict::Vacuous(v);
        }
        if let Some(v) = &d.pl1 {
            return Verdict::Vacuous(v.clone());
        }
        if let Some(v) = &d.pl2 {
            return Verdict::Vacuous(v.clone());
        }
        // Conclusions: PL3, PL4, and PL5 for the FIFO module.
        if let Some(v) = &d.pl3 {
            return Verdict::Violated(v.clone());
        }
        if let Some(v) = &d.pl4 {
            return Verdict::Violated(v.clone());
        }
        if fifo {
            if let Some(v) = &d.pl5 {
                return Verdict::Violated(v.clone());
            }
        }
        Verdict::Satisfied
    }

    /// The data-link module verdict (`DL` when `weak == false`, `WDL` when
    /// `weak == true`) on the observed prefix. Identical to
    /// [`DlModule`](crate::spec::datalink::DlModule)'s
    /// [`check`](ioa::schedule_module::ScheduleModule::check).
    #[must_use]
    pub fn dl_verdict(&self, weak: bool, kind: TraceKind) -> Verdict {
        // Hypotheses: well-formedness (transmitter direction preferred, as
        // in the batch module) and DL1–DL3.
        if let Some(v) = self.status[0]
            .violation()
            .or_else(|| self.status[1].violation())
        {
            return Verdict::Vacuous(v);
        }
        if let Some(v) = self.dl1_violation() {
            return Verdict::Vacuous(v);
        }
        if let Some(v) = &self.dl.dl2 {
            return Verdict::Vacuous(v.clone());
        }
        if let Some(v) = &self.dl.dl3 {
            return Verdict::Vacuous(v.clone());
        }
        // Conclusions.
        if let Some(v) = &self.dl.dl4 {
            return Verdict::Violated(v.clone());
        }
        if let Some(v) = &self.dl.dl5 {
            return Verdict::Violated(v.clone());
        }
        if !weak {
            if let Some(v) = &self.dl.dl6 {
                return Verdict::Violated(v.clone());
            }
            if let Some(v) = self.dl7_violation() {
                return Verdict::Violated(v);
            }
        }
        if kind == TraceKind::Complete {
            if let Some(v) = self.dl8_violation() {
                return Verdict::Violated(v);
            }
        }
        Verdict::Satisfied
    }

    /// The earliest *conclusion-class* violation on the observed prefix —
    /// the online abort signal for the simulator and explorer.
    ///
    /// A violation is reported only while its module's hypotheses still
    /// hold on the prefix (a direction with a well-formedness/PL1/PL2
    /// failure, or a data link with a well-formedness/DL2/DL3 failure, is
    /// unconstrained — its conclusions are suppressed, matching the batch
    /// verdict's vacuity). End-of-trace properties (DL1, DL7, DL8) are
    /// never reported online: they can only be judged once the trace is
    /// complete, and the post-run batch verdict covers them. `O(1)` and
    /// allocation-free — it runs after every simulated action.
    ///
    /// # Panics
    ///
    /// On a [`data_link_only`](Self::data_link_only) monitor.
    #[must_use]
    pub fn online_violation(&self, full_dl: bool, fifo: bool) -> Option<&Violation> {
        let mut best: Option<&Violation> = None;
        for (d, status) in self.physical("online_violation").iter().zip(&self.status) {
            if status.error.is_some() || d.pl1.is_some() || d.pl2.is_some() {
                continue;
            }
            best = earlier(best, d.pl3.as_ref());
            best = earlier(best, d.pl4.as_ref());
            if fifo {
                best = earlier(best, d.pl5.as_ref());
            }
        }
        earlier(best, self.online_dl_violation(full_dl))
    }

    /// The earliest *data-link* conclusion-class violation on the observed
    /// prefix, ignoring the physical-layer modules entirely.
    ///
    /// For monitoring runs over deliberately misbehaving media: a
    /// duplicating channel (e.g. the `dup` knob of `dl-channels`'
    /// `FaultyChannel`) violates PL3 by design, so the combined
    /// [`TraceMonitor::online_violation`] would abort every such run
    /// before the protocol under test gets a chance to misbehave. The
    /// data-link hypotheses (directional well-formedness, DL2, DL3) are
    /// untouched by physical-layer violations, so DL conclusions remain
    /// meaningful on their own. Same gating and `O(1)` cost as the
    /// combined check; end-of-trace properties are likewise never
    /// reported online.
    #[must_use]
    pub fn online_dl_violation(&self, full_dl: bool) -> Option<&Violation> {
        let hypotheses_hold = self.status[0].error.is_none()
            && self.status[1].error.is_none()
            && self.dl.dl2.is_none()
            && self.dl.dl3.is_none();
        if !hypotheses_hold {
            return None;
        }
        let mut best = earlier(self.dl.dl4.as_ref(), self.dl.dl5.as_ref());
        if full_dl {
            best = earlier(best, self.dl.dl6.as_ref());
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::action::Station;

    use DlAction::{Crash, Fail, ReceiveMsg, ReceivePkt, SendMsg, SendPkt, Wake};

    fn pkt(seq: u64, uid: u64) -> Packet {
        Packet::data(seq, Msg(seq)).with_uid(uid)
    }

    #[test]
    fn prefix_verdicts_track_the_trace() {
        let mut mon = TraceMonitor::new();
        mon.observe(&Wake(Dir::TR));
        assert!(matches!(
            mon.dl_verdict(true, TraceKind::Prefix),
            Verdict::Vacuous(_) // DL1: only tx unbounded
        ));
        mon.observe(&Wake(Dir::RT));
        assert_eq!(mon.dl_verdict(true, TraceKind::Prefix), Verdict::Satisfied);
        mon.observe(&SendMsg(Msg(1)));
        // DL8 pending on a complete trace, fine on a prefix.
        assert_eq!(mon.dl_verdict(true, TraceKind::Prefix), Verdict::Satisfied);
        assert!(matches!(
            mon.dl_verdict(true, TraceKind::Complete),
            Verdict::Violated(_)
        ));
        mon.observe(&ReceiveMsg(Msg(1)));
        assert_eq!(
            mon.dl_verdict(true, TraceKind::Complete),
            Verdict::Satisfied
        );
    }

    #[test]
    fn online_violation_fires_on_duplicate_delivery() {
        let mut mon = TraceMonitor::new();
        for a in [
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
        ] {
            mon.observe(&a);
            assert!(mon.online_violation(true, true).is_none());
        }
        mon.observe(&ReceiveMsg(Msg(1)));
        let v = mon.online_violation(false, false).expect("DL4 online");
        assert_eq!(v.property, "DL4");
        assert_eq!(v.at, Some(4));
    }

    #[test]
    fn online_violation_suppressed_when_hypotheses_fail() {
        // Duplicate *send* (DL3, a hypothesis) before the duplicate
        // delivery: the module verdict is vacuous, so no online alarm.
        let mut mon = TraceMonitor::scan(&[
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            SendMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
            ReceiveMsg(Msg(1)),
        ]);
        assert!(mon.online_violation(true, true).is_none());
        assert!(matches!(
            mon.dl_verdict(true, TraceKind::Prefix),
            Verdict::Vacuous(_)
        ));
        // The PL side of the same monitor is unaffected.
        mon.observe(&SendPkt(Dir::TR, pkt(0, 1)));
        mon.observe(&ReceivePkt(Dir::TR, pkt(0, 1)));
        mon.observe(&ReceivePkt(Dir::TR, pkt(0, 1)));
        let v = mon.online_violation(true, true).expect("PL3 online");
        assert_eq!(v.property, "PL3");
    }

    #[test]
    fn online_dl_violation_ignores_physical_faults() {
        // A duplicating medium: the same stamped packet delivered twice is
        // a PL3 violation, but the data link itself is still clean.
        let mut mon = TraceMonitor::scan(&[
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            SendPkt(Dir::TR, pkt(0, 1)),
            ReceivePkt(Dir::TR, pkt(0, 1)),
            ReceivePkt(Dir::TR, pkt(0, 1)),
            ReceiveMsg(Msg(1)),
        ]);
        assert_eq!(
            mon.online_violation(true, true).map(|v| v.property),
            Some("PL3")
        );
        assert!(mon.online_dl_violation(true).is_none());
        // A subsequent duplicate delivery is a DL4 conclusion, visible to
        // the DL-only check (and earliest overall is still PL3).
        mon.observe(&ReceiveMsg(Msg(1)));
        let v = mon.online_dl_violation(false).expect("DL4 online");
        assert_eq!(v.property, "DL4");
        assert_eq!(v.at, Some(7));
        assert_eq!(
            mon.online_violation(true, true).map(|v| v.property),
            Some("PL3")
        );
    }

    #[test]
    fn in_transit_multiset_semantics() {
        // send p, recv p, recv p (unmatched), send p, send p: the unmatched
        // receive cancels the next send; one copy (the last) remains.
        let p = pkt(0, 7);
        let mon = TraceMonitor::scan(&[
            Wake(Dir::TR),
            SendPkt(Dir::TR, p),
            ReceivePkt(Dir::TR, p),
            ReceivePkt(Dir::TR, p),
            SendPkt(Dir::TR, p),
            SendPkt(Dir::TR, p),
        ]);
        assert_eq!(mon.in_transit(Dir::TR), vec![p]);
        assert!(mon.in_transit(Dir::RT).is_empty());
        assert_eq!(mon.in_transit_count(Dir::TR), 1);
        assert_eq!(mon.in_transit_count(Dir::RT), 0);
        assert_eq!(mon.in_transit_iter(Dir::TR).collect::<Vec<_>>(), vec![p]);
    }

    #[test]
    fn crash_affects_the_direction_its_station_sends_on() {
        let mut mon = TraceMonitor::scan(&[Wake(Dir::TR), Wake(Dir::RT), Crash(Station::R)]);
        // rx (RT) is down, tx (TR) still up: DL1 vacuous.
        assert!(mon.dl1_violation().is_some());
        mon.observe(&Wake(Dir::RT));
        assert!(mon.dl1_violation().is_none());
    }

    #[test]
    fn dl7_and_dl8_are_end_of_trace() {
        let mut mon = TraceMonitor::scan(&[
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            SendMsg(Msg(2)),
            ReceiveMsg(Msg(2)),
        ]);
        // m1 lost so far, m2 delivered: DL7 violated "as of now"...
        assert_eq!(mon.dl7_violation().unwrap().at, Some(2));
        // ...but never reported online (a later ReceiveMsg(m1) can cure it).
        assert!(mon.online_violation(true, true).is_none());
        mon.observe(&ReceiveMsg(Msg(1)));
        assert!(mon.dl7_violation().is_none());
        // DL6: m1 (pos 0) after m2 (pos 1) — reordered, caught online under
        // the full spec.
        assert_eq!(
            mon.online_violation(true, false).unwrap().property,
            "DL6 (FIFO)"
        );
        assert!(mon.online_violation(false, false).is_none());
        assert!(mon.dl8_violation().is_none());
        mon.observe(&SendMsg(Msg(3)));
        assert_eq!(mon.dl8_violation().unwrap().at, Some(6));
        mon.observe(&Fail(Dir::TR));
        // Bounded interval now: DL8 no longer applies.
        assert!(mon.dl8_violation().is_none());
    }

    #[test]
    fn fifo_poisoning_keeps_prior_violations() {
        let mut mon = TraceMonitor::new();
        for a in [
            Wake(Dir::TR),
            SendPkt(Dir::TR, pkt(0, 1)),
            SendPkt(Dir::TR, pkt(1, 2)),
            ReceivePkt(Dir::TR, pkt(1, 2)),
            ReceivePkt(Dir::TR, pkt(0, 1)), // PL5 violation at 4
        ] {
            mon.observe(&a);
        }
        assert_eq!(mon.pl_violation(Dir::TR, 5).unwrap().at, Some(4));
        // A later duplicate send poisons PL5 but the recorded violation
        // stands (and PL2 now makes the module verdict vacuous anyway).
        mon.observe(&SendPkt(Dir::TR, pkt(0, 1)));
        assert_eq!(mon.pl_violation(Dir::TR, 5).unwrap().at, Some(4));
        assert!(matches!(mon.pl_verdict(Dir::TR, true), Verdict::Vacuous(_)));
    }

    #[test]
    fn transit_free_list_recycles_cancelled_slots() {
        // A long alternating send/receive stream over one recurring value
        // keeps exactly one live slot: the arena must stop growing after
        // the first round trip instead of growing with total sends.
        let p = pkt(0, 9);
        let mut mon = TraceMonitor::new();
        mon.observe(&Wake(Dir::TR));
        mon.observe(&SendPkt(Dir::TR, p));
        let bytes_after_first = mon.approx_bytes();
        for _ in 0..10_000 {
            mon.observe(&ReceivePkt(Dir::TR, p));
            mon.observe(&SendPkt(Dir::TR, p));
        }
        assert_eq!(mon.in_transit(Dir::TR), vec![p]);
        assert_eq!(
            mon.approx_bytes(),
            bytes_after_first,
            "recycled transit slots must not grow the arena"
        );
    }

    #[test]
    fn in_transit_order_survives_slot_reuse() {
        // Interleave cancellations so recycled slots land mid-stream; the
        // order list must still report pure send order.
        let (a, b, c) = (pkt(0, 1), pkt(1, 2), pkt(2, 3));
        let mut mon = TraceMonitor::new();
        mon.observe(&Wake(Dir::TR));
        mon.observe(&SendPkt(Dir::TR, a));
        mon.observe(&SendPkt(Dir::TR, b));
        mon.observe(&ReceivePkt(Dir::TR, a)); // slot of `a` freed
        mon.observe(&SendPkt(Dir::TR, c)); // reuses it
        assert_eq!(mon.in_transit(Dir::TR), vec![b, c]);
        assert_eq!(mon.in_transit_count(Dir::TR), 2);
        mon.observe(&ReceivePkt(Dir::TR, b));
        assert_eq!(mon.in_transit(Dir::TR), vec![c]);
    }

    #[test]
    fn data_link_only_monitors_carry_no_packet_tables() {
        // The status stays inline; both directions' packet tables sit
        // behind the box a data-link-only monitor leaves empty.
        assert!(std::mem::size_of::<TraceMonitor>() <= 600);
        let mut mon = TraceMonitor::data_link_only();
        mon.observe_all(&[Wake(Dir::TR), SendPkt(Dir::TR, pkt(0, 1))]);
        assert!(mon.pl.is_none());
        assert!(TraceMonitor::new().pl.is_some());
    }

    #[test]
    fn data_link_only_refuses_physical_queries() {
        let mut mon = TraceMonitor::data_link_only();
        mon.observe_all(&[
            Wake(Dir::TR),
            SendPkt(Dir::TR, pkt(0, 1)),
            ReceivePkt(Dir::TR, pkt(0, 1)),
        ]);
        type Query = dyn Fn(&TraceMonitor) -> usize;
        let queries: [(&str, &Query); 6] = [
            ("pl_violation", &|m| {
                usize::from(m.pl_violation(Dir::TR, 3).is_some())
            }),
            ("pl_verdict", &|m| {
                usize::from(m.pl_verdict(Dir::TR, true).is_allowed())
            }),
            ("online_violation", &|m| {
                usize::from(m.online_violation(true, true).is_some())
            }),
            ("in_transit", &|m| m.in_transit(Dir::TR).len()),
            ("in_transit_iter", &|m| m.in_transit_iter(Dir::TR).count()),
            ("in_transit_count", &|m| m.in_transit_count(Dir::TR)),
        ];
        for (name, query) in queries {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| query(&mon)))
                .expect_err(name);
            let msg = payload.downcast_ref::<String>().expect("formatted panic");
            assert!(
                msg.contains(&format!("TraceMonitor::{name} "))
                    && msg.contains("monitor_pl = false"),
                "{name}: {msg}"
            );
        }
    }

    #[test]
    fn chunked_observe_all_equals_per_action_observe() {
        let p = pkt(0, 1);
        let trace = [
            Wake(Dir::TR),
            Wake(Dir::RT),
            SendMsg(Msg(1)),
            SendPkt(Dir::TR, p),
            ReceivePkt(Dir::TR, p),
            ReceiveMsg(Msg(1)),
            SendMsg(Msg(2)),
            Fail(Dir::TR),
        ];
        for split in 0..=trace.len() {
            let mut chunked = TraceMonitor::new();
            chunked.observe_all(&trace[..split]);
            chunked.observe_all(&trace[split..]);
            let mut stepped = TraceMonitor::new();
            for a in &trace {
                stepped.observe(a);
            }
            assert_eq!(chunked.actions_observed(), stepped.actions_observed());
            for weak in [false, true] {
                for kind in [TraceKind::Prefix, TraceKind::Complete] {
                    assert_eq!(
                        chunked.dl_verdict(weak, kind),
                        stepped.dl_verdict(weak, kind)
                    );
                }
            }
            for dir in Dir::BOTH {
                for fifo in [false, true] {
                    assert_eq!(chunked.pl_verdict(dir, fifo), stepped.pl_verdict(dir, fifo));
                }
                assert_eq!(chunked.in_transit(dir), stepped.in_transit(dir));
            }
        }
    }
}
