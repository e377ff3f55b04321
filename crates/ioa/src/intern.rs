//! State interning: dense `u32` ids for explicit-state search.
//!
//! Exhaustive reachability over composed link systems (the E9 sweeps) is
//! dominated by cloning and re-hashing full composite states: a
//! `HashMap<S, _>` visited set stores every state **twice** (once as the
//! map key, once in the exploration arena) and re-hashes it on every
//! probe. [`StateTable`] fixes both costs: states live exactly once in an
//! append-only arena, an open-addressing index maps hashes to arena slots,
//! and everything downstream — frontiers, parent links, cross-shard
//! exchanges — carries copyable [`StateId`]s instead of cloned states.
//!
//! Id stability: ids are assigned in **insertion order** (the arena is
//! append-only, nothing is ever removed), so any interleaving-independent
//! insertion schedule yields interleaving-independent ids. The parallel
//! explorer admits states at layer barriers in a deterministic sorted
//! order, which makes ids — and therefore everything keyed on them —
//! independent of thread count.

use std::collections::hash_map::RandomState;
use std::collections::VecDeque;
use std::hash::{BuildHasher, Hash, Hasher};

/// A fast, **deterministic** build-hasher for small fixed-width keys:
/// the multiply-rotate ("fx") scheme. `RandomState` stays the right
/// default for long-lived interners fed arbitrary input, but per-run
/// tables keyed on tiny `Copy` action values are probed once per
/// observed action — there the SipHash setup cost *is* the hot path.
/// Determinism is a feature for those consumers: identically-fed tables
/// assign identical ids and layouts regardless of process or shard.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FxBuildHasher;

impl BuildHasher for FxBuildHasher {
    type Hasher = FxHasher;

    #[inline]
    fn build_hasher(&self) -> FxHasher {
        FxHasher { hash: 0 }
    }
}

/// Hasher half of [`FxBuildHasher`].
#[derive(Debug, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            // Fold the length in so "ab" and "ab\0" differ.
            self.add(u64::from_le_bytes(tail) ^ (rest.len() as u64) << 56);
        }
    }

    #[inline]
    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    #[inline]
    fn write_u16(&mut self, n: u16) {
        self.add(n.into());
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    #[inline]
    fn write_u128(&mut self, n: u128) {
        self.add(n as u64);
        self.add((n >> 64) as u64);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
}

/// Dense identifier of an interned state: an index into a
/// [`StateTable`]'s arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct StateId(pub u32);

impl StateId {
    /// The arena index this id names.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

const EMPTY: u32 = u32::MAX;

/// An append-only state interner: arena + open-addressing hash index.
///
/// Each distinct state is stored once; [`intern`](StateTable::intern)
/// returns the existing id on a duplicate. Lookups compare candidates
/// against the arena-resident value (the index itself stores only `u32`
/// slots and cached hashes), so the table adds 12 bytes of overhead per
/// state instead of a second full clone.
pub struct StateTable<S, H = RandomState> {
    /// The arena: `states[id]` is the interned state.
    states: Vec<S>,
    /// Cached hash per arena slot, probed before the full `Eq` check.
    hashes: Vec<u64>,
    /// Open-addressing index into the arena; `EMPTY` marks a free slot.
    /// Length is always a power of two.
    table: Vec<u32>,
    hasher: H,
}

impl<S: Hash + Eq> StateTable<S> {
    /// An empty table with a randomly seeded hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::with_hasher(RandomState::new())
    }
}

impl<S: Hash + Eq, H: BuildHasher + Default> Default for StateTable<S, H> {
    fn default() -> Self {
        Self::with_hasher(H::default())
    }
}

impl<S: Clone, H: Clone> Clone for StateTable<S, H> {
    fn clone(&self) -> Self {
        StateTable {
            states: self.states.clone(),
            hashes: self.hashes.clone(),
            table: self.table.clone(),
            hasher: self.hasher.clone(),
        }
    }
}

impl<S: Hash + Eq, H: BuildHasher> StateTable<S, H> {
    /// An empty table using the given hasher (shared hashers let sharded
    /// consumers route states consistently).
    pub fn with_hasher(hasher: H) -> Self {
        StateTable {
            states: Vec::new(),
            hashes: Vec::new(),
            table: Vec::new(),
            hasher,
        }
    }

    /// Number of distinct states interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.states.len()
    }

    /// `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty()
    }

    /// The state an id names. Panics on a foreign id.
    #[must_use]
    pub fn get(&self, id: StateId) -> &S {
        &self.states[id.index()]
    }

    /// Interns a state, returning its id and whether it was new.
    pub fn intern(&mut self, state: S) -> (StateId, bool) {
        let hash = self.hasher.hash_one(&state);
        if let Some(id) = self.find(hash, &state) {
            return (id, false);
        }
        (self.insert_new(hash, state), true)
    }

    /// Reserves room for at least `additional` more distinct states:
    /// arena, hash cache, and index grow once, up front. A batched
    /// ingest hint — without it a large slice of fresh states pays a
    /// rehash storm of doubling re-insertions mid-stream.
    pub fn reserve(&mut self, additional: usize) {
        self.states.reserve(additional);
        self.hashes.reserve(additional);
        let needed = self.states.len() + additional;
        if (needed + 1) * 8 > self.table.len() * 7 {
            let mut cap = self.table.len().max(16);
            while (needed + 1) * 8 > cap * 7 {
                cap *= 2;
            }
            self.grow_to(cap);
        }
    }

    /// Resident bytes of the interner itself: arena slots, cached hashes,
    /// and index slots. Heap data owned *by* the states (queues, buffers)
    /// is not traversed, so this is a lower bound on total footprint.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.states.capacity() * std::mem::size_of::<S>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    fn find(&self, hash: u64, state: &S) -> Option<StateId> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let slot = self.table[i];
            if slot == EMPTY {
                return None;
            }
            let idx = slot as usize;
            if self.hashes[idx] == hash && self.states[idx] == *state {
                return Some(StateId(slot));
            }
            i = (i + 1) & mask;
        }
    }

    fn insert_new(&mut self, hash: u64, state: S) -> StateId {
        let id = entry_id(self.states.len(), "state table id");
        self.states.push(state);
        self.hashes.push(hash);
        // Grow at 7/8 load so probe chains stay short.
        if self.table.is_empty() || (self.states.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        } else {
            self.place(hash, id);
        }
        StateId(id)
    }

    fn place(&mut self, hash: u64, id: u32) {
        Self::place_in(&mut self.table, hash, id);
    }

    fn place_in(table: &mut [u32], hash: u64, id: u32) {
        let mask = table.len() - 1;
        let mut i = (hash as usize) & mask;
        while table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        table[i] = id;
    }

    fn grow(&mut self) {
        self.grow_to((self.table.len() * 2).max(16));
    }

    fn grow_to(&mut self, cap: usize) {
        self.table.clear();
        self.table.resize(cap, EMPTY);
        for (idx, &hash) in self.hashes.iter().enumerate() {
            Self::place_in(&mut self.table, hash, idx as u32);
        }
    }
}

impl<S: std::fmt::Debug, H> std::fmt::Debug for StateTable<S, H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StateTable")
            .field("len", &self.states.len())
            .field("slots", &self.table.len())
            .finish_non_exhaustive()
    }
}

// ---------------------------------------------------------------------------
// Packed state encodings
// ---------------------------------------------------------------------------

/// A compact, canonical byte encoding for explorer states.
///
/// Zoo states are mostly small queues and counters; hashing and storing
/// them as full structs wastes both cycles (padding, pointer-chased
/// `VecDeque` buffers) and arena bytes (`size_of::<S>()` per state
/// regardless of occupancy). A `PackedCodec` implementation flattens a
/// state to a short byte string instead: counters as varints
/// ([`write_varint`]), message sets and queues as runs of consecutive
/// values ([`write_runs`]), and a packet as one header byte plus the
/// varints it announces. The packed arena ([`PackedTable`]) then hashes
/// and dedups those bytes directly.
///
/// Contract: `encode` is **canonical** — equal states produce identical
/// bytes, distinct states produce distinct bytes (the encoding is
/// self-delimiting and injective) — and `decode` is its exact inverse:
/// `decode(encode(s)) == s` consuming exactly the bytes `encode` wrote.
/// Byte equality of encodings is therefore state equality, which is what
/// lets the packed arena skip `Eq` on decoded values entirely.
///
/// `decode` may panic on malformed input: encodings never leave the
/// process, so corruption is a logic error, not an input error.
///
/// [`decode_into`](PackedCodec::decode_into) is `decode` onto an existing
/// value: the explorer decodes every frontier state into one reused
/// state, so a type that owns heap buffers overrides it to refill them in
/// place. Whatever the target held before, the result must equal
/// `decode`'s — an override that forgets to clear a buffer or to
/// overwrite a field leaks the previous state into the next.
pub trait PackedCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstructs a value, consuming its encoding from the front of
    /// `input`.
    fn decode(input: &mut &[u8]) -> Self;
    /// Overwrites `self` with the decoded value, consuming its encoding
    /// from the front of `input` exactly as [`decode`](Self::decode)
    /// does. Same panics as `decode`.
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        *self = Self::decode(input);
    }
}

/// Appends `v` to `out` as a LEB128 varint (7 bits per byte, low first).
#[inline]
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Consumes one LEB128 varint from the front of `input`.
///
/// # Panics
///
/// On truncated input (a logic error; see [`PackedCodec`]).
#[inline]
pub fn read_varint(input: &mut &[u8]) -> u64 {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let (&byte, rest) = input.split_first().expect("truncated varint");
        *input = rest;
        v |= u64::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return v;
        }
        shift += 7;
    }
}

/// Zigzag-folds a signed value so small magnitudes get small varints.
#[inline]
#[must_use]
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
#[must_use]
pub fn unzigzag(u: u64) -> i64 {
    ((u >> 1) as i64) ^ -((u & 1) as i64)
}

/// Appends `vals` as maximal runs of consecutive values, each run as its
/// length and its gap, then a zero length that ends the list.
///
/// A run is a stretch `v, v + 1, …, v + k − 1` (wrapping past
/// `u64::MAX`). Its gap is the zigzag-folded distance from where the
/// previous run would have continued, or from 0 for the first run, so a
/// prefix `{0..k}` takes three bytes whatever its size: the message sets
/// and queues of models that send messages in order are such runs. Any
/// sequence decodes to itself, ascending or not: a repeated, descending
/// or skipped value only starts a new run, with a negative or positive
/// gap.
pub fn write_runs(out: &mut Vec<u8>, vals: impl IntoIterator<Item = u64>) {
    let mut vals = vals.into_iter();
    if let Some(mut start) = vals.next() {
        let mut len = 1u64;
        let mut next = 0u64;
        for v in vals {
            if v == start.wrapping_add(len) {
                len += 1;
            } else {
                write_run(out, &mut next, start, len);
                start = v;
                len = 1;
            }
        }
        write_run(out, &mut next, start, len);
    }
    out.push(0);
}

/// One run of [`write_runs`]; `next` is where the previous run would have
/// continued, and becomes where this one would.
#[inline]
fn write_run(out: &mut Vec<u8>, next: &mut u64, start: u64, len: u64) {
    write_varint(out, len);
    write_varint(out, zigzag(start.wrapping_sub(*next) as i64));
    *next = start.wrapping_add(len);
}

/// Inverse of [`write_runs`]: calls `f` once per decoded value, in order.
///
/// # Panics
///
/// On truncated input (a logic error; see [`PackedCodec`]).
pub fn read_runs(input: &mut &[u8], mut f: impl FnMut(u64)) {
    let mut next = 0u64;
    loop {
        let len = read_varint(input);
        if len == 0 {
            return;
        }
        let start = next.wrapping_add(unzigzag(read_varint(input)) as u64);
        for i in 0..len {
            f(start.wrapping_add(i));
        }
        next = start.wrapping_add(len);
    }
}

macro_rules! varint_codec {
    ($($t:ty),*) => {$(
        impl PackedCodec for $t {
            #[inline]
            fn encode(&self, out: &mut Vec<u8>) {
                write_varint(out, u64::from(*self));
            }
            #[inline]
            fn decode(input: &mut &[u8]) -> Self {
                <$t>::try_from(read_varint(input)).expect("varint out of range")
            }
        }
    )*};
}

varint_codec!(u8, u16, u32, u64);

impl PackedCodec for usize {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        usize::try_from(read_varint(input)).expect("varint out of range")
    }
}

impl PackedCodec for i64 {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, zigzag(*self));
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        unzigzag(read_varint(input))
    }
}

impl PackedCodec for bool {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        u8::decode(input) != 0
    }
}

impl<T: PackedCodec> PackedCodec for Option<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        if bool::decode(input) {
            Some(T::decode(input))
        } else {
            None
        }
    }
}

impl<T: PackedCodec> PackedCodec for Vec<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input) as usize;
        (0..len).map(|_| T::decode(input)).collect()
    }
    /// Refills the buffer in place: no allocation once it has grown.
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        let len = read_varint(input) as usize;
        self.clear();
        self.extend((0..len).map(|_| T::decode(input)));
    }
}

impl<T: PackedCodec> PackedCodec for VecDeque<T> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input) as usize;
        (0..len).map(|_| T::decode(input)).collect()
    }
    /// Refills the ring buffer in place: no allocation once it has grown.
    #[inline]
    fn decode_into(&mut self, input: &mut &[u8]) {
        let len = read_varint(input) as usize;
        self.clear();
        self.extend((0..len).map(|_| T::decode(input)));
    }
}

impl<A: PackedCodec, B: PackedCodec> PackedCodec for (A, B) {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        (A::decode(input), B::decode(input))
    }
}

impl<T: PackedCodec, const N: usize> PackedCodec for [T; N] {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        // `from_fn` fills indices in order, matching the encode order.
        std::array::from_fn(|_| T::decode(input))
    }
}

/// Ordered maps encode as a length followed by `(key, value)` pairs in
/// key order — canonical because iteration order is.
impl<K: PackedCodec + Ord, V: PackedCodec> PackedCodec for std::collections::BTreeMap<K, V> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input);
        (0..len)
            .map(|_| (K::decode(input), V::decode(input)))
            .collect()
    }
}

/// Sorted `u64` sets run-code ([`write_runs`]) like the message sets
/// they usually are.
impl PackedCodec for std::collections::BTreeSet<u64> {
    #[inline]
    fn encode(&self, out: &mut Vec<u8>) {
        write_runs(out, self.iter().copied());
    }
    #[inline]
    fn decode(input: &mut &[u8]) -> Self {
        let mut set = std::collections::BTreeSet::new();
        read_runs(input, |v| {
            set.insert(v);
        });
        set
    }
}

/// Segment 0 of a [`SegVec`] holds `1 << SEG_FIRST_SHIFT` entries.
const SEG_FIRST_SHIFT: u32 = 4;
/// Segments double up to `1 << SEG_MAX_SHIFT` entries, then stay there.
const SEG_MAX_SHIFT: u32 = 16;
/// Entries held by the doubling segments, `0..=SEG_MAX_SHIFT - SEG_FIRST_SHIFT`.
const SEG_GEOMETRIC: usize = (1 << (SEG_MAX_SHIFT + 1)) - (1 << SEG_FIRST_SHIFT);

/// An append-only column that never moves what it holds.
///
/// A `Vec` that grows by doubling copies every entry to a new block and
/// frees the old one; in a long-lived process whose allocator serves
/// such blocks from the heap, each copy leaves a resident hole. A
/// `SegVec` instead appends a segment, allocated once at its final size:
/// segments double from 16 entries up to 65,536 and then stay at that
/// size, so a small column stays small, a large one wastes at most one
/// segment, and an index resolves to its segment and offset by
/// arithmetic. An entry's address is fixed from its `push` on.
pub struct SegVec<T> {
    segs: Vec<Vec<T>>,
    len: usize,
}

impl<T> Default for SegVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SegVec<T> {
    /// An empty column; it allocates nothing until the first `push`.
    #[must_use]
    pub const fn new() -> Self {
        SegVec {
            segs: Vec::new(),
            len: 0,
        }
    }

    /// Number of entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if nothing has been pushed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends `value` at index `len()`. Starts a new segment when the
    /// last one is full; nothing already stored moves.
    pub fn push(&mut self, value: T) {
        let (seg, off) = seg_locate(self.len);
        if off == 0 {
            debug_assert_eq!(seg, self.segs.len());
            self.segs.push(Vec::with_capacity(seg_len(seg)));
        }
        let last = self.segs.last_mut().expect("a segment with room");
        debug_assert!(last.len() < last.capacity(), "a segment never grows");
        last.push(value);
        self.len += 1;
    }

    /// The entry at `index`, if any.
    #[inline]
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&T> {
        // Segments fill in order, so an index past the end lands past the
        // last segment or past the filled part of the last one.
        let (seg, off) = seg_locate(index);
        self.segs.get(seg)?.get(off)
    }

    /// The entries in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.segs.iter().flatten()
    }

    /// Allocated bytes of the segments (capacity, not resident pages).
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.segs.iter().map(Vec::capacity).sum::<usize>() * std::mem::size_of::<T>()
    }
}

impl<T> std::ops::Index<usize> for SegVec<T> {
    type Output = T;

    #[inline]
    fn index(&self, index: usize) -> &T {
        match self.get(index) {
            Some(v) => v,
            None => panic!("index {index} out of bounds for a SegVec of {}", self.len),
        }
    }
}

/// Entries in segment `seg` of a [`SegVec`].
#[inline]
fn seg_len(seg: usize) -> usize {
    let shift = (SEG_FIRST_SHIFT as usize + seg).min(SEG_MAX_SHIFT as usize);
    1 << shift
}

/// The segment and offset of index `index` in a [`SegVec`].
#[inline]
fn seg_locate(index: usize) -> (usize, usize) {
    if index < SEG_GEOMETRIC {
        // Segment k starts at 2^(F+k) - 2^F: shifting by 2^F turns the
        // index into a number whose top bit names the segment.
        let shifted = index + (1 << SEG_FIRST_SHIFT);
        let top = shifted.ilog2();
        ((top - SEG_FIRST_SHIFT) as usize, shifted - (1 << top))
    } else {
        let past = index - SEG_GEOMETRIC;
        let seg = (SEG_MAX_SHIFT - SEG_FIRST_SHIFT + 1) as usize + (past >> SEG_MAX_SHIFT);
        (seg, past & ((1 << SEG_MAX_SHIFT) - 1))
    }
}

/// The first byte chunk of a [`PackedTable`] holds `1 << CHUNK_FIRST_SHIFT` bytes.
const CHUNK_FIRST_SHIFT: u32 = 9;
/// Chunk sizes double up to `1 << CHUNK_MAX_SHIFT` bytes. Few, large
/// chunks matter: on each large request glibc first merges every freed
/// small block it keeps for quick reuse, such as the claim boxes freed
/// at admission, and with 64 KiB chunks a single-threaded BFS that boxes
/// every claim (perfbench's traced run) admitted 3× slower.
const CHUNK_MAX_SHIFT: u32 = 20;

/// Where a [`PackedTable`] keeps one state's encoding, in 8 bytes: a
/// probe reads it only once a slot's tag matches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Record {
    start: u32,
    chunk: u16,
    len: u16,
}

/// One [`PackedTable`] index slot: an id and the 32 bits of its hash that
/// [`tag_of`] takes, so a probe compares tags without leaving the index.
/// `id == EMPTY` marks a free slot.
#[derive(Debug, Clone, Copy)]
struct Slot {
    tag: u32,
    id: u32,
}

/// An unoccupied index slot.
const FREE: Slot = Slot { tag: 0, id: EMPTY };

/// The 32 bits of a byte-string hash that a [`PackedTable`] slot stores
/// and takes its home slot from: the upper half, which the fx multiply
/// mixes best.
#[inline]
fn tag_of(hash: u64) -> u32 {
    (hash >> 32) as u32
}

/// The id of the entry appended at index `len` of an arena, or a panic
/// naming `field`: ids are `u32`, and `u32::MAX` is `EMPTY`, the index's
/// free-slot marker, under which an entry would read as a free slot and
/// its state would be lost.
fn entry_id(len: usize, field: &str) -> u32 {
    match u32::try_from(len) {
        Ok(id) if id != EMPTY => id,
        _ => panic!("{field} {len} does not fit below the empty-slot marker {EMPTY}"),
    }
}

/// `value` converted to a narrower record field, or a panic naming the
/// field: a location or length that does not fit must fail loudly, never
/// wrap into another state's bytes.
fn narrow<T: TryFrom<usize>>(value: usize, field: &str) -> T {
    match T::try_from(value) {
        Ok(v) => v,
        Err(_) => panic!(
            "packed arena: {field} {value} does not fit its {}-byte field",
            std::mem::size_of::<T>()
        ),
    }
}

/// An append-only interner over **packed byte encodings**: the
/// [`PackedCodec`] twin of [`StateTable`].
///
/// Encodings are stored back to back in byte chunks, each allocated
/// once: chunk sizes double from 512 bytes up to 1 MiB, and an encoding
/// that does not fit the rest of the last chunk starts the next one, so
/// no encoding straddles two chunks. Each state's location sits in one
/// 8-byte record in a [`SegVec`]. Each slot of the open-addressing index
/// holds an id and a 32-bit tag cut from its hash, the same bits that
/// pick its home slot: a probe passes occupied slots by comparing tags
/// and reads a record and its bytes only on a tag match, where byte
/// equality decides (canonical encodings make that state equality). Only
/// the index grows by doubling, re-placing its own slots by their tags:
/// nothing admitted is ever moved, and growth reads no record. A state
/// costs `bytes + 8 (record) + 9–18 (index, at 7/8 down to 7/16 load)`:
/// an E15 state (ABP over two capacity-6 lossy channels, with the safety
/// observer) is a 240-byte struct that owns seven heap buffers, but it
/// encodes in 33 bytes on average and costs the table about 55, and the
/// hasher reads those 33 bytes instead of walking the struct.
///
/// An encoding must be at most `u16::MAX` bytes long; a longer one
/// panics on admission.
pub struct PackedTable<H = FxBuildHasher> {
    /// Encodings in id order, spread over chunks that never reallocate.
    chunks: Vec<Vec<u8>>,
    /// Location per state, in id order.
    records: SegVec<Record>,
    /// Open-addressing index of tagged ids.
    index: PackedIndex,
    hasher: H,
}

/// The open-addressing index of a [`PackedTable`]: tagged ids, a power of
/// two long (or empty), at most 7/8 full.
///
/// [`PackedTable::detach_index`] hands it out so that a batch's slots can
/// be placed on one thread while [`PackedTable::push_encoding`] stores the
/// same batch's encodings on another; slots are placed by tag alone and
/// never read a record.
#[derive(Debug, Default)]
pub struct PackedIndex {
    slots: Vec<Slot>,
}

impl PackedIndex {
    /// Grows the index once, if needed, to the capacity that a table of
    /// `len` states needs: the smallest power of two, at least 16, that
    /// keeps `(len + 1) / capacity` at or below 7/8. Placing one slot at a
    /// time and reserving before each placement reaches the same capacity.
    pub fn reserve(&mut self, len: usize) {
        if let Some(larger) = self.grown_for(len) {
            self.move_into(larger);
        }
    }

    /// The empty index that [`reserve`](Self::reserve)`(len)` would grow
    /// this one into, or `None` when this one has room. Split from
    /// [`move_into`](Self::move_into) so that the table is allocated on
    /// the thread that owns the rest of the store: an index allocated on
    /// a helper thread comes from that thread's malloc arena, which a
    /// later search's store cannot reuse.
    #[must_use]
    pub fn grown_for(&self, len: usize) -> Option<PackedIndex> {
        let mut cap = self.slots.len().max(16);
        while (len + 1) * 8 > cap * 7 {
            cap *= 2;
        }
        (cap != self.slots.len()).then(|| PackedIndex {
            slots: vec![FREE; cap],
        })
    }

    /// Re-places every slot of this index in `larger`, an empty index
    /// from [`grown_for`](Self::grown_for), which then replaces it.
    pub fn move_into(&mut self, larger: PackedIndex) {
        debug_assert!(larger.slots.iter().all(|slot| slot.id == EMPTY));
        let old = std::mem::replace(&mut self.slots, larger.slots);
        for slot in old.into_iter().filter(|slot| slot.id != EMPTY) {
            self.place_slot(slot);
        }
    }

    /// Places state `id`, whose encoding hashes to `hash`, in the first
    /// free slot from its tag's home slot on. The caller has
    /// [`reserve`](Self::reserve)d room for it.
    pub fn place(&mut self, hash: u64, id: u32) {
        debug_assert!(id != EMPTY, "the free-slot marker is not an id");
        self.place_slot(Slot {
            tag: tag_of(hash),
            id,
        });
    }

    fn place_slot(&mut self, slot: Slot) {
        let mask = self.slots.len() - 1;
        let mut i = slot.tag as usize & mask;
        while self.slots[i].id != EMPTY {
            i = (i + 1) & mask;
        }
        self.slots[i] = slot;
    }

    /// Allocated bytes of the slots.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Slot>()
    }
}

impl Default for PackedTable {
    fn default() -> Self {
        Self::new()
    }
}

impl PackedTable {
    /// An empty packed arena with the deterministic fx hasher.
    #[must_use]
    pub fn new() -> Self {
        Self::with_hasher(FxBuildHasher)
    }
}

impl<H: BuildHasher> PackedTable<H> {
    /// An empty packed arena using `hasher` for byte-string hashes.
    pub fn with_hasher(hasher: H) -> Self {
        PackedTable {
            chunks: Vec::new(),
            records: SegVec::new(),
            index: PackedIndex::default(),
            hasher,
        }
    }

    /// Number of distinct states interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The hash this table assigns to an encoding (for claim-time
    /// front-ends sharing the hasher).
    #[must_use]
    pub fn hash_bytes(&self, encoded: &[u8]) -> u64 {
        self.hasher.hash_one(encoded)
    }

    /// The id of the state with this canonical encoding, if interned.
    /// `hash` **must** equal [`hash_bytes`](Self::hash_bytes) of
    /// `encoded`.
    #[must_use]
    pub fn lookup(&self, hash: u64, encoded: &[u8]) -> Option<u32> {
        debug_assert_eq!(
            hash,
            self.hasher.hash_one(encoded),
            "prehashed hash mismatch"
        );
        let slots = &self.index.slots;
        if slots.is_empty() {
            return None;
        }
        let tag = tag_of(hash);
        let mask = slots.len() - 1;
        let mut i = tag as usize & mask;
        loop {
            let slot = slots[i];
            if slot.id == EMPTY {
                return None;
            }
            if slot.tag == tag && self.encoding(slot.id) == encoded {
                return Some(slot.id);
            }
            i = (i + 1) & mask;
        }
    }

    /// Interns an encoding, returning its id and whether it was new.
    /// Same `hash` contract as [`lookup`](Self::lookup).
    pub fn intern(&mut self, hash: u64, encoded: &[u8]) -> (u32, bool) {
        if let Some(id) = self.lookup(hash, encoded) {
            return (id, false);
        }
        (self.append(hash, encoded), true)
    }

    /// Appends an encoding the caller knows is not interned yet, returning
    /// its id — [`intern`](Self::intern) without the lookup, for callers
    /// that already deduplicated (the explorer's layer barrier). Same
    /// `hash` contract as [`lookup`](Self::lookup); appending a duplicate
    /// breaks the one-id-per-state invariant (debug builds assert it).
    ///
    /// # Panics
    ///
    /// If `encoded` is longer than `u16::MAX` bytes, or the table would
    /// exceed `u32::MAX - 1` ids (`u32::MAX` marks a free index slot).
    pub fn append(&mut self, hash: u64, encoded: &[u8]) -> u32 {
        debug_assert!(
            self.lookup(hash, encoded).is_none(),
            "append called on an interned encoding"
        );
        let id = self.push_encoding(encoded);
        self.index.reserve(self.records.len());
        self.index.place(hash, id);
        id
    }

    /// Stores an encoding and its record without an index slot, returning
    /// its id: [`append`](Self::append) minus the index, for a caller that
    /// places the slot itself in the [`PackedIndex`] it
    /// [detached](Self::detach_index).
    ///
    /// # Panics
    ///
    /// As [`append`](Self::append).
    pub fn push_encoding(&mut self, encoded: &[u8]) -> u32 {
        let id = entry_id(self.records.len(), "packed arena id");
        let len = narrow(encoded.len(), "encoding length");
        // A full chunk is never grown: the encoding starts the next one.
        let room = self.chunks.last().map_or(0, |c| c.capacity() - c.len());
        if room < encoded.len().max(1) {
            let nominal =
                1 << (CHUNK_FIRST_SHIFT as usize + self.chunks.len()).min(CHUNK_MAX_SHIFT as usize);
            self.chunks
                .push(Vec::with_capacity(encoded.len().max(nominal)));
        }
        let chunk = self.chunks.len() - 1;
        let bytes = &mut self.chunks[chunk];
        let start = narrow(bytes.len(), "encoding offset");
        bytes.extend_from_slice(encoded);
        self.records.push(Record {
            start,
            chunk: narrow(chunk, "chunk index"),
            len,
        });
        id
    }

    /// Takes the index out of the table, leaving an empty one: until
    /// [`attach_index`](Self::attach_index) puts it back, lookups find
    /// nothing and only [`push_encoding`](Self::push_encoding) may add
    /// states.
    pub fn detach_index(&mut self) -> PackedIndex {
        std::mem::take(&mut self.index)
    }

    /// Puts back an index taken by [`detach_index`](Self::detach_index),
    /// which must by now hold a slot for every stored state.
    pub fn attach_index(&mut self, index: PackedIndex) {
        debug_assert!(self.index.slots.is_empty(), "an index is attached");
        self.index = index;
    }

    /// Decodes state `idx`.
    #[must_use]
    pub fn decode<S: PackedCodec>(&self, idx: u32) -> S {
        let mut b = self.encoding(idx);
        let s = S::decode(&mut b);
        debug_assert!(b.is_empty(), "encoding not fully consumed");
        s
    }

    /// Decodes state `idx` onto `state` ([`PackedCodec::decode_into`]),
    /// reusing the buffers it already owns.
    pub fn decode_into<S: PackedCodec>(&self, idx: u32, state: &mut S) {
        let mut b = self.encoding(idx);
        state.decode_into(&mut b);
        debug_assert!(b.is_empty(), "encoding not fully consumed");
    }

    /// Allocated bytes (capacity, not resident pages): byte chunks,
    /// per-state records, and index slots.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.chunks.iter().map(Vec::capacity).sum::<usize>()
            + self.records.approx_bytes()
            + self.index.approx_bytes()
    }

    /// The stored encoding of state `idx`.
    fn encoding(&self, idx: u32) -> &[u8] {
        let rec = &self.records[idx as usize];
        let start = usize::try_from(rec.start).expect("u32 offsets fit usize");
        &self.chunks[usize::from(rec.chunk)][start..start + usize::from(rec.len)]
    }
}

impl<H> std::fmt::Debug for PackedTable<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTable")
            .field("len", &self.records.len())
            .field("chunks", &self.chunks.len())
            .finish_non_exhaustive()
    }
}

/// A sequence of (possibly repeating) states stored as ids over a private
/// interner — the memory shape of a recorded execution.
///
/// The impossibility engines replay long executions and keep *every*
/// per-step component state for the §7 equivalence checks; consecutive
/// steps usually leave a given component untouched, so interning collapses
/// the sequence to its handful of distinct states plus 4 bytes per step.
#[derive(Debug)]
pub struct InternedSeq<S, H = RandomState> {
    table: StateTable<S, H>,
    ids: Vec<StateId>,
}

impl<S: Hash + Eq> InternedSeq<S> {
    /// An empty sequence.
    #[must_use]
    pub fn new() -> Self {
        InternedSeq {
            table: StateTable::new(),
            ids: Vec::new(),
        }
    }
}

impl<S: Hash + Eq> Default for InternedSeq<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: Hash + Eq, H: BuildHasher> InternedSeq<S, H> {
    /// Appends a state to the sequence, interning it.
    pub fn push(&mut self, state: S) {
        let (id, _) = self.table.intern(state);
        self.ids.push(id);
    }

    /// Sequence length (in steps, not distinct states).
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// `true` if the sequence has no entries.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The state at position `k`.
    #[must_use]
    pub fn get(&self, k: usize) -> &S {
        self.table.get(self.ids[k])
    }

    /// The last state, if any.
    #[must_use]
    pub fn last(&self) -> Option<&S> {
        self.ids.last().map(|&id| self.table.get(id))
    }

    /// The id at position `k` — equal ids mean equal states, so §7's
    /// repeated-state scans compare 4-byte ids instead of full states.
    #[must_use]
    pub fn id_at(&self, k: usize) -> StateId {
        self.ids[k]
    }

    /// Appends a stuttering step: the last entry repeats without hashing
    /// or cloning the state. This is the common case when recording one
    /// component of a composed execution — every step of the *other*
    /// components leaves this one untouched.
    ///
    /// # Panics
    ///
    /// If the sequence is empty (there is nothing to repeat).
    pub fn repeat_last(&mut self) {
        let id = *self.ids.last().expect("repeat_last on an empty sequence");
        self.ids.push(id);
    }

    /// Number of distinct states in the sequence.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.table.len()
    }

    /// Approximate resident bytes: the backing [`StateTable`] plus 4
    /// bytes per recorded step. Same lower-bound caveat as
    /// [`StateTable::approx_bytes`].
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.table.approx_bytes() + self.ids.capacity() * std::mem::size_of::<StateId>()
    }
}

impl<S: Hash + Eq, H: BuildHasher> std::ops::Index<usize> for InternedSeq<S, H> {
    type Output = S;
    fn index(&self, k: usize) -> &S {
        self.get(k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_dedups_and_ids_are_dense() {
        let mut t = StateTable::new();
        let (a, fresh_a) = t.intern("alpha".to_string());
        let (b, fresh_b) = t.intern("beta".to_string());
        let (a2, fresh_a2) = t.intern("alpha".to_string());
        assert!(fresh_a && fresh_b && !fresh_a2);
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_eq!((a.0, b.0), (0, 1));
        assert_eq!(t.len(), 2);
        assert_eq!(t.get(a), "alpha");
        assert_eq!(t.get(b), "beta");
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = StateTable::new();
        let ids: Vec<StateId> = (0..10_000u64).map(|n| t.intern(n).0).collect();
        assert_eq!(t.len(), 10_000);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(*t.get(*id), n as u64);
            assert_eq!(t.intern(n as u64), (*id, false));
        }
        assert_eq!(t.len(), 10_000, "a repeat adds nothing");
        // Ids are insertion-dense.
        assert!(ids.iter().enumerate().all(|(i, id)| id.index() == i));
    }

    #[test]
    fn interned_seq_collapses_repeats() {
        let mut seq = InternedSeq::new();
        for k in [0u8, 0, 1, 0, 1, 1, 2] {
            seq.push(k);
        }
        assert_eq!(seq.len(), 7);
        assert_eq!(seq.distinct(), 3);
        assert_eq!(seq[3], 0);
        assert_eq!(seq.last(), Some(&2));
        assert_eq!(seq.id_at(2), seq.id_at(4), "equal states share an id");
        assert_ne!(seq.id_at(0), seq.id_at(6));
    }

    #[test]
    fn approx_bytes_is_nonzero_once_populated() {
        let mut t = StateTable::new();
        t.intern(1u64);
        assert!(t.approx_bytes() >= std::mem::size_of::<u64>());
    }

    #[test]
    fn repeat_last_stutters_without_new_entries() {
        let mut seq = InternedSeq::new();
        seq.push("s0".to_string());
        seq.repeat_last();
        seq.repeat_last();
        seq.push("s1".to_string());
        seq.repeat_last();
        assert_eq!(seq.len(), 5);
        assert_eq!(seq.distinct(), 2);
        assert_eq!(seq.id_at(0), seq.id_at(2));
        assert_eq!(seq.id_at(3), seq.id_at(4));
        assert_eq!(seq[1], "s0");
        assert_eq!(seq.last(), Some(&"s1".to_string()));
        assert!(seq.approx_bytes() >= 5 * std::mem::size_of::<StateId>());
    }

    #[test]
    #[should_panic(expected = "repeat_last on an empty sequence")]
    fn repeat_last_panics_on_empty() {
        InternedSeq::<u8>::new().repeat_last();
    }

    #[test]
    fn fx_hasher_is_deterministic_and_spreads() {
        let h = FxBuildHasher;
        assert_eq!(h.hash_one(42u64), h.hash_one(42u64));
        assert_ne!(h.hash_one(42u64), h.hash_one(43u64));
        // Byte-slice path: length is folded in, so a zero-padded tail
        // does not collide with its extension.
        assert_ne!(h.hash_one([0xabu8, 0xcd]), h.hash_one([0xabu8, 0xcd, 0x00]));
        // Two processes (two builder values) agree — the determinism
        // that makes fx-backed tables shard- and replay-stable.
        assert_eq!(FxBuildHasher.hash_one(7u32), FxBuildHasher.hash_one(7u32));
    }

    #[test]
    fn fx_backed_table_assigns_stable_dense_ids() {
        let mut a: StateTable<u64, FxBuildHasher> = StateTable::default();
        let mut b: StateTable<u64, FxBuildHasher> = StateTable::default();
        for n in 0..1000u64 {
            assert_eq!(a.intern(n * 17), b.intern(n * 17));
        }
        assert_eq!(a.len(), 1000);
        assert!((0..1000u64).all(|n| a.intern(n * 17) == b.intern(n * 17)));
        assert!((0..1000u32).all(|n| a.get(StateId(n)) == b.get(StateId(n))));
    }

    #[test]
    fn cloned_table_is_independent() {
        let mut t: StateTable<u64, FxBuildHasher> = StateTable::default();
        let (id, _) = t.intern(5);
        let mut c = t.clone();
        let (id2, fresh) = c.intern(5);
        assert_eq!(id, id2);
        assert!(!fresh);
        c.intern(6);
        assert_eq!(c.len(), 2);
        assert_eq!(t.len(), 1, "clone growth must not touch the original");
        assert_eq!(t.intern(6), (StateId(1), true));
    }

    #[test]
    fn varint_roundtrips_at_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            16_383,
            16_384,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            let mut r = out.as_slice();
            assert_eq!(read_varint(&mut r), v);
            assert!(r.is_empty());
        }
        // Small values take one byte — the whole point.
        let mut out = Vec::new();
        write_varint(&mut out, 42);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn zigzag_roundtrips_and_keeps_small_magnitudes_small() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
        assert!(zigzag(-1) < 128, "small negatives must stay one byte");
    }

    #[test]
    fn runs_roundtrip_any_sequence() {
        let cases: [&[u64]; 9] = [
            &[],
            &[0, 1, 2, 3],
            &[3, 9, 10, 500, 501],
            &[7],
            &[5, 5, 5],
            &[4, 3, 2, 1, 0],
            &[u64::MAX - 1, u64::MAX, 0, 1],
            &[u64::MAX, 0, u64::MAX],
            &[0, u64::MAX, 1, u64::MAX - 1],
        ];
        for vals in cases {
            let mut out = Vec::new();
            write_runs(&mut out, vals.iter().copied());
            let mut back = Vec::new();
            let mut r = out.as_slice();
            read_runs(&mut r, |v| back.push(v));
            assert!(r.is_empty(), "{vals:?}: the runs are not self-delimiting");
            assert_eq!(back, vals);
        }
    }

    #[test]
    fn runs_code_a_prefix_in_three_bytes() {
        let mut out = Vec::new();
        write_runs(&mut out, std::iter::empty());
        assert_eq!(out, [0], "the empty sequence is its terminator");
        for k in [1u64, 2, 16, 127] {
            let mut out = Vec::new();
            write_runs(&mut out, 0..k);
            assert_eq!(out, [k as u8, 0, 0], "the prefix of {k}");
        }
        // Two runs: {0, 1, 2} and {5, 6}, the second 2 past where the
        // first would have continued.
        let mut out = Vec::new();
        write_runs(&mut out, [0, 1, 2, 5, 6]);
        assert_eq!(out, [3, 0, 2, zigzag(2) as u8, 0]);
    }

    #[test]
    fn composite_codecs_roundtrip() {
        fn rt<T: PackedCodec + PartialEq + std::fmt::Debug>(v: T) {
            let mut out = Vec::new();
            v.encode(&mut out);
            let mut r = out.as_slice();
            assert_eq!(T::decode(&mut r), v);
            assert!(r.is_empty(), "encoding must be self-delimiting");
        }
        rt(Option::<u64>::None);
        rt(Some(7u64));
        rt(vec![1u32, 2, 3]);
        rt(VecDeque::from([true, false, true]));
        rt((5u8, vec![9u64]));
        rt((Some(1u16), VecDeque::<u64>::new()));
        rt(-12i64);
        rt(3usize);
    }

    #[test]
    fn decode_into_overwrites_dirty_targets() {
        fn onto<T: PackedCodec + PartialEq + std::fmt::Debug>(v: T, mut dirty: T) {
            let mut out = Vec::new();
            v.encode(&mut out);
            let mut r = out.as_slice();
            dirty.decode_into(&mut r);
            assert_eq!(dirty, v);
            assert!(r.is_empty(), "decode_into must consume what decode does");
        }
        onto(vec![1u32, 2], vec![7, 8, 9]);
        onto(Vec::<u64>::new(), vec![5]);
        onto(VecDeque::from([true]), VecDeque::from([false, false]));
        onto((Some(3u8), vec![4u64]), (None, vec![1, 2]));
    }

    #[test]
    fn packed_table_dedups_and_decodes() {
        let mut t = PackedTable::new();
        let mut enc = Vec::new();
        vec![1u64, 2, 3].encode(&mut enc);
        let h = t.hash_bytes(&enc);
        let (a, fresh) = t.intern(h, &enc);
        assert!(fresh);
        let (a2, fresh2) = t.intern(h, &enc);
        assert!(!fresh2);
        assert_eq!(a, a2);
        assert_eq!(t.lookup(h, &enc), Some(a));
        assert_eq!(t.decode::<Vec<u64>>(a), vec![1, 2, 3]);
        let mut back = vec![9u64; 5];
        t.decode_into(a, &mut back);
        assert_eq!(back, vec![1, 2, 3]);
        assert_eq!(t.len(), 1);
        assert!(t.approx_bytes() > 0);
    }

    #[test]
    fn packed_table_append_assigns_the_ids_intern_would() {
        let (mut interned, mut appended) = (PackedTable::new(), PackedTable::new());
        let mut enc = Vec::new();
        for n in 0..1_000u64 {
            enc.clear();
            (n, n % 7).encode(&mut enc);
            let h = interned.hash_bytes(&enc);
            assert_eq!(appended.append(h, &enc), interned.intern(h, &enc).0);
            assert_eq!(appended.lookup(h, &enc), Some(n as u32));
        }
        assert_eq!(appended.approx_bytes(), interned.approx_bytes());
        assert_eq!(appended.decode::<(u64, u64)>(999), (999, 999 % 7));
    }

    #[test]
    fn packed_table_survives_growth_with_dense_ids() {
        let mut t = PackedTable::new();
        let mut enc = Vec::new();
        for n in 0..5_000u64 {
            enc.clear();
            (n, n.wrapping_mul(3)).encode(&mut enc);
            let h = t.hash_bytes(&enc);
            let (id, fresh) = t.intern(h, &enc);
            assert!(fresh);
            assert_eq!(id as u64, n, "ids are insertion-dense");
        }
        for n in 0..5_000u64 {
            assert_eq!(t.decode::<(u64, u64)>(n as u32), (n, n.wrapping_mul(3)));
        }
    }

    #[test]
    fn reserve_presizes_without_changing_ids() {
        let mut plain: StateTable<u64, FxBuildHasher> = StateTable::default();
        let mut reserved: StateTable<u64, FxBuildHasher> = StateTable::default();
        reserved.reserve(10_000);
        let bytes_before = reserved.approx_bytes();
        for n in 0..10_000u64 {
            assert_eq!(plain.intern(n).0, reserved.intern(n).0);
        }
        assert_eq!(
            reserved.approx_bytes(),
            bytes_before,
            "a fully reserved table must not reallocate during ingest"
        );
        // Reserving on a non-empty table keeps existing ids valid.
        let mut t: StateTable<u64, FxBuildHasher> = StateTable::default();
        let (early, _) = t.intern(1);
        t.reserve(5000);
        assert_eq!(t.intern(1), (early, false));
        assert_eq!(*t.get(early), 1);
    }

    /// Appends to push into a [`SegVec`] or [`PackedTable`]: past the
    /// doubling segments (131,056 entries) into several full-size ones.
    const MANY: usize = 200_000;

    /// The first index of every [`SegVec`] segment holding `len` entries,
    /// summed from `seg_len` independently of `seg_locate`.
    fn segment_starts(len: usize) -> Vec<usize> {
        let mut starts = vec![0];
        while *starts.last().unwrap() + seg_len(starts.len() - 1) < len {
            starts.push(starts.last().unwrap() + seg_len(starts.len() - 1));
        }
        starts
    }

    #[test]
    fn seg_vec_entries_never_move() {
        let mut col = SegVec::new();
        let mut early = Vec::new();
        for n in 0..MANY as u64 {
            col.push(n * 3);
            if n < 1_000 {
                early.push(std::ptr::from_ref(&col[n as usize]));
            }
            if (n + 1) % 1_000 == 0 {
                for (i, &ptr) in early.iter().enumerate() {
                    assert_eq!(std::ptr::from_ref(&col[i]), ptr, "entry {i} moved");
                    assert_eq!(col[i], i as u64 * 3);
                }
            }
        }
        assert_eq!(col.len(), MANY);
        let reference: Vec<u64> = (0..MANY as u64).map(|n| n * 3).collect();
        assert!(col.iter().eq(reference.iter()));
        assert_eq!(col.get(MANY), None);
    }

    #[test]
    fn seg_vec_fills_segments_in_order_and_locates_their_ends() {
        let mut col = SegVec::new();
        for n in 0..MANY {
            col.push(n);
        }
        let starts = segment_starts(MANY);
        assert!(starts.len() > 14, "only {} segments", starts.len());
        assert_eq!(col.segs.len(), starts.len());
        for (seg, &first) in starts.iter().enumerate() {
            let last = (first + seg_len(seg)).min(MANY) - 1;
            assert_eq!(seg_locate(first), (seg, 0), "first index of segment {seg}");
            assert_eq!(seg_locate(last), (seg, last - first), "last index of {seg}");
            assert_eq!((col[first], col[last]), (first, last));
            // Every segment but the last is full, and none grew.
            let full = seg + 1 < starts.len();
            assert_eq!(col.segs[seg].len() == seg_len(seg), full, "segment {seg}");
            assert_eq!(col.segs[seg].capacity(), seg_len(seg), "segment {seg}");
        }
        let entries: usize = starts.iter().enumerate().map(|(k, _)| seg_len(k)).sum();
        assert_eq!(col.approx_bytes(), entries * std::mem::size_of::<usize>());
    }

    /// Encoding of record `n`: 2 to 194 bytes, so chunks fill unevenly.
    fn varied(n: u64, out: &mut Vec<u8>) {
        out.clear();
        (n, vec![(n % 5) as u8; (n % 191) as usize]).encode(out);
    }

    #[test]
    fn packed_table_never_moves_an_admitted_encoding() {
        let mut t = PackedTable::new();
        let mut enc = Vec::new();
        let mut early = Vec::new();
        for n in 0..MANY as u64 {
            varied(n, &mut enc);
            let id = t.append(t.hash_bytes(&enc), &enc);
            if n < 1_000 {
                let rec = &t.records[id as usize];
                early.push((t.encoding(id).as_ptr(), std::ptr::from_ref(rec), *rec));
            }
            if (n + 1) % 1_000 == 0 {
                for (id, &(bytes, rec_ptr, rec)) in early.iter().enumerate() {
                    let now = &t.records[id];
                    assert_eq!(t.encoding(id as u32).as_ptr(), bytes, "encoding {id} moved");
                    assert_eq!(std::ptr::from_ref(now), rec_ptr, "record {id} moved");
                    assert_eq!(*now, rec, "record {id} changed");
                }
            }
        }
        assert!(t.chunks.len() > 25, "only {} chunks", t.chunks.len());
        for chunk in &t.chunks {
            let nominal_max = 1 << CHUNK_MAX_SHIFT;
            assert!(chunk.capacity() <= nominal_max, "a chunk grew");
        }
    }

    #[test]
    fn packed_table_matches_a_plain_reference_at_every_boundary() {
        let mut t = PackedTable::new();
        let mut reference: Vec<Vec<u8>> = Vec::new();
        let mut enc = Vec::new();
        for n in 0..MANY as u64 {
            varied(n, &mut enc);
            let (id, fresh) = t.intern(t.hash_bytes(&enc), &enc);
            assert!(fresh);
            assert_eq!(id as usize, reference.len(), "ids are insertion-dense");
            reference.push(enc.clone());
        }
        // The first and last id of every record segment and every chunk.
        let mut ends: Vec<usize> = segment_starts(MANY)
            .iter()
            .flat_map(|&first| [first.saturating_sub(1), first])
            .collect();
        let mut prev_chunk = 0;
        for id in 0..MANY {
            let chunk = t.records[id].chunk;
            if chunk != prev_chunk {
                ends.extend([id - 1, id]);
                prev_chunk = chunk;
            }
        }
        ends.push(MANY - 1);
        assert!(ends.len() > 80, "only {} boundary ids", ends.len());
        let mut into = (0u64, vec![9u8; 40]);
        for id in ends {
            let bytes = &reference[id];
            let want = <(u64, Vec<u8>)>::decode(&mut bytes.as_slice());
            let hash = t.hash_bytes(bytes);
            assert_eq!(t.encoding(id as u32), &bytes[..], "id {id}");
            assert_eq!(t.lookup(hash, bytes), Some(id as u32), "id {id}");
            assert_eq!(t.intern(hash, bytes), (id as u32, false), "id {id}");
            assert_eq!(t.decode::<(u64, Vec<u8>)>(id as u32), want, "id {id}");
            t.decode_into(id as u32, &mut into);
            assert_eq!(into, want, "id {id}");
        }
        assert_eq!(t.len(), MANY);
    }

    #[test]
    fn a_detached_index_admits_batches_like_append() {
        // Batches of 1 to 3,000 states: each reserved once, its slots
        // placed in the detached index, its encodings pushed without one.
        let (mut one, mut batched) = (PackedTable::new(), PackedTable::new());
        let mut batch: Vec<(u64, Vec<u8>)> = Vec::new();
        let (mut n, mut size) = (0u64, 1);
        while n < MANY as u64 {
            batch.clear();
            for _ in 0..size {
                let mut enc = Vec::new();
                varied(n, &mut enc);
                batch.push((one.hash_bytes(&enc), enc));
                n += 1;
            }
            let mut index = batched.detach_index();
            if let Some(larger) = index.grown_for(batched.len() + batch.len()) {
                index.move_into(larger);
            }
            for (hash, enc) in &batch {
                let id = batched.push_encoding(enc);
                index.place(*hash, id);
                assert_eq!(one.append(*hash, enc), id);
            }
            batched.attach_index(index);
            assert_eq!(batched.approx_bytes(), one.approx_bytes(), "{n} states");
            size = (size * 3).min(3_000);
        }
        let mut enc = Vec::new();
        for id in (0..n).step_by(97) {
            varied(id, &mut enc);
            let hash = one.hash_bytes(&enc);
            assert_eq!(batched.lookup(hash, &enc), Some(id as u32));
        }
        varied(n, &mut enc);
        assert_eq!(batched.lookup(one.hash_bytes(&enc), &enc), None);
    }

    #[test]
    #[should_panic(expected = "chunk index 65536 does not fit its 2-byte field")]
    fn an_oversized_field_fails_loudly() {
        let _: u16 = narrow(65_536, "chunk index");
    }

    #[test]
    #[should_panic(expected = "encoding length 65536 does not fit its 2-byte field")]
    fn an_encoding_longer_than_its_length_field_is_refused() {
        let mut t = PackedTable::new();
        let long = vec![7u8; 65_536];
        t.append(t.hash_bytes(&long), &long);
    }

    #[test]
    fn the_last_id_below_the_empty_marker_is_accepted() {
        assert_eq!(
            entry_id(u32::MAX as usize - 1, "packed arena id"),
            u32::MAX - 1
        );
    }

    #[test]
    #[should_panic(
        expected = "packed arena id 4294967295 does not fit below the empty-slot marker 4294967295"
    )]
    fn an_id_equal_to_the_empty_marker_is_refused() {
        let _ = entry_id(u32::MAX as usize, "packed arena id");
    }

    /// The [`varied`] encodings below `MANY`, in pairs whose hashes share
    /// the 32 bits a slot stores (and so a home slot).
    fn tag_colliding_encodings() -> Vec<Vec<u8>> {
        let t = PackedTable::new();
        let mut first = std::collections::HashMap::new();
        let mut pairs = Vec::new();
        let mut enc = Vec::new();
        for n in 0..MANY as u64 {
            varied(n, &mut enc);
            let tag = tag_of(t.hash_bytes(&enc));
            if let Some(&m) = first.get(&tag) {
                let mut earlier = Vec::new();
                varied(m, &mut earlier);
                pairs.extend([earlier, enc.clone()]);
            } else {
                first.insert(tag, n);
            }
        }
        pairs
    }

    /// Asserts that every encoding resolves to its own id.
    fn resolves_each(t: &mut PackedTable, encodings: &[Vec<u8>], ids: &[u32], when: &str) {
        for (enc, &id) in encodings.iter().zip(ids) {
            let want = <(u64, Vec<u8>)>::decode(&mut enc.as_slice());
            let hash = t.hash_bytes(enc);
            assert_eq!(t.lookup(hash, enc), Some(id), "lookup of id {id} {when}");
            assert_eq!(t.intern(hash, enc), (id, false), "intern of id {id} {when}");
            assert_eq!(t.decode::<(u64, Vec<u8>)>(id), want, "id {id} {when}");
            let mut into = (u64::MAX, vec![9u8; 3]);
            t.decode_into(id, &mut into);
            assert_eq!(into, want, "id {id} {when}");
        }
    }

    #[test]
    fn tag_collisions_resolve_by_bytes() {
        let encodings = tag_colliding_encodings();
        assert!(
            !encodings.is_empty(),
            "no two of {MANY} encodings share a tag"
        );
        let mut t = PackedTable::new();
        let mut ids = Vec::new();
        for enc in &encodings {
            // The second of a pair probes past the first's matching tag.
            let hash = t.hash_bytes(enc);
            assert_eq!(
                t.lookup(hash, enc),
                None,
                "a tag match is not a state match"
            );
            let (id, fresh) = t.intern(hash, enc);
            assert!(fresh, "encoding {id} deduplicated against another's tag");
            ids.push(id);
        }
        resolves_each(&mut t, &encodings, &ids, "before a grow");
        let slots = t.index.slots.len();
        let mut enc = Vec::new();
        for n in MANY as u64.. {
            if t.index.slots.len() > slots {
                break;
            }
            varied(n, &mut enc);
            t.intern(t.hash_bytes(&enc), &enc);
        }
        resolves_each(&mut t, &encodings, &ids, "after a grow");
    }
}
