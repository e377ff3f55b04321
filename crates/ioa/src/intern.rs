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

    /// The interned states in id order.
    #[must_use]
    pub fn states(&self) -> &[S] {
        &self.states
    }

    /// The id of `state` if it is already interned.
    #[must_use]
    pub fn lookup(&self, state: &S) -> Option<StateId> {
        if self.table.is_empty() {
            return None;
        }
        self.find(self.hasher.hash_one(state), state)
    }

    /// Interns a state, returning its id and whether it was new.
    pub fn intern(&mut self, state: S) -> (StateId, bool) {
        let hash = self.hasher.hash_one(&state);
        if let Some(id) = self.find(hash, &state) {
            return (id, false);
        }
        (self.insert_new(hash, state), true)
    }

    /// Interns a state whose hash under this table's hasher the caller
    /// already knows (a sharded front-end sharing the hasher computed it
    /// at claim time). `hash` **must** equal `hasher.hash_one(&state)`;
    /// a wrong hash silently corrupts the index.
    pub fn intern_prehashed(&mut self, hash: u64, state: S) -> (StateId, bool) {
        debug_assert_eq!(
            hash,
            self.hasher.hash_one(&state),
            "prehashed hash mismatch"
        );
        if let Some(id) = self.find(hash, &state) {
            return (id, false);
        }
        (self.insert_new(hash, state), true)
    }

    /// The id of `state` when its hash under this table's hasher is
    /// already known (a front-end sharing the hasher computed it at claim
    /// time). `hash` **must** equal `hasher.hash_one(state)`.
    #[must_use]
    pub fn lookup_prehashed(&self, hash: u64, state: &S) -> Option<StateId> {
        debug_assert_eq!(hash, self.hasher.hash_one(state), "prehashed hash mismatch");
        self.find(hash, state)
    }

    /// Interns by reference, cloning only on a miss.
    pub fn intern_ref(&mut self, state: &S) -> (StateId, bool)
    where
        S: Clone,
    {
        let hash = self.hasher.hash_one(state);
        if let Some(id) = self.find(hash, state) {
            return (id, false);
        }
        (self.insert_new(hash, state.clone()), true)
    }

    /// Absorbs another table (a per-shard arena, at a merge barrier) into
    /// this one, returning the remap `other id index -> id in self`.
    /// States already present keep their existing ids — merging is
    /// idempotent and never perturbs ids handed out earlier.
    pub fn absorb<H2: BuildHasher>(&mut self, other: StateTable<S, H2>) -> Vec<StateId> {
        other.states.into_iter().map(|s| self.intern(s).0).collect()
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
        let id = u32::try_from(self.states.len()).expect("state arena overflowed u32 ids");
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
/// state to a short varint/delta byte string instead; the packed arena
/// ([`PackedTable`]) then hashes and dedups those bytes directly.
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
pub trait PackedCodec: Sized {
    /// Appends the canonical encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Reconstructs a value, consuming its encoding from the front of
    /// `input`.
    fn decode(input: &mut &[u8]) -> Self;
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

/// Delta-encodes an ascending `u64` sequence: count, first value, then
/// successive differences — the shape of sorted id sets
/// (`BTreeSet<Msg>` contents, say), where deltas are tiny varints.
///
/// # Panics
///
/// Debug-asserts that the sequence is ascending.
pub fn write_delta_seq(out: &mut Vec<u8>, len: usize, vals: impl Iterator<Item = u64>) {
    write_varint(out, len as u64);
    let mut prev = 0u64;
    let mut first = true;
    for v in vals {
        if first {
            write_varint(out, v);
            first = false;
        } else {
            debug_assert!(v >= prev, "delta sequence must be ascending");
            write_varint(out, v - prev);
        }
        prev = v;
    }
}

/// Inverse of [`write_delta_seq`]: calls `f` once per decoded value, in
/// order.
pub fn read_delta_seq(input: &mut &[u8], mut f: impl FnMut(u64)) {
    let len = read_varint(input);
    let mut prev = 0u64;
    for i in 0..len {
        let v = if i == 0 {
            read_varint(input)
        } else {
            prev + read_varint(input)
        };
        f(v);
        prev = v;
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
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        if bool::decode(input) {
            Some(T::decode(input))
        } else {
            None
        }
    }
}

impl<T: PackedCodec> PackedCodec for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input) as usize;
        (0..len).map(|_| T::decode(input)).collect()
    }
}

impl<T: PackedCodec> PackedCodec for VecDeque<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input) as usize;
        (0..len).map(|_| T::decode(input)).collect()
    }
}

impl<A: PackedCodec, B: PackedCodec> PackedCodec for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(input: &mut &[u8]) -> Self {
        (A::decode(input), B::decode(input))
    }
}

impl<T: PackedCodec, const N: usize> PackedCodec for [T; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        for v in self {
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        // `from_fn` fills indices in order, matching the encode order.
        std::array::from_fn(|_| T::decode(input))
    }
}

/// Ordered maps encode as a length followed by `(key, value)` pairs in
/// key order — canonical because iteration order is.
impl<K: PackedCodec + Ord, V: PackedCodec> PackedCodec for std::collections::BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(input: &mut &[u8]) -> Self {
        let len = read_varint(input);
        (0..len)
            .map(|_| (K::decode(input), V::decode(input)))
            .collect()
    }
}

/// Sorted `u64` sets delta-encode like the message sets they usually are.
impl PackedCodec for std::collections::BTreeSet<u64> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_delta_seq(out, self.len(), self.iter().copied());
    }
    fn decode(input: &mut &[u8]) -> Self {
        let mut set = std::collections::BTreeSet::new();
        read_delta_seq(input, |v| {
            set.insert(v);
        });
        set
    }
}

/// An append-only interner over **packed byte encodings**: the
/// [`PackedCodec`] twin of [`StateTable`].
///
/// States are stored as concatenated encodings in one contiguous byte
/// arena plus an end-offset per state; the open-addressing index maps
/// byte-string hashes to ids and dedups by byte equality (canonical
/// encodings make that state equality). Per-state overhead is
/// `bytes + 8 (end) + 8 (hash) + ~4.6 (index)` — for zoo states whose
/// structs run 50–150 bytes plus queue allocations, the packed arena is
/// several times smaller and the hasher touches a handful of bytes
/// instead of walking a struct.
pub struct PackedTable<H = FxBuildHasher> {
    /// Every state's encoding, concatenated in id order.
    bytes: Vec<u8>,
    /// End offset of each state's encoding in `bytes`.
    ends: Vec<u64>,
    /// Cached byte-string hash per state.
    hashes: Vec<u64>,
    /// Open-addressing index; `EMPTY` marks a free slot.
    table: Vec<u32>,
    hasher: H,
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
            bytes: Vec::new(),
            ends: Vec::new(),
            hashes: Vec::new(),
            table: Vec::new(),
            hasher,
        }
    }

    /// Number of distinct states interned.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// `true` if nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
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
            if self.hashes[idx] == hash && self.encoding(slot) == encoded {
                return Some(slot);
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
    pub fn append(&mut self, hash: u64, encoded: &[u8]) -> u32 {
        debug_assert!(
            self.lookup(hash, encoded).is_none(),
            "append called on an interned encoding"
        );
        let id = u32::try_from(self.ends.len()).expect("packed arena overflowed u32 ids");
        self.bytes.extend_from_slice(encoded);
        self.ends.push(self.bytes.len() as u64);
        self.hashes.push(hash);
        if self.table.is_empty() || (self.ends.len() + 1) * 8 > self.table.len() * 7 {
            self.grow();
        } else {
            Self::place_in(&mut self.table, hash, id);
        }
        id
    }

    /// Decodes state `idx`.
    #[must_use]
    pub fn decode<S: PackedCodec>(&self, idx: u32) -> S {
        let mut b = self.encoding(idx);
        let s = S::decode(&mut b);
        debug_assert!(b.is_empty(), "encoding not fully consumed");
        s
    }

    /// Resident bytes: byte arena, offsets, cached hashes, and index
    /// slots.
    #[must_use]
    pub fn approx_bytes(&self) -> usize {
        self.bytes.capacity()
            + self.ends.capacity() * std::mem::size_of::<u64>()
            + self.hashes.capacity() * std::mem::size_of::<u64>()
            + self.table.capacity() * std::mem::size_of::<u32>()
    }

    /// The stored encoding of state `idx`.
    fn encoding(&self, idx: u32) -> &[u8] {
        let i = idx as usize;
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start as usize..self.ends[i] as usize]
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
        let cap = (self.table.len() * 2).max(16);
        self.table.clear();
        self.table.resize(cap, EMPTY);
        for (idx, &hash) in self.hashes.iter().enumerate() {
            Self::place_in(&mut self.table, hash, idx as u32);
        }
    }
}

impl<H> std::fmt::Debug for PackedTable<H> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedTable")
            .field("len", &self.ends.len())
            .field("bytes", &self.bytes.len())
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
    fn lookup_without_insertion() {
        let mut t = StateTable::new();
        assert_eq!(t.lookup(&7u64), None);
        let (id, _) = t.intern(7u64);
        assert_eq!(t.lookup(&7u64), Some(id));
        assert_eq!(t.lookup(&8u64), None);
    }

    #[test]
    fn intern_ref_clones_only_on_miss() {
        let mut t = StateTable::new();
        let s = vec![1u8, 2, 3];
        let (id, fresh) = t.intern_ref(&s);
        assert!(fresh);
        let (id2, fresh2) = t.intern_ref(&s);
        assert!(!fresh2);
        assert_eq!(id, id2);
    }

    #[test]
    fn survives_growth_past_initial_capacity() {
        let mut t = StateTable::new();
        let ids: Vec<StateId> = (0..10_000u64).map(|n| t.intern(n).0).collect();
        assert_eq!(t.len(), 10_000);
        for (n, id) in ids.iter().enumerate() {
            assert_eq!(*t.get(*id), n as u64);
            assert_eq!(t.lookup(&(n as u64)), Some(*id));
        }
        // Ids are insertion-dense.
        assert!(ids.iter().enumerate().all(|(i, id)| id.index() == i));
    }

    #[test]
    fn absorb_remaps_and_preserves_existing_ids() {
        let mut base = StateTable::new();
        let (a, _) = base.intern("a".to_string());
        let (b, _) = base.intern("b".to_string());

        let mut shard = StateTable::new();
        shard.intern("b".to_string());
        shard.intern("c".to_string());

        let remap = base.absorb(shard);
        assert_eq!(remap[0], b, "duplicate keeps the pre-existing id");
        assert_eq!(remap[1].index(), 2, "fresh state appended");
        assert_eq!(base.get(a), "a");
        assert_eq!(base.len(), 3);
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
        assert!((0..1000u64).all(|n| a.lookup(&(n * 17)) == b.lookup(&(n * 17))));
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
        assert_eq!(t.lookup(&6), None);
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
    fn delta_seq_roundtrips_sorted_sets() {
        let vals = [3u64, 9, 10, 500, 501];
        let mut out = Vec::new();
        write_delta_seq(&mut out, vals.len(), vals.iter().copied());
        let mut back = Vec::new();
        let mut r = out.as_slice();
        read_delta_seq(&mut r, |v| back.push(v));
        assert!(r.is_empty());
        assert_eq!(back, vals);
        // Empty sequence is fine too.
        let mut out = Vec::new();
        write_delta_seq(&mut out, 0, std::iter::empty());
        let mut r = out.as_slice();
        read_delta_seq(&mut r, |_| panic!("no values expected"));
        assert!(r.is_empty());
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
        assert_eq!(t.lookup(&1), Some(early));
    }
}
