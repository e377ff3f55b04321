//! The lock-free, sharded **per-layer claim filter**.
//!
//! Admitted states live in the engine's state store, which is frozen
//! while workers expand a layer — membership for *admitted* states is a
//! plain read-only store lookup, no synchronization at all. What needs
//! concurrent coordination is only the set of states discovered *within
//! the current layer*, and that set is handled here by a fixed-capacity
//! open-addressing filter whose slots are claimed by atomic
//! compare-and-swap instead of per-shard mutexes:
//!
//! * a worker **claims** a state with a *borrowed view* of it (the state
//!   itself, or its encoding in the worker's reused scratch buffer) by
//!   CAS-ing a slot's tag from the empty sentinel to the state's hash;
//! * only the single CAS winner builds an owned payload — the
//!   representation plus the state's property verdict — and publishes it
//!   through a [`OnceLock`], so the duplicates that make up most edges
//!   (85 % on E15) never allocate;
//! * losers that verify payload equality against their view fold their
//!   claim in with a single `fetch_min` on the slot's packed claim key —
//!   the minimal `(parent, action, successor)` triple survives regardless
//!   of arrival order, which is what keeps results
//!   thread-count-independent;
//! * anything the filter cannot prove — an unverifiable race with a
//!   winner mid-publish, a probe chain past its limit, a claim key too
//!   large for the packed 64-bit form — is reported as
//!   [`Claimed::Overflow`]; the caller, which still holds the successor,
//!   builds the pending state itself, and exactness is restored at the
//!   layer barrier, where [`merge_overflow`] folds worker-local overflow
//!   lists into the drained entries.
//!
//! The filter is built fresh per layer and drained at the barrier, so a
//! state dropped by the state budget is naturally rediscoverable in a
//! later layer (the role the old visited-set tombstones played). The
//! segment count honors the explorer's `shards` knob; segments are
//! selected by the hash's upper bits while in-segment probing consumes
//! the lower bits, keeping the two choices independent.

use std::borrow::Borrow;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

/// The hasher shared by the claim filter and the state store.
/// `DefaultHasher` with default keys is deterministic, which keeps
/// segment routing and cached hashes reproducible across runs.
pub(crate) type SharedHasher = BuildHasherDefault<DefaultHasher>;

/// The identity of one discovery of a state: which frontier slot, which
/// of its actions, which nondeterministic successor. Lexicographic order
/// over this triple is the deterministic tie-break that makes parallel
/// results thread-count-independent: concurrent claims of the same state
/// keep the minimal key, and the minimum over a set does not depend on
/// arrival order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClaimKey {
    /// Arena id of the parent (frontier) state.
    pub parent: u32,
    /// Index of the action within the parent's deterministic action list.
    pub action: u32,
    /// Index of the successor within the action's successor list.
    pub succ: u32,
}

/// Bits of the packed key reserved for the successor index.
const SUCC_BITS: u32 = 12;
/// Bits of the packed key reserved for the action index.
const ACTION_BITS: u32 = 20;

impl ClaimKey {
    /// Packs the triple into one `u64` whose numeric order equals the
    /// triple's lexicographic order, so a `fetch_min` on the packed form
    /// is a lock-free "keep the minimal claim". `None` when the action
    /// or successor index exceeds its bit-field — such claims take the
    /// overflow path and are merged exactly at the barrier.
    pub fn pack(self) -> Option<u64> {
        (self.action < (1 << ACTION_BITS) && self.succ < (1 << SUCC_BITS)).then(|| {
            (u64::from(self.parent) << (ACTION_BITS + SUCC_BITS))
                | (u64::from(self.action) << SUCC_BITS)
                | u64::from(self.succ)
        })
    }

    /// Inverse of [`pack`](Self::pack).
    pub fn unpack(packed: u64) -> ClaimKey {
        ClaimKey {
            parent: (packed >> (ACTION_BITS + SUCC_BITS)) as u32,
            action: ((packed >> SUCC_BITS) & ((1 << ACTION_BITS) - 1)) as u32,
            succ: (packed & ((1 << SUCC_BITS) - 1)) as u32,
        }
    }
}

/// A state pending admission: the minimal claim seen so far, the state's
/// hash, its store representation, and its property verdict. Produced by
/// [`LayerFilter::drain`] and by overflowing claims; the engine merges
/// both populations at the layer barrier with [`merge_overflow`].
pub(crate) struct PendingState<R> {
    pub key: ClaimKey,
    pub hash: u64,
    pub repr: R,
    /// Index of the first state property the state violates, if any,
    /// evaluated by the worker that won or overflowed the claim — so the
    /// barrier admits without decoding a single state.
    pub verdict: Option<u32>,
}

/// Outcome of one [`LayerFilter::claim`] call.
pub(crate) enum Claimed<'f, R> {
    /// First discovery of this state in the current layer. The caller
    /// owns the slot and must [`publish`](Won::publish) its payload.
    New(Won<'f, R>),
    /// Verified equal to a state already claimed this layer; the minimal
    /// claim key was folded in.
    Duplicate,
    /// The filter could not decide (probe limit, unverifiable race, an
    /// unpackable claim key, or a filter without segments). The caller
    /// records the claim in a worker-local overflow list; the barrier
    /// merge restores exact dedup semantics.
    Overflow,
}

/// A filter slot whose tag CAS this claim won. The claim was decided on
/// a borrowed view, so only the winner builds an owned payload — and
/// publishes it here, before the barrier drains the filter.
#[must_use = "a won slot must publish its payload before the barrier drains the filter"]
pub(crate) struct Won<'f, R> {
    slot: &'f FilterSlot<R>,
    hash: u64,
}

impl<R> Won<'_, R> {
    /// Publishes the state's owned representation and property verdict.
    pub fn publish(self, repr: R, verdict: Option<u32>) {
        let published = self
            .slot
            .val
            .set(Payload {
                hash: self.hash,
                repr,
                verdict,
            })
            .is_ok();
        debug_assert!(published, "CAS winner is the only publisher");
    }
}

/// How many slots a claim probes before giving up and overflowing.
/// Overflow is correctness-neutral (the barrier dedups exactly), so this
/// only bounds the worst-case work under pathological clustering.
const PROBE_LIMIT: usize = 64;

/// What the CAS winner publishes into its slot.
struct Payload<R> {
    hash: u64,
    repr: R,
    verdict: Option<u32>,
}

/// One filter slot. `tag` is the claim CAS target (0 = empty sentinel;
/// a state hashing to 0 is tagged 1, and the true hash in the payload
/// disambiguates). `key` accumulates the minimal packed claim key via
/// `fetch_min`. `val` is published exactly once, by the CAS winner.
struct FilterSlot<R> {
    tag: AtomicU64,
    key: AtomicU64,
    val: OnceLock<Payload<R>>,
}

impl<R> FilterSlot<R> {
    fn empty() -> Self {
        FilterSlot {
            tag: AtomicU64::new(0),
            key: AtomicU64::new(u64::MAX),
            val: OnceLock::new(),
        }
    }
}

/// The per-layer claim filter: `segments` independent power-of-two slot
/// arrays. See the module docs for the protocol.
pub(crate) struct LayerFilter<R> {
    segments: Vec<Vec<FilterSlot<R>>>,
    /// Mask for the power-of-two segment count (upper hash bits).
    seg_mask: usize,
    /// Mask for the power-of-two per-segment slot count (lower bits).
    slot_mask: usize,
}

impl<R> LayerFilter<R> {
    /// A filter sized for about `expected` distinct discoveries, split
    /// into `segments` segments (both rounded up to powers of two; small
    /// layers collapse to fewer segments so each keeps a useful probe
    /// neighborhood). Claims beyond capacity overflow, they never block;
    /// with `segments == 0` every claim overflows (tests use this to
    /// drive the barrier merge).
    pub fn new(expected: usize, segments: usize) -> Self {
        if segments == 0 {
            return LayerFilter {
                segments: Vec::new(),
                seg_mask: 0,
                slot_mask: 0,
            };
        }
        let total = expected.next_power_of_two().max(16);
        let segs = segments.next_power_of_two().min((total / 16).max(1));
        let per_seg = (total / segs).next_power_of_two();
        LayerFilter {
            segments: (0..segs)
                .map(|_| (0..per_seg).map(|_| FilterSlot::empty()).collect())
                .collect(),
            seg_mask: segs - 1,
            slot_mask: per_seg - 1,
        }
    }

    /// Claims the state whose view is `view` (hashing to `hash`) as
    /// discovered via `key`. Lock-free: the only writes are one CAS on an
    /// empty slot's tag, `fetch_min` folds of the packed claim key, and
    /// the winner's later `OnceLock` publish. Nothing is allocated: rival
    /// claims compare their borrowed view against published payloads.
    pub fn claim<V>(&self, hash: u64, key: ClaimKey, view: &V) -> Claimed<'_, R>
    where
        R: Borrow<V>,
        V: ?Sized + Eq,
    {
        let Some(packed) = key.pack() else {
            return Claimed::Overflow;
        };
        let Some(segment) = self.segments.get((hash >> 32) as usize & self.seg_mask) else {
            return Claimed::Overflow;
        };
        let tag = if hash == 0 { 1 } else { hash };
        let mut i = (hash as usize) & self.slot_mask;
        for _ in 0..PROBE_LIMIT.min(segment.len()) {
            let slot = &segment[i];
            let mut current = slot.tag.load(Ordering::Acquire);
            if current == 0 {
                match slot
                    .tag
                    .compare_exchange(0, tag, Ordering::AcqRel, Ordering::Acquire)
                {
                    Ok(_) => {
                        // We own the slot: fold our key now; the payload
                        // follows through `Won::publish`.
                        slot.key.fetch_min(packed, Ordering::AcqRel);
                        return Claimed::New(Won { slot, hash });
                    }
                    Err(raced) => current = raced,
                }
            }
            if current == tag {
                match slot.val.get() {
                    Some(p) if p.hash == hash && p.repr.borrow() == view => {
                        slot.key.fetch_min(packed, Ordering::AcqRel);
                        return Claimed::Duplicate;
                    }
                    // A different state sharing the tag: keep probing.
                    Some(_) => {}
                    // Winner mid-publish; defer to the barrier merge
                    // rather than spin.
                    None => return Claimed::Overflow,
                }
            }
            i = (i + 1) & self.slot_mask;
        }
        Claimed::Overflow
    }

    /// Drains every claimed slot and frees the filter. Called at the
    /// layer barrier once all workers joined, so every claimed slot has
    /// a published payload and a folded key. Slot order is scheduling
    /// dependent — the engine sorts the merged entries by claim key
    /// before admitting, which is what makes admission deterministic.
    pub fn drain(self) -> Vec<PendingState<R>> {
        let mut out = Vec::new();
        for slot in self.segments.into_iter().flatten() {
            if slot.tag.into_inner() == 0 {
                continue;
            }
            let Payload {
                hash,
                repr,
                verdict,
            } = slot.val.into_inner().expect("claimed slot has a payload");
            out.push(PendingState {
                key: ClaimKey::unpack(slot.key.into_inner()),
                hash,
                repr,
                verdict,
            });
        }
        out
    }
}

/// Folds worker-local overflow claims into the drained filter entries:
/// a claim of a state already pending lowers that entry's key to the
/// minimum and counts as a duplicate; a claim of a new state becomes an
/// entry. Returns the duplicate count. The hash index is only ever
/// *probed* (never iterated), and min/set-union are order-independent,
/// so the merged entry set and keys do not depend on scheduling.
pub(crate) fn merge_overflow<R: Eq>(
    entries: &mut Vec<PendingState<R>>,
    overflow: Vec<PendingState<R>>,
) -> u64 {
    if overflow.is_empty() {
        return 0;
    }
    let mut index: HashMap<u64, Vec<usize>> = HashMap::with_capacity(entries.len());
    for (i, entry) in entries.iter().enumerate() {
        index.entry(entry.hash).or_default().push(i);
    }
    let mut duplicates = 0;
    for pending in overflow {
        let slots = index.entry(pending.hash).or_default();
        if let Some(&i) = slots.iter().find(|&&i| entries[i].repr == pending.repr) {
            duplicates += 1;
            entries[i].key = entries[i].key.min(pending.key);
        } else {
            slots.push(entries.len());
            entries.push(pending);
        }
    }
    duplicates
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(parent: u32, action: u32, succ: u32) -> ClaimKey {
        ClaimKey {
            parent,
            action,
            succ,
        }
    }

    /// What one claim did, with the caller's side of the protocol done
    /// the way an explorer worker does it.
    enum Seen<R> {
        New,
        Duplicate,
        Overflow(PendingState<R>),
    }

    /// Claims `repr` by reference; publishes it on a win and builds the
    /// pending state on overflow.
    fn claim<R: Eq>(filter: &LayerFilter<R>, hash: u64, k: ClaimKey, repr: R) -> Seen<R> {
        match filter.claim(hash, k, &repr) {
            Claimed::New(won) => {
                won.publish(repr, None);
                Seen::New
            }
            Claimed::Duplicate => Seen::Duplicate,
            Claimed::Overflow => Seen::Overflow(PendingState {
                key: k,
                hash,
                repr,
                verdict: None,
            }),
        }
    }

    #[test]
    fn pack_order_matches_lexicographic_order() {
        let keys = [
            key(0, 0, 0),
            key(0, 0, 1),
            key(0, 1, 0),
            key(1, 0, 0),
            key(1, 2, 3),
            key(u32::MAX, (1 << 20) - 1, (1 << 12) - 1),
        ];
        for a in &keys {
            for b in &keys {
                let (pa, pb) = (a.pack().unwrap(), b.pack().unwrap());
                assert_eq!(pa.cmp(&pb), a.cmp(b), "{a:?} vs {b:?}");
                assert_eq!(ClaimKey::unpack(pa), *a);
            }
        }
        assert!(key(0, 1 << 20, 0).pack().is_none());
        assert!(key(0, 0, 1 << 12).pack().is_none());
    }

    #[test]
    fn minimal_claim_wins_regardless_of_order() {
        let keys = [key(2, 0, 0), key(0, 1, 0), key(0, 0, 1)];
        for order in [[0usize, 1, 2], [2, 1, 0]] {
            let filter: LayerFilter<u32> = LayerFilter::new(16, 4);
            let mut news = 0;
            for i in order {
                if matches!(claim(&filter, 7, keys[i], 99), Seen::New) {
                    news += 1;
                }
            }
            assert_eq!(news, 1);
            let drained = filter.drain();
            assert_eq!(drained.len(), 1);
            assert_eq!(drained[0].key, key(0, 0, 1));
            assert_eq!(drained[0].hash, 7);
            assert_eq!(drained[0].repr, 99);
        }
    }

    #[test]
    fn distinct_states_with_equal_hashes_coexist() {
        let filter: LayerFilter<u32> = LayerFilter::new(16, 1);
        assert!(matches!(claim(&filter, 5, key(0, 0, 0), 10), Seen::New));
        assert!(matches!(claim(&filter, 5, key(0, 0, 1), 20), Seen::New));
        assert!(matches!(
            claim(&filter, 5, key(9, 0, 0), 10),
            Seen::Duplicate
        ));
        assert!(matches!(
            claim(&filter, 5, key(9, 0, 0), 20),
            Seen::Duplicate
        ));
        let mut drained = filter.drain();
        drained.sort_unstable_by_key(|p| p.key);
        assert_eq!(drained.len(), 2);
        assert_eq!((drained[0].repr, drained[1].repr), (10, 20));
    }

    #[test]
    fn zero_hash_is_remapped_but_disambiguated() {
        let filter: LayerFilter<u32> = LayerFilter::new(16, 1);
        assert!(matches!(claim(&filter, 0, key(0, 0, 0), 1), Seen::New));
        // Hash 1 shares the tag with remapped hash 0; the stored true
        // hash keeps them distinct states.
        assert!(matches!(claim(&filter, 1, key(0, 0, 1), 1), Seen::New));
        assert!(matches!(
            claim(&filter, 0, key(5, 0, 0), 1),
            Seen::Duplicate
        ));
        let drained = filter.drain();
        assert_eq!(drained.len(), 2);
    }

    #[test]
    fn claims_compare_borrowed_views_against_owned_payloads() {
        // The packed backend's shape: boxed encodings in the slots, a
        // borrowed byte slice (the worker's scratch buffer) per claim.
        let filter: LayerFilter<Box<[u8]>> = LayerFilter::new(16, 1);
        let scratch = vec![1u8, 2, 3];
        match filter.claim(9, key(1, 0, 0), scratch.as_slice()) {
            Claimed::New(won) => won.publish(scratch.as_slice().into(), Some(2)),
            _ => panic!("first claim must win"),
        }
        assert!(matches!(
            filter.claim(9, key(0, 0, 0), &[1u8, 2, 3][..]),
            Claimed::Duplicate
        ));
        // A different encoding under the same hash is a different state.
        match filter.claim(9, key(0, 0, 1), &[1u8, 2][..]) {
            Claimed::New(won) => won.publish(Box::new([1u8, 2]), None),
            _ => panic!("a distinct view must not deduplicate"),
        }
        let mut drained = filter.drain();
        drained.sort_unstable_by_key(|p| p.key);
        assert_eq!(drained.len(), 2);
        assert_eq!(
            (&drained[0].repr[..], drained[0].key),
            (&[1u8, 2, 3][..], key(0, 0, 0))
        );
        assert_eq!(drained[0].verdict, Some(2), "the winner's verdict survives");
        assert_eq!(
            (&drained[1].repr[..], drained[1].verdict),
            (&[1u8, 2][..], None)
        );
    }

    #[test]
    fn unpackable_keys_overflow() {
        let filter: LayerFilter<String> = LayerFilter::new(16, 1);
        let big = key(0, 1 << 20, 0);
        assert!(matches!(filter.claim(3, big, "payload"), Claimed::Overflow));
        assert!(filter.drain().is_empty());
    }

    #[test]
    fn a_filter_without_segments_overflows_every_claim() {
        let filter: LayerFilter<u64> = LayerFilter::new(1024, 0);
        for s in 0..100u64 {
            assert!(matches!(
                claim(
                    &filter,
                    s.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    key(0, 0, 0),
                    s
                ),
                Seen::Overflow(_)
            ));
        }
        assert!(filter.drain().is_empty());
    }

    #[test]
    fn capacity_exhaustion_overflows_instead_of_blocking() {
        let filter: LayerFilter<u64> = LayerFilter::new(1, 1); // 16 slots
        let (mut news, mut overflows) = (0, 0);
        for s in 0..100u64 {
            // Spread hashes so probing is realistic.
            match claim(
                &filter,
                s.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                key(s as u32, 0, 0),
                s,
            ) {
                Seen::New => news += 1,
                Seen::Overflow(_) => overflows += 1,
                Seen::Duplicate => panic!("all states distinct"),
            }
        }
        assert_eq!(news + overflows, 100);
        assert!(news <= 16);
        assert!(overflows >= 84);
        assert_eq!(filter.drain().len(), news);
    }

    #[test]
    fn merge_keeps_minimal_keys_and_counts_duplicates() {
        let entry = |k: ClaimKey, hash: u64, repr: u32| PendingState {
            key: k,
            hash,
            repr,
            verdict: None,
        };
        let mut entries = vec![entry(key(3, 0, 0), 1, 10), entry(key(4, 0, 0), 1, 11)];
        let overflow = vec![
            entry(key(1, 0, 0), 1, 11), // same state as an entry: lowers its key
            entry(key(9, 0, 0), 1, 12), // same hash, new state
            entry(key(8, 0, 0), 1, 12), // duplicate of the previous overflow
        ];
        assert_eq!(merge_overflow(&mut entries, overflow), 2);
        let keys: Vec<_> = entries.iter().map(|e| (e.repr, e.key)).collect();
        assert_eq!(
            keys,
            [(10, key(3, 0, 0)), (11, key(1, 0, 0)), (12, key(8, 0, 0))]
        );
        assert_eq!(merge_overflow(&mut entries, Vec::new()), 0);
    }

    #[test]
    fn concurrent_claims_merge_to_minimal_keys() {
        let filter: LayerFilter<u64> = LayerFilter::new(1024, 8);
        // Worker-local overflow lists, merged below exactly the way the
        // engine's layer barrier merges them.
        let overflow = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|scope| {
            for t in 0..4u32 {
                let (filter, overflow) = (&filter, &overflow);
                scope.spawn(move || {
                    let mut local = Vec::new();
                    for s in 0..256u64 {
                        let hash = s.wrapping_mul(0x9E37_79B9_7F4A_7C15);
                        if let Seen::Overflow(p) = claim(filter, hash, key(s as u32, t, 0), s) {
                            local.push(p);
                        }
                    }
                    overflow.lock().unwrap().append(&mut local);
                });
            }
        });
        let mut merged = filter.drain();
        merge_overflow(&mut merged, overflow.into_inner().unwrap());
        // After the merge every state survives exactly once, with the
        // overall minimal claim (action index 0 beats 1..4).
        merged.sort_unstable_by_key(|p| p.repr);
        assert_eq!(merged.len(), 256);
        assert!(merged.iter().enumerate().all(|(s, p)| p.repr == s as u64));
        assert!(merged.iter().all(|p| p.key.action == 0));
    }
}
