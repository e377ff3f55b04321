//! Pluggable state-storage backends for the parallel explorer.
//!
//! The engine is generic over *how admitted states are stored*. The
//! [`PlainBackend`] keeps full structs in a [`StateTable`] — zero
//! translation cost, byte-identical to the engine's original behavior.
//! The [`PackedBackend`] stores each state's canonical [`PackedCodec`]
//! encoding in a [`PackedTable`]: the hasher touches a handful of bytes
//! instead of walking a struct, and the arena footprint drops
//! several-fold for queue-heavy zoo states.
//!
//! Both backends expose the same claim-time contract, in batches: a
//! worker expands one frontier state at a time and claims all of its
//! successors together. It loads the frontier state into one reused
//! state with [`load_into`] — a `clone_from` of the arena slot for plain
//! storage, a [`PackedCodec::decode_into`] for packed storage — and steps
//! copies of it in place. As it steps each successor it appends the
//! successor's claim-time [`View`] to the worker's reused [`Views`] batch
//! with [`push_view`], which returns the view's hash: the state itself
//! for plain storage, its encoding written back to back with the batch's
//! other encodings for packed storage. It then probes the frozen store
//! for every view of the batch with the read-only [`lookup_view`], in one
//! loop so that independent probes overlap their cache misses, and
//! claims the misses in the layer's claim filter, all without allocating.
//! Only a claim that wins a filter slot or overflows it copies its entry
//! into an owned [`Repr`] with [`owned_repr`]; the barrier then interns
//! those in deterministic sorted order via [`intern_new`] — so plain and
//! packed runs admit the same states with the same dense ids and differ
//! only in `arena_bytes`. Start states are admitted through the same
//! batch calls. [`absorb`] (a one-entry batch) and [`lookup`] are the
//! owned-representation forms of the same steps, and [`load`] the owned
//! form of [`load_into`], provided for callers that drive a store
//! directly.
//!
//! [`View`]: StateStore::View
//! [`Views`]: StateStore::Views
//! [`push_view`]: StateStore::push_view
//! [`lookup_view`]: StateStore::lookup_view
//! [`Repr`]: StateStore::Repr
//! [`owned_repr`]: StateStore::owned_repr
//! [`intern_new`]: StateStore::intern_new
//! [`absorb`]: StateStore::absorb
//! [`lookup`]: StateStore::lookup
//! [`load`]: StateStore::load
//! [`load_into`]: StateStore::load_into

use std::borrow::{Borrow, Cow};
use std::hash::{BuildHasher, Hash};
use std::marker::PhantomData;

use ioa::intern::{PackedCodec, PackedTable};
use ioa::{StateId, StateTable};

use crate::shard::SharedHasher;

/// Storage for one exploration run: an append-only arena of admitted
/// states plus the claim-time representations workers pass around.
///
/// The store is frozen (shared immutably) while workers expand a layer
/// and grows only at the barrier, on the coordinating thread.
pub trait StateStore<S: Clone>: Sync {
    /// What a claimed-but-not-yet-admitted state is carried as: the
    /// state itself for plain storage, its canonical encoding for packed
    /// storage. Equality on representations must coincide with equality
    /// on states.
    type Repr: Borrow<Self::View> + Eq + Send + Sync;

    /// The borrowed form of a representation that workers hash, look up
    /// and compare before anything is owned. Equality on views must
    /// coincide with equality on states.
    type View: ?Sized + Eq;

    /// A batch of claim-time views that one worker refills for every
    /// frontier state it expands: nothing for plain storage, whose views
    /// are the states themselves, and the encodings back to back in one
    /// buffer for packed storage.
    type Views: Default + Send;

    /// Empties `views` for the next batch, keeping its buffers.
    fn clear_views(&self, views: &mut Self::Views);

    /// Appends `state`'s view to `views` as the batch's next entry and
    /// returns its hash — the one [`lookup_view`](Self::lookup_view) and
    /// [`intern_new`](Self::intern_new) expect. No allocation once
    /// `views` has grown.
    fn push_view(&self, state: &S, views: &mut Self::Views) -> u64;

    /// Entry `i` of the batch, where `states[i]` is the state that was
    /// pushed as that entry.
    fn view<'a>(&self, views: &'a Self::Views, states: &'a [S], i: usize) -> &'a Self::View;

    /// The owned representation of entry `i` of the batch (same
    /// `states` as [`view`](Self::view)): a clone for plain storage, the
    /// boxed encoding for packed storage. Called only for the claims that
    /// must keep the state: filter winners and overflows.
    fn owned_repr(&self, views: &Self::Views, states: &[S], i: usize) -> Self::Repr;

    /// Hashes `state` and converts it to its claim representation: a
    /// one-entry batch's [`push_view`](Self::push_view), then
    /// [`owned_repr`](Self::owned_repr).
    fn absorb(&self, state: S) -> (u64, Self::Repr) {
        let mut views = Self::Views::default();
        let hash = self.push_view(&state, &mut views);
        (
            hash,
            self.owned_repr(&views, std::slice::from_ref(&state), 0),
        )
    }

    /// Dense id of an already-admitted state with this view, if any.
    /// Read-only; safe to call from concurrent workers.
    fn lookup_view(&self, hash: u64, view: &Self::View) -> Option<u32>;

    /// Dense id of an already-admitted state with this representation,
    /// if any. Read-only; safe to call from concurrent workers.
    fn lookup(&self, hash: u64, repr: &Self::Repr) -> Option<u32> {
        self.lookup_view(hash, repr.borrow())
    }

    /// Admits a representation known not to be stored yet, returning its
    /// dense id (ids are assigned in call order, starting at 0).
    fn intern_new(&mut self, hash: u64, repr: Self::Repr) -> u32;

    /// Loads admitted state `idx` — borrowed from the arena for plain
    /// storage, decoded on the fly for packed storage.
    fn load(&self, idx: u32) -> Cow<'_, S>;

    /// Overwrites `state` with admitted state `idx`, reusing the buffers
    /// `state` owns: `clone_from` of the arena slot for plain storage,
    /// [`PackedCodec::decode_into`] for packed storage.
    fn load_into(&self, idx: u32, state: &mut S);

    /// Number of admitted states.
    fn len(&self) -> usize;

    /// True when no state has been admitted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated bytes of the store — its arena, per-state hashes
    /// (plain) or locations (packed), and index — as capacity, not
    /// resident pages. It leaves
    /// out the engine's spanning-tree links and heap data owned by
    /// stored states (plain storage does not traverse them).
    fn approx_bytes(&self) -> usize;
}

/// A factory for [`StateStore`]s — the explorer holds a backend and
/// builds one fresh store per exploration run.
pub trait ExploreBackend<S: Clone>: Clone {
    /// The store this backend builds.
    type Store: StateStore<S>;

    /// A fresh, empty store.
    fn new_store(&self) -> Self::Store;
}

/// The default backend: full structs in a [`StateTable`], hashed by the
/// deterministic [`SharedHasher`]. This is byte-for-byte the storage the
/// engine always used, so reports (including `arena_bytes`) are pinned.
#[derive(Debug, Clone, Copy, Default)]
pub struct PlainBackend;

/// Store built by [`PlainBackend`].
pub struct PlainStore<S> {
    table: StateTable<S, SharedHasher>,
    hasher: SharedHasher,
}

impl<S> ExploreBackend<S> for PlainBackend
where
    S: Clone + Eq + Hash + Send + Sync,
{
    type Store = PlainStore<S>;

    fn new_store(&self) -> PlainStore<S> {
        PlainStore {
            table: StateTable::with_hasher(SharedHasher::default()),
            hasher: SharedHasher::default(),
        }
    }
}

impl<S> StateStore<S> for PlainStore<S>
where
    S: Clone + Eq + Hash + Send + Sync,
{
    type Repr = S;
    type View = S;
    type Views = ();

    fn clear_views(&self, _views: &mut ()) {}

    fn push_view(&self, state: &S, _views: &mut ()) -> u64 {
        self.hasher.hash_one(state)
    }

    fn view<'a>(&self, _views: &'a (), states: &'a [S], i: usize) -> &'a S {
        &states[i]
    }

    fn owned_repr(&self, _views: &(), states: &[S], i: usize) -> S {
        states[i].clone()
    }

    fn lookup_view(&self, hash: u64, view: &S) -> Option<u32> {
        self.table.lookup_prehashed(hash, view).map(|id| id.0)
    }

    fn intern_new(&mut self, hash: u64, repr: S) -> u32 {
        let (id, fresh) = self.table.intern_prehashed(hash, repr);
        debug_assert!(fresh, "intern_new called on an admitted state");
        id.0
    }

    fn load(&self, idx: u32) -> Cow<'_, S> {
        Cow::Borrowed(self.table.get(StateId(idx)))
    }

    fn load_into(&self, idx: u32, state: &mut S) {
        state.clone_from(self.table.get(StateId(idx)));
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

/// Packed-encoding backend: states live as canonical [`PackedCodec`]
/// byte strings in a [`PackedTable`], which never moves a stored
/// encoding or record once admitted.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl PackedBackend {
    /// A packed backend.
    #[must_use]
    pub fn new() -> Self {
        PackedBackend
    }
}

/// A batch of packed views: the encodings back to back in one buffer.
/// Entry 0 starts at byte 0, the last entry ends at the buffer's end, and
/// `starts` holds where each entry after the first starts, so a one-entry
/// batch ([`StateStore::absorb`]) fills only the byte buffer.
#[derive(Debug, Default)]
pub struct PackedViews {
    bytes: Vec<u8>,
    starts: Vec<usize>,
    len: usize,
}

impl PackedViews {
    /// The encoding of entry `i`.
    fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.starts[i - 1] };
        let end = if i + 1 == self.len {
            self.bytes.len()
        } else {
            self.starts[i]
        };
        &self.bytes[start..end]
    }
}

/// Store built by [`PackedBackend`].
pub struct PackedStore<S> {
    table: PackedTable,
    _state: PhantomData<fn() -> S>,
}

impl<S> ExploreBackend<S> for PackedBackend
where
    S: Clone + Eq + PackedCodec,
{
    type Store = PackedStore<S>;

    fn new_store(&self) -> PackedStore<S> {
        PackedStore {
            table: PackedTable::new(),
            _state: PhantomData,
        }
    }
}

impl<S> StateStore<S> for PackedStore<S>
where
    S: Clone + Eq + PackedCodec,
{
    type Repr = Box<[u8]>;
    type View = [u8];
    type Views = PackedViews;

    fn clear_views(&self, views: &mut PackedViews) {
        views.bytes.clear();
        views.starts.clear();
        views.len = 0;
    }

    fn push_view(&self, state: &S, views: &mut PackedViews) -> u64 {
        let start = views.bytes.len();
        if views.len > 0 {
            views.starts.push(start);
        }
        views.len += 1;
        state.encode(&mut views.bytes);
        self.table.hash_bytes(&views.bytes[start..])
    }

    fn view<'a>(&self, views: &'a PackedViews, _states: &'a [S], i: usize) -> &'a [u8] {
        views.get(i)
    }

    fn owned_repr(&self, views: &PackedViews, _states: &[S], i: usize) -> Box<[u8]> {
        views.get(i).into()
    }

    fn lookup_view(&self, hash: u64, view: &[u8]) -> Option<u32> {
        self.table.lookup(hash, view)
    }

    /// Appends without re-probing the index: the caller guarantees the
    /// state is new (debug builds check it).
    fn intern_new(&mut self, hash: u64, repr: Box<[u8]>) -> u32 {
        self.table.append(hash, &repr)
    }

    fn load(&self, idx: u32) -> Cow<'_, S> {
        Cow::Owned(self.table.decode(idx))
    }

    fn load_into(&self, idx: u32, state: &mut S) {
        self.table.decode_into(idx, state);
    }

    fn len(&self) -> usize {
        self.table.len()
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `absorb` and `lookup` must hash and compare exactly as the
    /// claim-time batch path does, and a batch must keep every entry's view
    /// apart, so callers that drive a store directly admit the same states
    /// under the same ids.
    fn absorb_agrees_with_view<St: StateStore<u64>>(mut store: St) {
        let states = [0u64, 1, 300, 1 << 40, u64::MAX];
        let mut views = St::Views::default();
        // A dirty batch is emptied before reuse.
        store.push_view(&7, &mut views);
        store.clear_views(&mut views);
        let hashes: Vec<u64> = states
            .iter()
            .map(|s| store.push_view(s, &mut views))
            .collect();
        for (id, &state) in states.iter().enumerate() {
            let (hash, repr) = store.absorb(state);
            let view = store.view(&views, &states, id);
            assert_eq!(hash, hashes[id]);
            assert!(repr.borrow() == view);
            assert!(store.owned_repr(&views, &states, id) == repr);
            assert_eq!(store.lookup_view(hash, view), None);
            assert_eq!(store.intern_new(hash, repr), id as u32);
        }
        let mut loaded = u64::MAX;
        for (id, &state) in states.iter().enumerate() {
            let (hash, repr) = store.absorb(state);
            assert_eq!(store.lookup(hash, &repr), Some(id as u32));
            let view = store.view(&views, &states, id);
            assert_eq!(store.lookup_view(hashes[id], view), Some(id as u32));
            assert_eq!(*store.load(id as u32), state);
            store.load_into(id as u32, &mut loaded);
            assert_eq!(loaded, state);
        }
        assert_eq!(store.len(), states.len());
    }

    #[test]
    fn absorb_agrees_with_view_on_both_backends() {
        absorb_agrees_with_view(ExploreBackend::<u64>::new_store(&PlainBackend));
        absorb_agrees_with_view(ExploreBackend::<u64>::new_store(&PackedBackend::new()));
    }
}
