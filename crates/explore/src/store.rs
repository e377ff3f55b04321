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
//! Both backends expose the same claim-time contract. A worker turns each
//! successor into a hash and a borrowed [`View`] with [`view`] — the
//! state itself for plain storage, its encoding in the worker's reused
//! [`Scratch`] buffer for packed storage — and dedups the view against
//! admitted states with the read-only [`lookup_view`] and against the
//! layer's claim filter, all without allocating. Only a claim that wins a
//! filter slot or overflows it turns the successor into an owned
//! [`Repr`] with [`owned_repr`]; the barrier then interns those in
//! deterministic sorted order via [`intern_new`] — so plain and packed
//! runs admit the same states with the same dense ids and differ only in
//! `arena_bytes`. [`absorb`] and [`lookup`] are the owned-representation
//! forms of the same steps, provided on top of them for callers that
//! drive a store directly.
//!
//! [`View`]: StateStore::View
//! [`view`]: StateStore::view
//! [`Scratch`]: StateStore::Scratch
//! [`lookup_view`]: StateStore::lookup_view
//! [`Repr`]: StateStore::Repr
//! [`owned_repr`]: StateStore::owned_repr
//! [`intern_new`]: StateStore::intern_new
//! [`absorb`]: StateStore::absorb
//! [`lookup`]: StateStore::lookup

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

    /// Per-worker scratch space that [`view`](Self::view) reuses across
    /// edges: nothing for plain storage, one encoding buffer for packed
    /// storage.
    type Scratch: Default;

    /// Hashes `state` and returns its claim-time view, borrowed from
    /// `state` or written into `scratch` — no allocation once `scratch`
    /// has grown. The returned hash is the one
    /// [`lookup_view`](Self::lookup_view) and
    /// [`intern_new`](Self::intern_new) expect.
    fn view<'a>(&self, state: &'a S, scratch: &'a mut Self::Scratch) -> (u64, &'a Self::View);

    /// The owned representation of `state`, whose view the preceding
    /// [`view`](Self::view) call on the same `scratch` produced. Called
    /// only for the claims that must keep the state: filter winners and
    /// overflows.
    fn owned_repr(&self, state: S, scratch: &Self::Scratch) -> Self::Repr;

    /// Hashes `state` and converts it to its claim representation: a
    /// [`view`](Self::view) into fresh scratch, then
    /// [`owned_repr`](Self::owned_repr).
    fn absorb(&self, state: S) -> (u64, Self::Repr) {
        let mut scratch = Self::Scratch::default();
        let hash = self.view(&state, &mut scratch).0;
        (hash, self.owned_repr(state, &scratch))
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

    /// Number of admitted states.
    fn len(&self) -> usize;

    /// True when no state has been admitted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Resident footprint of the arena in bytes.
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
    type Scratch = ();

    fn view<'a>(&self, state: &'a S, _scratch: &'a mut ()) -> (u64, &'a S) {
        (self.hasher.hash_one(state), state)
    }

    fn owned_repr(&self, state: S, _scratch: &()) -> S {
        state
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

    fn len(&self) -> usize {
        self.table.len()
    }

    fn approx_bytes(&self) -> usize {
        self.table.approx_bytes()
    }
}

/// Packed-encoding backend: states live as canonical [`PackedCodec`]
/// byte strings in a [`PackedTable`].
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl PackedBackend {
    /// A packed backend.
    #[must_use]
    pub fn new() -> Self {
        PackedBackend
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
    type Scratch = Vec<u8>;

    fn view<'a>(&self, state: &'a S, scratch: &'a mut Vec<u8>) -> (u64, &'a [u8]) {
        scratch.clear();
        state.encode(scratch);
        (self.table.hash_bytes(scratch), scratch)
    }

    fn owned_repr(&self, _state: S, scratch: &Vec<u8>) -> Box<[u8]> {
        scratch.as_slice().into()
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
    /// claim-time `view` / `lookup_view` path does, so callers that drive
    /// a store directly admit the same states under the same ids.
    fn absorb_agrees_with_view<St: StateStore<u64>>(mut store: St) {
        let states = [0u64, 1, 300, 1 << 40, u64::MAX];
        let mut scratch = St::Scratch::default();
        for (id, &state) in states.iter().enumerate() {
            let (hash, repr) = store.absorb(state);
            let (view_hash, view) = store.view(&state, &mut scratch);
            assert_eq!(hash, view_hash);
            assert!(repr.borrow() == view);
            assert_eq!(store.lookup_view(view_hash, view), None);
            assert_eq!(store.intern_new(hash, repr), id as u32);
        }
        for (id, &state) in states.iter().enumerate() {
            let (hash, repr) = store.absorb(state);
            assert_eq!(store.lookup(hash, &repr), Some(id as u32));
            assert_eq!(*store.load(id as u32), state);
        }
        assert_eq!(store.len(), states.len());
    }

    #[test]
    fn absorb_agrees_with_view_on_both_backends() {
        absorb_agrees_with_view(ExploreBackend::<u64>::new_store(&PlainBackend));
        absorb_agrees_with_view(ExploreBackend::<u64>::new_store(&PackedBackend::new()));
    }
}
