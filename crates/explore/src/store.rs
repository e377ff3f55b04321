//! The explorer's state store: every admitted state as its canonical
//! [`PackedCodec`] encoding in a [`PackedTable`].
//!
//! The hasher touches a handful of bytes instead of walking a struct, and
//! the arena takes a fraction of a struct arena's bytes for queue-heavy
//! zoo states. The claim-time contract works in batches: a worker expands
//! one frontier state at a time and claims all of its successors
//! together. It decodes the frontier state into one reused state with
//! [`load_into`] and steps copies of it in place. As it steps each
//! successor it appends the successor's encoding to the worker's reused
//! [`PackedViews`] batch with [`push_view`], which returns the encoding's
//! hash. It then probes the frozen store for every entry of the batch with
//! the read-only [`lookup`], in one loop so that independent probes
//! overlap their cache misses, and claims the misses in the layer's claim
//! filter, all without allocating. Only a claim that wins a filter slot or
//! overflows it boxes its entry ([`PackedViews::get`] into a
//! `Box<[u8]>`); the barrier admits those in deterministic sorted order,
//! so every thread count admits the same states under the same dense ids.
//! Start states are admitted through the same batch calls. [`absorb`] (a
//! one-entry batch), [`intern_new`] and [`load`] are the owned forms of
//! the same steps, for callers that drive a store directly.
//!
//! [`load_into`]: StateStore::load_into
//! [`push_view`]: StateStore::push_view
//! [`lookup`]: StateStore::lookup
//! [`absorb`]: StateStore::absorb
//! [`intern_new`]: StateStore::intern_new
//! [`load`]: StateStore::load

use std::borrow::Cow;
use std::marker::PhantomData;

use ioa::intern::{PackedCodec, PackedIndex, PackedTable};

/// Storage for one exploration run: an append-only arena of admitted
/// states' encodings.
///
/// The store is frozen (shared immutably) while workers expand a layer
/// and grows only at the barrier.
pub trait StateStore<S: Clone>: Sync {
    /// Appends `state`'s encoding to `views` as the batch's next entry and
    /// returns its hash — the one [`lookup`](Self::lookup) and
    /// [`intern_new`](Self::intern_new) expect. No allocation once
    /// `views` has grown.
    fn push_view(&self, state: &S, views: &mut PackedViews) -> u64;

    /// Hashes and encodes `state`: a one-entry batch's
    /// [`push_view`](Self::push_view), boxed.
    fn absorb(&self, state: S) -> (u64, Box<[u8]>);

    /// Dense id of an already-admitted state with this encoding, if any.
    /// Read-only; safe to call from concurrent workers.
    fn lookup(&self, hash: u64, encoded: &[u8]) -> Option<u32>;

    /// Admits an encoding known not to be stored yet, returning its dense
    /// id (ids are assigned in call order, starting at 0).
    fn intern_new(&mut self, hash: u64, encoded: Box<[u8]>) -> u32;

    /// Decodes admitted state `idx`. Always owned; the `Cow` is kept for
    /// callers written against a store that could lend its states.
    fn load(&self, idx: u32) -> Cow<'_, S>;

    /// Overwrites `state` with admitted state `idx`
    /// ([`PackedCodec::decode_into`]), reusing the buffers `state` owns.
    fn load_into(&self, idx: u32, state: &mut S);

    /// Number of admitted states.
    fn len(&self) -> usize;

    /// True when no state has been admitted yet.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Allocated bytes of the store — encoding chunks, per-state records
    /// and index — as capacity, not resident pages. It leaves out the
    /// engine's spanning-tree links.
    fn approx_bytes(&self) -> usize;
}

/// A factory for [`StateStore`]s, kept for callers that build a store
/// directly: [`PackedBackend`] is the only one.
pub trait ExploreBackend<S: Clone>: Clone {
    /// The store this backend builds.
    type Store: StateStore<S>;

    /// A fresh, empty store.
    fn new_store(&self) -> Self::Store;
}

/// The backend that builds [`PackedStore`]s.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

impl PackedBackend {
    /// A packed backend.
    #[must_use]
    pub fn new() -> Self {
        PackedBackend
    }
}

/// A batch of encodings, back to back in one buffer. Entry 0 starts at
/// byte 0, the last entry ends at the buffer's end, and `starts` holds
/// where each entry after the first starts, so a one-entry batch
/// ([`StateStore::absorb`]) fills only the byte buffer.
#[derive(Debug, Default)]
pub struct PackedViews {
    bytes: Vec<u8>,
    starts: Vec<usize>,
    len: usize,
}

impl PackedViews {
    /// Empties the batch, keeping its buffers.
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.starts.clear();
        self.len = 0;
    }

    /// The encoding of entry `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.starts[i - 1] };
        let end = if i + 1 == self.len {
            self.bytes.len()
        } else {
            self.starts[i]
        };
        &self.bytes[start..end]
    }
}

/// The explorer's store: states as packed canonical encodings in a
/// [`PackedTable`], which never moves a stored encoding or record once
/// admitted.
pub struct PackedStore<S> {
    table: PackedTable,
    _state: PhantomData<fn() -> S>,
}

impl<S> Default for PackedStore<S> {
    fn default() -> Self {
        PackedStore {
            table: PackedTable::new(),
            _state: PhantomData,
        }
    }
}

impl<S: Clone + PackedCodec> ExploreBackend<S> for PackedBackend {
    type Store = PackedStore<S>;

    fn new_store(&self) -> PackedStore<S> {
        PackedStore::default()
    }
}

impl<S> PackedStore<S> {
    /// Takes the index out for a batch admitted in two halves (see
    /// [`PackedTable::detach_index`]): the caller places the slots in it
    /// while [`push_encoding`](Self::push_encoding) stores the encodings.
    pub(crate) fn detach_index(&mut self) -> PackedIndex {
        self.table.detach_index()
    }

    /// Puts back the index [`detach_index`](Self::detach_index) took.
    pub(crate) fn attach_index(&mut self, index: PackedIndex) {
        self.table.attach_index(index);
    }

    /// Stores an encoding without its index slot, returning its id.
    pub(crate) fn push_encoding(&mut self, encoded: &[u8]) -> u32 {
        self.table.push_encoding(encoded)
    }
}

impl<S: Clone + PackedCodec> StateStore<S> for PackedStore<S> {
    fn push_view(&self, state: &S, views: &mut PackedViews) -> u64 {
        let start = views.bytes.len();
        if views.len > 0 {
            views.starts.push(start);
        }
        views.len += 1;
        state.encode(&mut views.bytes);
        self.table.hash_bytes(&views.bytes[start..])
    }

    fn absorb(&self, state: S) -> (u64, Box<[u8]>) {
        let mut views = PackedViews::default();
        let hash = self.push_view(&state, &mut views);
        (hash, views.get(0).into())
    }

    fn lookup(&self, hash: u64, encoded: &[u8]) -> Option<u32> {
        self.table.lookup(hash, encoded)
    }

    /// Appends without re-probing the index: the caller guarantees the
    /// state is new (debug builds check it).
    fn intern_new(&mut self, hash: u64, encoded: Box<[u8]>) -> u32 {
        self.table.append(hash, &encoded)
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

    /// `absorb` must hash and encode exactly as the claim-time batch path
    /// does, and a batch must keep every entry apart, so callers that
    /// drive a store directly admit the same states under the same ids.
    #[test]
    fn absorb_agrees_with_the_batch_path() {
        let mut store: PackedStore<u64> = PackedBackend::new().new_store();
        let states = [0u64, 1, 300, 1 << 40, u64::MAX];
        let mut views = PackedViews::default();
        // A dirty batch is emptied before reuse.
        store.push_view(&7, &mut views);
        views.clear();
        let hashes: Vec<u64> = states
            .iter()
            .map(|s| store.push_view(s, &mut views))
            .collect();
        for (id, &state) in states.iter().enumerate() {
            let (hash, encoded) = store.absorb(state);
            assert_eq!(hash, hashes[id]);
            assert_eq!(&encoded[..], views.get(id));
            assert_eq!(store.lookup(hash, views.get(id)), None);
            assert_eq!(store.intern_new(hash, encoded), id as u32);
        }
        let mut loaded = u64::MAX;
        for (id, &state) in states.iter().enumerate() {
            let (hash, encoded) = store.absorb(state);
            assert_eq!(store.lookup(hash, &encoded), Some(id as u32));
            assert_eq!(store.lookup(hashes[id], views.get(id)), Some(id as u32));
            assert_eq!(*store.load(id as u32), state);
            store.load_into(id as u32, &mut loaded);
            assert_eq!(loaded, state);
        }
        assert_eq!(store.len(), states.len());
    }
}
