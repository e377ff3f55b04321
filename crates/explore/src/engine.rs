//! The layer-synchronous parallel BFS engine.
//!
//! States are admitted once into the [`PackedStore`] arena; everything
//! else — the spanning-tree links, the frontier itself (a contiguous id
//! range per layer) — carries dense `u32` ids. The store is frozen while
//! workers expand a layer: membership for admitted states is a read-only
//! store lookup, and intra-layer discoveries are coordinated through the
//! lock-free [`LayerFilter`]. Workers build successors in place and claim
//! them in batches: each loads a frontier state once into a reused state,
//! and for every action and every pick copies it onto a reused successor
//! state (`clone_from`), steps that copy ([`Automaton::step_in_place`])
//! and appends its encoding to the worker's reused view batch. The worker
//! then probes the store for the whole batch in one loop, so independent
//! probes overlap their cache misses, and claims the misses in the
//! filter. The duplicates that make up most edges never allocate: only a
//! claim that wins a filter slot or overflows boxes its encoding, and
//! that same worker evaluates the state properties on the successor it
//! already holds. Each worker's buffers live for the whole search, on
//! cache lines of their own.
//!
//! The workers are the coordinating thread and a [`Pool`] of
//! `threads − 1` helpers, spawned by the first layer wide enough to fan
//! out and parked between layers; thin layers stay on the coordinator.
//! The store grows only at the layer barrier, which drains the filter,
//! merges the worker-local overflow claims, sorts by minimal claim key and
//! admits in that deterministic order — reading each state's verdict off
//! its claim, so the barrier decodes nothing but the one state it reports
//! as a counterexample. After the sort, entry `k` of a layer gets id
//! `admitted_start + k`, so a wide layer's barrier is split without
//! moving an id: a helper drains and sorts half of the filter while the
//! coordinator does the other half, and the sorted runs are merged; then
//! the helper grows the store's index once and places the layer's
//! `(tag, id)` slots while the coordinator appends the encodings and
//! records, steps the spanning-tree columns and builds the next layer's
//! filter.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dl_obs::{Spans, Stopwatch};
use ioa::intern::{PackedCodec, PackedIndex, SegVec};
use ioa::Automaton;

use crate::pool::Pool;
use crate::property::{Invariant, Property, TraceProperty};
use crate::report::{ExploreReport, LayerStats, Truncation, Violation};
use crate::shard::{merge_overflow, ClaimKey, Claimed, LayerFilter, PendingState};
use crate::store::{PackedStore, PackedViews, StateStore};

/// Root marker in the spanning-tree link arrays.
const NO_LINK: u32 = u32::MAX;

/// The largest state budget the engine honors: admitted ids, claim-key
/// parents and spanning-tree links are `u32`, so a search stops with
/// [`Truncation::StateBudget`] at `u32::MAX` states instead of
/// overflowing the id space.
const MAX_STATE_BUDGET: usize = u32::MAX as usize;

/// A layer fans out to the pool only when its frontier holds at least
/// this many states per thread; a thinner one costs less on the
/// coordinator alone than the wake-up and the chunk hand-off.
const FAN_OUT_PER_THREAD: usize = 4;

/// A barrier is split with a pool helper only for a claim filter of at
/// least this many slots (the drain and sort) or a layer of at least
/// this many new states (the admission); smaller ones cost less than the
/// hand-off.
const SPLIT_MIN: usize = 1 << 12;

/// A claimed state pending admission, its encoding boxed.
type Pending = PendingState<Box<[u8]>>;

/// The worker buffers for automaton `M`.
type WorkerOf<M> = Worker<<M as Automaton>::State, <M as Automaton>::Action>;

/// One worker's reused buffers, kept for the whole search. The
/// alignment puts each worker's buffer headers, which it writes on every
/// edge, on cache lines of their own, so workers on other cores do not
/// steal each other's lines.
#[repr(align(128))]
struct Worker<S, A> {
    /// The frontier state being expanded.
    cur: S,
    /// Its successors, one per (action, pick), stepped in place; entries
    /// past the current batch are kept for reuse.
    succs: Vec<S>,
    /// `cur`'s deterministic action list.
    actions: Vec<A>,
    /// The successors' encodings, in `succs` order.
    views: PackedViews,
    /// The successors' hashes, in `succs` order.
    hashes: Vec<u64>,
    /// The successors' claim keys, in `succs` order.
    keys: Vec<ClaimKey>,
    /// Batch indices of the successors the store does not hold.
    fresh: Vec<usize>,
}

impl<S, A> Worker<S, A> {
    fn new(cur: S) -> Self {
        Worker {
            cur,
            succs: Vec::new(),
            actions: Vec::new(),
            views: PackedViews::default(),
            hashes: Vec::new(),
            keys: Vec::new(),
            fresh: Vec::new(),
        }
    }
}

/// What a layer's workers share: the frontier `[.., end)` handed out in
/// `chunk`-sized pieces from `next`, and the claim filter.
struct LayerWork {
    next: AtomicUsize,
    end: usize,
    chunk: usize,
    filter: LayerFilter<Box<[u8]>>,
}

/// A job for a pool helper.
enum Job<S> {
    /// Expand frontier chunks of the layer until none is left.
    Expand(Arc<PackedStore<S>>, Arc<LayerWork>),
    /// Drain this part of the layer's claim filter into the vector and
    /// sort it by claim key.
    Drain(LayerFilter<Box<[u8]>>, Vec<Pending>),
    /// Move the index into `larger`, if given, and place each hash's
    /// slot, ids counting up from `first`.
    Place {
        index: PackedIndex,
        larger: Option<PackedIndex>,
        hashes: Vec<u64>,
        first: u32,
    },
}

/// What a finished [`Job`] hands back, buffers included for reuse.
enum Done {
    Expanded(WorkerStats, Vec<Pending>),
    Drained(Vec<Pending>),
    Placed(PackedIndex, Vec<u64>),
}

/// The barrier's buffers, kept for the whole search.
#[derive(Default)]
struct Barrier {
    /// The layer's claims, sorted by claim key for admission.
    entries: Vec<Pending>,
    /// Helper 0's half of a split drain.
    drained: Vec<Pending>,
    /// The hashes whose index slots helper 0 places.
    placed: Vec<u64>,
}

impl Barrier {
    /// Drains `filter` and merges `overflow` into `entries`, sorted by
    /// claim key, and returns the overflow claims that were duplicates.
    /// With `split`, helper 0 drains and sorts half of the filter while
    /// the calling thread does the other half. The helper's buffer is
    /// reserved here for half as many claims as its half has slots (a
    /// filter is sized to twice the expected claims): grown on the
    /// helper, it would come from that thread's malloc arena.
    fn drain_sorted<S>(
        &mut self,
        pool: &Pool<Job<S>, Done>,
        mut filter: LayerFilter<Box<[u8]>>,
        overflow: Vec<Pending>,
        split: bool,
    ) -> u64 {
        if split {
            let half = filter.split_off();
            self.drained.reserve(half.capacity() / 2);
            pool.post(0, Job::Drain(half, std::mem::take(&mut self.drained)));
        }
        filter.drain_into(&mut self.entries);
        if split {
            self.entries.sort_unstable_by_key(|entry| entry.key);
            pool.join(|done| {
                if let Done::Drained(mut run) = done {
                    self.entries.append(&mut run);
                    self.drained = run;
                }
            });
        }
        let duplicates = merge_overflow(&mut self.entries, overflow);
        // Claim keys are unique (one entry per distinct state, and
        // distinct states that share a parent differ in action or
        // successor index), so this order is total and deterministic. The
        // stable sort merges a split drain's two sorted runs in one pass.
        if split {
            self.entries.sort_by_key(|entry| entry.key);
        } else {
            self.entries.sort_unstable_by_key(|entry| entry.key);
        }
        duplicates
    }

    /// Hands the store's index and the entries' hashes to helper 0, which
    /// grows the index once and places the slots of ids `first..` while
    /// the caller stores the encodings with `push_encoding`. The grown
    /// table is allocated here, on the thread that owns the store.
    fn start_placing<S>(
        &mut self,
        pool: &Pool<Job<S>, Done>,
        store: &mut PackedStore<S>,
        first: u32,
    ) where
        S: Clone + PackedCodec,
    {
        debug_assert!(
            self.entries
                .iter()
                .all(|e| store.lookup(e.hash, &e.repr).is_none()),
            "a claim admitted twice"
        );
        self.placed.clear();
        self.placed
            .extend(self.entries.iter().map(|entry| entry.hash));
        let index = store.detach_index();
        let larger = index.grown_for(first as usize + self.placed.len());
        pool.post(
            0,
            Job::Place {
                index,
                larger,
                hashes: std::mem::take(&mut self.placed),
                first,
            },
        );
    }

    /// Waits for helper 0's slots and puts the index back in the store.
    fn finish_placing<S>(&mut self, pool: &Pool<Job<S>, Done>, store: &mut PackedStore<S>) {
        pool.join(|done| {
            if let Done::Placed(index, hashes) = done {
                store.attach_index(index);
                self.placed = hashes;
            }
        });
    }

    /// Releases buffer capacity beyond twice what a layer of `size` new
    /// states needs: layers widen and then narrow, and the widest layer's
    /// buffers, kept to the end of the search, would add to its peak
    /// memory.
    fn fit(&mut self, size: usize) {
        fn fit<T>(buffer: &mut Vec<T>, keep: usize) {
            if buffer.capacity() > 2 * keep {
                buffer.shrink_to(keep);
            }
        }
        let keep = size.max(SPLIT_MIN);
        fit(&mut self.entries, keep);
        fit(&mut self.drained, keep);
        fit(&mut self.placed, keep);
    }
}

#[derive(Default, Clone, Copy)]
struct WorkerStats {
    quiescent: usize,
    edges: u64,
    duplicates: u64,
}

impl WorkerStats {
    fn merge(self, other: WorkerStats) -> WorkerStats {
        WorkerStats {
            quiescent: self.quiescent + other.quiescent,
            edges: self.edges + other.edges,
            duplicates: self.duplicates + other.duplicates,
        }
    }
}

/// Parallel breadth-first explorer over an automaton's reachable states.
///
/// Built from an automaton, a permitted-inputs closure, and state and
/// depth budgets, with a [`threads`](ParallelExplorer::threads) control
/// and multi-property search via
/// [`check_properties_from`](ParallelExplorer::check_properties_from).
/// States are stored as their [`PackedCodec`] encodings, so the state type
/// needs a codec.
pub struct ParallelExplorer<M, I> {
    automaton: M,
    /// Environment inputs permitted in a given state.
    inputs: I,
    max_states: usize,
    max_depth: usize,
    threads: usize,
    shards: usize,
}

impl<M, I> ParallelExplorer<M, I> {
    /// Creates an explorer. `inputs(state)` returns the environment input
    /// actions to consider from `state` (return an empty vector for a
    /// closed system). Thread count defaults to the machine's available
    /// parallelism. State ids are `u32`, so `max_states` is clamped to
    /// `u32::MAX`.
    pub fn new(automaton: M, inputs: I, max_states: usize, max_depth: usize) -> Self {
        ParallelExplorer {
            automaton,
            inputs,
            max_states: max_states.min(MAX_STATE_BUDGET),
            max_depth,
            threads: 0,
            shards: 64,
        }
    }

    /// Sets the worker thread count; `0` means available parallelism.
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Sets the claim-filter segment count (rounded up to a power of
    /// two); tests shrink it, and `0` — a filter without segments —
    /// sends every claim down the overflow path.
    #[cfg(test)]
    fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// The state budget after clamping to the `u32` id space.
    #[cfg(test)]
    fn max_states(&self) -> usize {
        self.max_states
    }

    /// Returns the explorer unchanged: every search stores packed
    /// encodings. Kept for callers written when a struct arena was the
    /// default.
    #[must_use]
    pub fn packed(self) -> Self {
        self
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }

    /// The claim filter for a layer of `frontier` states, sized to twice
    /// the expected discoveries: the frontier times the last layer's
    /// growth. Undersizing is safe (claims overflow, the barrier merge
    /// stays exact); oversizing costs set-up and drain.
    fn layer_filter(&self, frontier: usize, last: Option<&LayerStats>) -> LayerFilter<Box<[u8]>> {
        let expected = last.map_or(frontier, |last| {
            frontier.saturating_mul(last.discovered) / last.frontier
        });
        LayerFilter::new(expected.saturating_mul(2), self.shards)
    }
}

impl<M, I> ParallelExplorer<M, I>
where
    M: Automaton + Sync,
    M::State: PackedCodec + Send + Sync,
    M::Action: Send + Sync,
    I: Fn(&M::State) -> Vec<M::Action> + Sync,
{
    /// Explores breadth-first from the automaton's start states, checking
    /// `invariant` on every admitted state (start states included).
    pub fn check_invariant(
        &self,
        invariant: impl Fn(&M::State) -> bool + Sync,
    ) -> ExploreReport<M::Action, M::State> {
        self.check_invariant_from(self.automaton.start_states(), invariant)
    }

    /// Like [`check_invariant`](Self::check_invariant) but explores from
    /// the given states — useful when a fixed environment prefix (e.g.
    /// waking the media) should be applied before exploration begins.
    pub fn check_invariant_from(
        &self,
        starts: Vec<M::State>,
        invariant: impl Fn(&M::State) -> bool + Sync,
    ) -> ExploreReport<M::Action, M::State> {
        let invariant = Invariant::new("invariant", invariant);
        self.check_properties_from(starts, &[&invariant])
    }

    /// Counts reachable states (no properties), for sizing studies.
    pub fn reachable_states(&self) -> ExploreReport<M::Action, M::State> {
        self.check_properties_from(self.automaton.start_states(), &[])
    }

    /// Explores breadth-first from `starts`, checking every property on
    /// every admitted state. Stops at the end of the first layer
    /// containing a violation and reports the violating state with the
    /// minimal claim — both independent of the thread count.
    pub fn check_properties_from(
        &self,
        starts: Vec<M::State>,
        properties: &[&dyn Property<M::State>],
    ) -> ExploreReport<M::Action, M::State> {
        self.check_traced_from(starts, properties, &())
    }

    /// Like [`check_properties_from`](Self::check_properties_from), with a
    /// [`TraceProperty`] additionally threaded along the BFS spanning
    /// tree: each admitted state carries the monitor state of the
    /// deterministic minimal-claim path that reached it, and a monitor
    /// violation counts like a state-property violation (checked after
    /// the state properties on each admitted state, in the same
    /// deterministic order, so verdict, counterexample, and counts remain
    /// thread-count-independent).
    ///
    /// Trace violations found this way are genuine — the reported path
    /// replays them — but their *absence* is conclusive only for the
    /// spanning-tree paths, not all interleavings (see [`TraceProperty`]).
    ///
    /// # Panics
    ///
    /// A panic on any worker thread, in a property or in the automaton,
    /// ends the search with that panic.
    pub fn check_traced_from<TP>(
        &self,
        starts: Vec<M::State>,
        properties: &[&dyn Property<M::State>],
        trace: &TP,
    ) -> ExploreReport<M::Action, M::State>
    where
        TP: TraceProperty<M::Action>,
    {
        let t0 = Instant::now();
        let threads = self.effective_threads();
        let mut store: PackedStore<M::State> = PackedStore::default();
        // Spanning-tree links, parallel to the arena: `parents[i]` /
        // `action_idx[i]` name the minimal claim that admitted state `i`
        // (`NO_LINK` for roots). Actions are never stored — the index
        // resolves against the parent's deterministic action list. Like
        // the store, these columns grow by segments and never move.
        let mut parents: SegVec<u32> = SegVec::new();
        let mut action_idx: SegVec<u32> = SegVec::new();
        // Trace-monitor states, parallel to the arena. Stepping happens
        // at admission time, on the coordinating thread, so workers never
        // touch this.
        let mut tstates: SegVec<TP::State> = SegVec::new();
        let mut admitted_bytes = 0u64;

        // The start states are one batch; each is looked up after the
        // ones before it are admitted, so a repeated start is admitted once.
        let mut views = PackedViews::default();
        let hashes: Vec<u64> = starts
            .iter()
            .map(|state| store.push_view(state, &mut views))
            .collect();
        for (i, &hash) in hashes.iter().enumerate() {
            if store.lookup(hash, views.get(i)).is_none() {
                admitted_bytes += views.get(i).len() as u64;
                store.intern_new(hash, views.get(i).into());
                parents.push(NO_LINK);
                action_idx.push(NO_LINK);
                tstates.push(trace.start());
            }
        }

        // Check properties on start states first, in admission order; a
        // violating start state ends the search before its first layer.
        let mut violation: Option<Violation<M::Action, M::State>> = None;
        for (i, tstate) in tstates.iter().enumerate() {
            let state = store.load(i as u32);
            violation = first_violation(properties, &state)
                .map(|p| property_name(properties, p))
                .or_else(|| trace_violation(trace, tstate))
                .map(|property| Violation {
                    path: vec![],
                    state: state.into_owned(),
                    property,
                });
            if violation.is_some() {
                break;
            }
        }

        let mut layers: Vec<LayerStats> = Vec::new();
        let mut quiescent = 0usize;
        // Wall-clock the coordinator spends between layers (building the
        // claim filter, draining, merging and admitting claims,
        // reporting a violation, freeing the filter) — the stall the
        // helpers sit out. Zero (and free) without the `obs` feature,
        // like its parts in `spans`.
        let mut barrier_nanos = 0u64;
        let mut spans = Spans::new();
        let mut filter_slots = 0u64;
        let mut truncation: Option<Truncation> = None;
        let mut layer_start = 0usize;
        let mut depth = 0usize;
        // Scratch for admission-time action resolution, reused across
        // layers (claims are sorted, so one rebuild per distinct parent).
        let mut parent_actions: Vec<M::Action> = Vec::new();
        let mut barrier = Barrier::default();
        // A split admission builds the next layer's filter while its
        // helper places slots.
        let mut next_filter: Option<LayerFilter<Box<[u8]>>> = None;
        let mut store = Arc::new(store);
        let pool: Pool<Job<M::State>, Done> = Pool::new(threads - 1);
        let mut spawned = false;

        // The search runs only from admitted, non-violating start states;
        // state 0 seeds every worker's reused state.
        let seed = (violation.is_none() && !store.is_empty()).then(|| store.load(0).into_owned());
        if let Some(seed) = seed {
            let mut coordinator: WorkerOf<M> = Worker::new(seed);
            std::thread::scope(|scope| {
                let _closer = pool.closer();
                loop {
                    let layer_end = store.len();
                    if layer_start == layer_end {
                        break;
                    }
                    if depth >= self.max_depth {
                        // A non-empty frontier at the depth budget means the
                        // verdict is inconclusive.
                        truncation = Some(Truncation::DepthBudget);
                        break;
                    }

                    let frontier = layer_end - layer_start;
                    // Expansion order is irrelevant to the result, so a thin
                    // layer stays on the coordinator.
                    let fan_out = threads > 1 && frontier >= threads * FAN_OUT_PER_THREAD;
                    let workers = if fan_out { threads } else { 1 };
                    let setup = Stopwatch::start();
                    let filter = next_filter
                        .take()
                        .unwrap_or_else(|| self.layer_filter(frontier, layers.last()));
                    filter_slots += filter.capacity() as u64;
                    let work = LayerWork {
                        next: AtomicUsize::new(layer_start),
                        end: layer_end,
                        chunk: (frontier / (workers * 8)).max(1),
                        filter,
                    };
                    let nanos = setup.elapsed_nanos();
                    spans.add("filter", nanos);
                    barrier_nanos += nanos;

                    let (stats, overflow, filter) = if fan_out {
                        if !spawned {
                            spawned = true;
                            for helper in 0..pool.helpers() {
                                let (pool, seed) = (&pool, M::State::clone(&coordinator.cur));
                                scope.spawn(move || {
                                    let mut worker = Worker::new(seed);
                                    pool.serve(helper, |job| {
                                        self.run_job(&mut worker, properties, job)
                                    });
                                });
                            }
                        }
                        let work = Arc::new(work);
                        for helper in 0..pool.helpers() {
                            pool.post(helper, Job::Expand(Arc::clone(&store), Arc::clone(&work)));
                        }
                        let (mut stats, mut overflow) =
                            self.expand_worker(&mut coordinator, &store, properties, &work);
                        pool.join(|done| {
                            if let Done::Expanded(s, mut o) = done {
                                stats = stats.merge(s);
                                overflow.append(&mut o);
                            }
                        });
                        let work = Arc::into_inner(work).expect("helpers hand the layer back");
                        (stats, overflow, work.filter)
                    } else {
                        let (stats, overflow) =
                            self.expand_worker(&mut coordinator, &store, properties, &work);
                        (stats, overflow, work.filter)
                    };
                    quiescent += stats.quiescent;

                    let barrier_sw = Stopwatch::start();
                    let sw = Stopwatch::start();
                    let split = spawned && filter.capacity() >= SPLIT_MIN;
                    let merged_dups = barrier.drain_sorted(&pool, filter, overflow, split);
                    spans.add("drain_sort", sw.elapsed_nanos());
                    let room = self.max_states.saturating_sub(store.len());
                    if barrier.entries.len() > room {
                        truncation = Some(Truncation::StateBudget);
                        // The filter dies with the layer, so dropped states are
                        // naturally rediscoverable later; their verdicts go
                        // with them.
                        barrier.entries.truncate(room);
                    }
                    let discovered = barrier.entries.len();
                    layers.push(LayerStats {
                        depth,
                        frontier,
                        discovered,
                        edges: stats.edges,
                        duplicates: stats.duplicates + merged_dups,
                    });

                    // Admit in deterministic (claim-key) order. The first state
                    // whose claim carries a violated property — or, after the
                    // state properties, whose trace-monitor state is violating —
                    // is the counterexample for every thread count; the rest of
                    // the layer is still admitted, so counts stay
                    // thread-count-independent.
                    let sw = Stopwatch::start();
                    let admitted_start = store.len();
                    let store_mut = Arc::get_mut(&mut store).expect("helpers hand the store back");
                    let split = spawned && discovered >= SPLIT_MIN;
                    if split {
                        barrier.start_placing(&pool, store_mut, admitted_start as u32);
                    }
                    let mut first_failure: Option<(u32, String)> = None;
                    let mut cached_parent = NO_LINK;
                    for PendingState {
                        key,
                        hash,
                        repr,
                        verdict,
                    } in barrier.entries.drain(..)
                    {
                        // Resolve the admitting action only when a real trace
                        // property needs it: rebuild the parent's deterministic
                        // action list once per parent (claims arrive
                        // parent-grouped) and index it.
                        let tstate = if trace.is_vacuous() {
                            trace.start()
                        } else {
                            if key.parent != cached_parent {
                                cached_parent = key.parent;
                                self.enumerate_actions(
                                    &store_mut.load(key.parent),
                                    &mut parent_actions,
                                );
                            }
                            trace.step(
                                &tstates[key.parent as usize],
                                &parent_actions[key.action as usize],
                            )
                        };
                        admitted_bytes += repr.len() as u64;
                        let idx = if split {
                            store_mut.push_encoding(&repr)
                        } else {
                            store_mut.intern_new(hash, repr)
                        };
                        if first_failure.is_none() {
                            first_failure = verdict
                                .map(|p| property_name(properties, p))
                                .or_else(|| trace_violation(trace, &tstate))
                                .map(|property| (idx, property));
                        }
                        parents.push(key.parent);
                        action_idx.push(key.action);
                        tstates.push(tstate);
                    }
                    if split {
                        if first_failure.is_none() {
                            next_filter = Some(self.layer_filter(discovered, layers.last()));
                        }
                        barrier.finish_placing(&pool, store_mut);
                    }
                    barrier.fit(discovered);
                    if let Some((idx, property)) = first_failure {
                        violation = Some(Violation {
                            path: self.reconstruct_path(
                                store_mut,
                                &parents,
                                &action_idx,
                                idx as usize,
                            ),
                            state: store_mut.load(idx).into_owned(),
                            property,
                        });
                    }
                    spans.add("admit", sw.elapsed_nanos());
                    barrier_nanos += barrier_sw.elapsed_nanos();
                    if violation.is_some() {
                        break;
                    }

                    layer_start = admitted_start;
                    depth += 1;
                }
            });
        }

        ExploreReport {
            states_visited: store.len(),
            truncation,
            violation,
            quiescent_states: quiescent,
            layers,
            threads,
            arena_bytes: store.approx_bytes(),
            admitted_bytes,
            filter_slots,
            duration: t0.elapsed(),
            barrier_nanos,
            barrier_spans: spans,
        }
    }

    /// A pool helper's side of a [`Job`].
    fn run_job(
        &self,
        w: &mut WorkerOf<M>,
        properties: &[&dyn Property<M::State>],
        job: Job<M::State>,
    ) -> Done {
        match job {
            Job::Expand(store, work) => {
                let (stats, overflow) = self.expand_worker(w, &store, properties, &work);
                Done::Expanded(stats, overflow)
            }
            Job::Drain(filter, mut run) => {
                filter.drain_into(&mut run);
                run.sort_unstable_by_key(|entry| entry.key);
                Done::Drained(run)
            }
            Job::Place {
                mut index,
                larger,
                hashes,
                first,
            } => {
                if let Some(larger) = larger {
                    index.move_into(larger);
                }
                for (id, &hash) in (first..).zip(&hashes) {
                    index.place(hash, id);
                }
                Done::Placed(index, hashes)
            }
        }
    }

    /// One worker's share of a layer expansion: steal frontier chunks and
    /// expand each state as one batch. Load it once into the worker's
    /// reused `cur`; for every action and every pick step a copy of it in
    /// place in a reused successor state and append its encoding to the
    /// batch; probe the frozen store for every encoding in one loop; claim
    /// the misses in the lock-free layer filter. Only a claim that wins a
    /// slot or overflows boxes its encoding and evaluates `properties` on
    /// the successor; overflowing claims go to the returned list, merged
    /// exactly at the barrier.
    fn expand_worker(
        &self,
        w: &mut WorkerOf<M>,
        store: &PackedStore<M::State>,
        properties: &[&dyn Property<M::State>],
        work: &LayerWork,
    ) -> (WorkerStats, Vec<Pending>) {
        let mut stats = WorkerStats::default();
        let mut overflow = Vec::new();
        loop {
            let begin = work.next.fetch_add(work.chunk, Ordering::Relaxed);
            if begin >= work.end {
                break;
            }
            for idx in begin..(begin + work.chunk).min(work.end) {
                store.load_into(idx as u32, &mut w.cur);
                self.enumerate_actions(&w.cur, &mut w.actions);
                if w.actions.is_empty() {
                    stats.quiescent += 1;
                    continue;
                }
                w.views.clear();
                w.hashes.clear();
                w.keys.clear();
                for (ai, action) in w.actions.iter().enumerate() {
                    for pick in 0..self.automaton.successor_count(&w.cur, action) {
                        let n = w.hashes.len();
                        if n == w.succs.len() {
                            w.succs.push(w.cur.clone());
                        } else {
                            w.succs[n].clone_from(&w.cur);
                        }
                        // A refused pick would leave the successor equal
                        // to `cur` and admit it as a phantom self-loop.
                        assert!(
                            self.automaton.step_in_place(&mut w.succs[n], action, pick),
                            "counted pick {pick} of {action:?} did not step"
                        );
                        w.hashes.push(store.push_view(&w.succs[n], &mut w.views));
                        w.keys.push(ClaimKey {
                            parent: idx as u32,
                            action: ai as u32,
                            succ: pick as u32,
                        });
                    }
                }
                let succs = &w.succs[..w.hashes.len()];
                stats.edges += succs.len() as u64;
                w.fresh.clear();
                for (k, &hash) in w.hashes.iter().enumerate() {
                    if store.lookup(hash, w.views.get(k)).is_none() {
                        w.fresh.push(k);
                    }
                }
                stats.duplicates += (succs.len() - w.fresh.len()) as u64;
                for &k in &w.fresh {
                    let (hash, key) = (w.hashes[k], w.keys[k]);
                    match work.filter.claim(hash, key, w.views.get(k)) {
                        Claimed::Duplicate => stats.duplicates += 1,
                        Claimed::New(won) => {
                            let verdict = first_violation(properties, &succs[k]);
                            won.publish(w.views.get(k).into(), verdict);
                        }
                        Claimed::Overflow => overflow.push(PendingState {
                            key,
                            hash,
                            repr: w.views.get(k).into(),
                            verdict: first_violation(properties, &succs[k]),
                        }),
                    }
                }
            }
        }
        (stats, overflow)
    }

    /// Fills `into` with `state`'s deterministic action list: the enabled
    /// locally controlled actions, then the permitted environment inputs.
    /// Claim keys, admission-time trace labels, and lazy counterexample
    /// reconstruction all index this one list.
    fn enumerate_actions(&self, state: &M::State, into: &mut Vec<M::Action>) {
        into.clear();
        let _ = self.automaton.for_each_enabled_local(state, &mut |a| {
            into.push(a);
            ControlFlow::Continue(())
        });
        into.extend((self.inputs)(state));
    }

    /// Follows spanning-tree links from `idx` back to a root, resolving
    /// each stored action *index* against the parent's re-enumerated
    /// action list — labels are materialized lazily, only for the one
    /// reported path, and identically to what the workers enumerated.
    fn reconstruct_path(
        &self,
        store: &PackedStore<M::State>,
        parents: &SegVec<u32>,
        action_idx: &SegVec<u32>,
        mut idx: usize,
    ) -> Vec<M::Action> {
        let mut path = Vec::new();
        let mut acts: Vec<M::Action> = Vec::new();
        while parents[idx] != NO_LINK {
            let parent = parents[idx] as usize;
            self.enumerate_actions(&store.load(parent as u32), &mut acts);
            path.push(acts.swap_remove(action_idx[idx] as usize));
            idx = parent;
        }
        path.reverse();
        path
    }
}

/// Index of the first property (in order) that `state` violates.
fn first_violation<S>(properties: &[&dyn Property<S>], state: &S) -> Option<u32> {
    properties
        .iter()
        .position(|p| !p.holds(state))
        .map(|i| i as u32)
}

/// The violation-report name of property `index`.
fn property_name<S>(properties: &[&dyn Property<S>], index: u32) -> String {
    properties[index as usize].name().to_string()
}

/// The trace property's verdict on a threaded monitor state, labelled
/// `name: description` for the violation report.
fn trace_violation<A, TP: TraceProperty<A>>(trace: &TP, tstate: &TP::State) -> Option<String> {
    trace
        .violation(tstate)
        .map(|desc| format!("{}: {desc}", trace.name()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ioa::{ActionClass, TaskId};

    /// Counter modulo `n` with an input `Bump` and output `Tick`: `Tick`
    /// (even states only) adds 2, `Bump` adds 1.
    #[derive(Clone)]
    struct Counter {
        n: u8,
    }

    #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
    enum Act {
        Bump,
        Tick,
    }

    impl Automaton for Counter {
        type Action = Act;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, a: &Act) -> Option<ActionClass> {
            Some(match a {
                Act::Bump => ActionClass::Input,
                Act::Tick => ActionClass::Output,
            })
        }
        fn successors(&self, s: &u8, a: &Act) -> Vec<u8> {
            match a {
                Act::Bump => vec![(s + 1) % self.n],
                Act::Tick => {
                    if s.is_multiple_of(2) {
                        vec![(s + 2) % self.n]
                    } else {
                        vec![]
                    }
                }
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &u8,
            f: &mut dyn FnMut(Act) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            if s.is_multiple_of(2) {
                f(Act::Tick)
            } else {
                ControlFlow::Continue(())
            }
        }
        fn task_of(&self, _a: &Act) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    fn bump(_s: &u8) -> Vec<Act> {
        vec![Act::Bump]
    }

    #[test]
    fn finds_shortest_violation_path_every_thread_count() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(threads);
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.expect("3 is reachable");
            assert_eq!(v.state, 3);
            assert_eq!(v.path.len(), 2, "Tick then Bump is shortest");
            // The deterministic claim order also pins the path itself.
            assert_eq!(v.path, vec![Act::Tick, Act::Bump]);
        }
    }

    #[test]
    fn exhaustive_hold_reaches_every_residue() {
        // `Bump` is offered everywhere, so all `n` residues are reachable
        // and none is quiescent.
        for threads in [1, 2, 4] {
            let par = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
                .threads(threads)
                .check_invariant(|s| *s < 10);
            assert!(par.holds() && par.exhaustive() && par.safe_within_budget());
            assert_eq!(par.states_visited, 10);
            assert_eq!(par.quiescent_states, 0);
        }
    }

    #[test]
    fn closed_system_quiesces_on_odd_states() {
        // No inputs: from 0, `Tick` reaches only the five even residues,
        // and each of them has `Tick` enabled, so none is quiescent.
        for threads in [1, 2, 4] {
            let report = ParallelExplorer::new(Counter { n: 10 }, |_s: &u8| vec![], 1000, 100)
                .threads(threads)
                .reachable_states();
            assert!(report.holds());
            assert_eq!(report.states_visited, 5);
            assert_eq!(report.quiescent_states, 0);
        }
    }

    #[test]
    fn layer_stats_cover_the_search() {
        let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(2);
        let report = e.reachable_states();
        let discovered: usize = report.layers.iter().map(|l| l.discovered).sum();
        // Start state plus per-layer discoveries account for every state.
        assert_eq!(1 + discovered, report.states_visited);
        assert!(report.edges_expanded() > 0);
        assert!(report.layers.iter().all(|l| l.frontier > 0));
        // The interner reports a live footprint once states are admitted.
        assert!(report.arena_bytes > 0);
    }

    #[test]
    fn state_budget_truncates() {
        let e = ParallelExplorer::new(Counter { n: 100 }, bump, 5, 100).threads(2);
        let report = e.reachable_states();
        assert_eq!(report.truncation, Some(Truncation::StateBudget));
        assert!(!report.exhaustive());
        assert!(report.safe_within_budget());
        assert!(!report.holds());
        assert!(report.states_visited <= 5);
    }

    #[test]
    fn depth_budget_truncates() {
        let e = ParallelExplorer::new(Counter { n: 100 }, bump, 1000, 3).threads(2);
        let report = e.reachable_states();
        assert_eq!(report.truncation, Some(Truncation::DepthBudget));
        assert!(report.max_depth_reached() < 3);
        assert!(report.states_visited <= 8);
    }

    #[test]
    fn violated_start_state_gives_empty_path() {
        let e = ParallelExplorer::new(Counter { n: 10 }, |_s: &u8| vec![], 1000, 100);
        let report = e.check_invariant(|s| *s != 0);
        let v = report.violation.unwrap();
        assert!(v.path.is_empty());
        assert_eq!(v.state, 0);
        assert_eq!(v.property, "invariant");
    }

    #[test]
    fn multiple_properties_report_first_violated_in_order() {
        let even = Invariant::new("below-6", |s: &u8| *s < 6);
        let odd = Invariant::new("below-4", |s: &u8| *s < 4);
        let e = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100).threads(2);
        // Both properties eventually fail; 4 (violating "below-4") is at
        // depth 2, while 6 (violating "below-6") is at depth 3 — the
        // shallower violation must win.
        let report = e.check_properties_from(vec![0], &[&even, &odd]);
        let v = report.violation.unwrap();
        assert_eq!(v.state, 4);
        assert_eq!(v.property, "below-4");
        assert_eq!(v.path.len(), 2);
    }

    /// Diamond automaton: two different one-step actions reach the same
    /// state; the minimal claim (lower action index) must win the
    /// predecessor race under every thread count.
    #[derive(Clone)]
    struct Diamond;

    impl Automaton for Diamond {
        type Action = u8;
        type State = u8;

        fn start_state(&self) -> u8 {
            0
        }
        fn classify(&self, _a: &u8) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn successors(&self, s: &u8, a: &u8) -> Vec<u8> {
            match (s, a) {
                (0, 1) => vec![1],
                (0, 2) => vec![2],
                (1, 3) | (2, 4) => vec![3],
                _ => vec![],
            }
        }
        fn for_each_enabled_local(
            &self,
            s: &u8,
            f: &mut dyn FnMut(u8) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            let enabled: &[u8] = match s {
                0 => &[1, 2],
                1 => &[3],
                2 => &[4],
                _ => &[],
            };
            for &a in enabled {
                f(a)?;
            }
            ControlFlow::Continue(())
        }
        fn task_of(&self, _a: &u8) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    #[test]
    fn diamond_merge_picks_canonical_parent() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(threads);
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.unwrap();
            // Both 1→3 and 2→4 paths have length 2; the canonical one
            // goes through state 1 (the lower-indexed parent).
            assert_eq!(v.path, vec![1, 3]);
        }
    }

    /// Trace property "action `0` has occurred on the path", for the
    /// trace-threading tests below.
    struct SawAction(u8);

    impl TraceProperty<u8> for SawAction {
        type State = bool;

        fn name(&self) -> &str {
            "saw-action"
        }

        fn start(&self) -> bool {
            false
        }

        fn step(&self, state: &bool, action: &u8) -> bool {
            *state || *action == self.0
        }

        fn violation(&self, state: &bool) -> Option<String> {
            state.then(|| format!("action {} occurred", self.0))
        }
    }

    #[test]
    fn null_trace_property_changes_nothing() {
        let plain = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        let traced = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .check_traced_from(vec![0], &[], &());
        assert!(traced.holds());
        assert_eq!(traced.states_visited, plain.states_visited);
        assert_eq!(traced.quiescent_states, plain.quiescent_states);
    }

    #[test]
    fn trace_violation_reports_canonical_path_every_thread_count() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(threads);
            let report = e.check_traced_from(vec![0], &[], &SawAction(1));
            let v = report.violation.expect("action 1 is on a canonical path");
            assert_eq!(v.path, vec![1]);
            assert_eq!(v.state, 1);
            assert_eq!(v.property, "saw-action: action 1 occurred");
        }
    }

    /// The documented incompleteness: action `4` occurs only on the
    /// 0→2→3 branch of the diamond, but state 3's canonical (minimal
    /// claim) path goes through state 1, so the threaded monitor never
    /// sees `4` — the search reports a hold even though a real execution
    /// violates the trace property. Conclusive absence needs an observer
    /// automaton composed into the system instead.
    #[test]
    fn trace_dedup_can_hide_noncanonical_paths() {
        let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(2);
        let report = e.check_traced_from(vec![0], &[], &SawAction(4));
        assert!(report.holds(), "spanning-tree monitor misses the 2→4 path");
    }

    #[test]
    fn state_properties_outrank_trace_property_on_the_same_state() {
        let below = Invariant::new("below-1", |s: &u8| *s < 1);
        let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100).threads(2);
        // Both fail first at state 1 (depth 1); the state property wins.
        let report = e.check_traced_from(vec![0], &[&below], &SawAction(1));
        let v = report.violation.unwrap();
        assert_eq!(v.state, 1);
        assert_eq!(v.property, "below-1");
    }

    #[test]
    fn dedup_hits_are_counted() {
        // The 10-state counter cycle revisits states constantly.
        let report = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        assert!(report.dedup_hits() > 0);
        assert_eq!(
            report.dedup_hits(),
            report.layers.iter().map(|l| l.duplicates).sum::<u64>()
        );
    }

    #[test]
    fn layers_match_at_every_thread_count() {
        // The thin counter stays on the calling thread; the wide `Spread`
        // fans out to the pool and splits its barriers.
        fn same<M, I>(search: impl Fn(usize) -> ExploreReport<M, I>) {
            let reference = search(1);
            for threads in [2, 4] {
                let par = search(threads);
                assert!(par.holds() && par.exhaustive());
                assert_eq!(par.states_visited, reference.states_visited);
                assert_eq!(par.quiescent_states, reference.quiescent_states);
                assert_eq!(par.layers, reference.layers, "{threads} threads");
                assert_eq!(par.arena_bytes, reference.arena_bytes);
                assert_eq!(par.admitted_bytes, reference.admitted_bytes);
                assert_eq!(par.filter_slots, reference.filter_slots);
            }
        }
        same(|threads| {
            ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
                .threads(threads)
                .reachable_states()
        });
        same(|threads| {
            ParallelExplorer::new(Spread { n: 4000 }, |_: &u16| vec![], 10_000, 100)
                .threads(threads)
                .reachable_states()
        });
    }

    #[test]
    fn tiny_filters_stay_exact_through_the_overflow_path() {
        // A one-segment filter, and a filter with no segments at all,
        // which sends every claim down the overflow path: correctness
        // must come from the barrier merge, not filter capacity. The
        // counter reaches all 100 residues, none quiescent, and every
        // layer must match the default-shard run's.
        let reference = ParallelExplorer::new(Counter { n: 100 }, bump, 1000, 200)
            .threads(1)
            .reachable_states();
        assert_eq!(reference.states_visited, 100);
        assert_eq!(reference.quiescent_states, 0);
        for shards in [0, 1] {
            for threads in [1, 2, 4] {
                let par = ParallelExplorer::new(Counter { n: 100 }, bump, 1000, 200)
                    .threads(threads)
                    .shards(shards)
                    .reachable_states();
                assert_eq!(par.states_visited, reference.states_visited);
                assert_eq!(par.quiescent_states, reference.quiescent_states);
                assert_eq!(par.layers, reference.layers);
            }
        }
    }

    /// Every state `s < n` has eight output actions `k`, each stepping to
    /// `(8s + k + 1) mod n`: layers widen eightfold until they cover the
    /// `n` states, so expansions fan out across every worker.
    #[derive(Clone)]
    struct Spread {
        n: u16,
    }

    impl Automaton for Spread {
        type Action = u8;
        type State = u16;

        fn start_state(&self) -> u16 {
            0
        }
        fn classify(&self, _a: &u8) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn successors(&self, s: &u16, a: &u8) -> Vec<u16> {
            let next = (u32::from(*s) * 8 + u32::from(*a) + 1) % u32::from(self.n);
            vec![next as u16]
        }
        fn for_each_enabled_local(
            &self,
            _s: &u16,
            f: &mut dyn FnMut(u8) -> ControlFlow<()>,
        ) -> ControlFlow<()> {
            (0..8).try_for_each(f)
        }
        fn task_of(&self, _a: &u8) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    /// `check_invariant(|s| *s != bad)` with `shards` claim-filter
    /// segments.
    fn search_for<M, I>(
        automaton: M,
        inputs: I,
        (threads, shards): (usize, usize),
        max_states: usize,
        bad: M::State,
    ) -> ExploreReport<M::Action, M::State>
    where
        M: Automaton + Sync,
        M::State: PackedCodec + Eq + Send + Sync,
        M::Action: Send + Sync,
        I: Fn(&M::State) -> Vec<M::Action> + Sync,
    {
        ParallelExplorer::new(automaton, inputs, max_states, 200)
            .threads(threads)
            .shards(shards)
            .check_invariant(move |s: &M::State| *s != bad)
    }

    /// Thread count × claim-filter segments (0: every claim overflows;
    /// 64: the default filter).
    fn claim_paths() -> impl Iterator<Item = (usize, usize)> {
        [1, 2, 4]
            .into_iter()
            .flat_map(|threads| [0, 64].map(|shards| (threads, shards)))
    }

    /// Asserts `report` found the same violation (state, path, property)
    /// and the same layers as `reference`.
    fn assert_same_violation<A, S>(
        report: &ExploreReport<A, S>,
        reference: &ExploreReport<A, S>,
        config: (usize, usize),
    ) where
        A: PartialEq + std::fmt::Debug,
        S: PartialEq + std::fmt::Debug,
    {
        let (v, e) = (
            report.violation.as_ref().expect("violation found"),
            reference.violation.as_ref().expect("reference violation"),
        );
        assert_eq!(
            (&v.state, &v.path, &v.property),
            (&e.state, &e.path, &e.property),
            "{config:?}"
        );
        assert_eq!(report.layers, reference.layers, "{config:?}");
        assert_eq!(report.states_visited, reference.states_visited);
    }

    #[test]
    fn overflow_path_violations_match_the_default_filter() {
        // The overflowing worker evaluates the verdict itself; the
        // barrier must report the same state, path, property and layers
        // as when the claim wins a filter slot — on the thin-layered
        // counter and on the wide `Spread`, whose layers fan out.
        let counter = |config| search_for(Counter { n: 100 }, bump, config, 1000, 57);
        let spread =
            |config| search_for(Spread { n: 4000 }, |_: &u16| vec![], config, 10_000, 3999);
        let (counter_ref, spread_ref) = (counter((1, 64)), spread((1, 64)));
        assert_eq!(counter_ref.violation.as_ref().map(|v| v.state), Some(57));
        assert_eq!(spread_ref.violation.as_ref().map(|v| v.state), Some(3999));
        assert!(spread_ref.layers.iter().any(|l| l.frontier >= 4 * 4));
        for config in claim_paths() {
            assert_same_violation(&counter(config), &counter_ref, config);
            assert_same_violation(&spread(config), &spread_ref, config);
        }
    }

    #[test]
    fn split_barriers_keep_every_id_and_the_arena() {
        // Layers of 4,096 and ~25,000 states: at 2 and 4 threads their
        // barriers drain the filter in two halves and place the index on
        // a helper while the coordinator stores the encodings. Ids show in
        // the violation's path; the index capacity in `arena_bytes`.
        let spread = |config| {
            search_for(
                Spread { n: 30_000 },
                |_: &u16| vec![],
                config,
                100_000,
                29_999,
            )
        };
        let reference = spread((1, 64));
        assert!(reference.layers.iter().any(|l| l.discovered >= SPLIT_MIN));
        for config in claim_paths() {
            let report = spread(config);
            assert_same_violation(&report, &reference, config);
            assert_eq!(report.arena_bytes, reference.arena_bytes, "{config:?}");
            assert_eq!(
                report.admitted_bytes, reference.admitted_bytes,
                "{config:?}"
            );
        }
    }

    #[test]
    fn a_violator_the_state_budget_drops_is_not_reported() {
        // Each counter layer admits its even residue (`Tick` precedes
        // `Bump` in the action list, so it has the lower claim key)
        // before its odd one. A 4-state budget admits 0, 2, 1, 4 and
        // drops 3 — the only violator — although a worker already
        // evaluated its verdict.
        for config in claim_paths() {
            let report = search_for(Counter { n: 100 }, bump, config, 4, 3);
            assert!(report.violation.is_none(), "{config:?}");
            assert_eq!(report.truncation, Some(Truncation::StateBudget));
            assert!(report.safe_within_budget());
            assert_eq!(report.states_visited, 4);
        }
        let roomy = search_for(Counter { n: 100 }, bump, (1, 64), 5, 3);
        assert_eq!(roomy.violation.map(|v| v.state), Some(3));
    }

    #[test]
    fn state_budget_is_clamped_to_the_u32_id_space() {
        let explorer = ParallelExplorer::new(Counter { n: 10 }, bump, usize::MAX, 100).threads(2);
        assert_eq!(explorer.max_states(), u32::MAX as usize);
        let report = explorer.reachable_states();
        assert!(report.holds());
        assert_eq!(report.states_visited, 10);
        // Budgets inside the id space are kept as given.
        let small = ParallelExplorer::new(Counter { n: 10 }, bump, 5, 100);
        assert_eq!(small.max_states(), 5);
    }

    #[test]
    fn barrier_span_is_timed_only_with_obs() {
        let report = ParallelExplorer::new(Spread { n: 4000 }, |_: &u16| vec![], 10_000, 100)
            .threads(2)
            .reachable_states();
        assert!(report.layers.len() > 1);
        if cfg!(feature = "obs") {
            assert!(report.barrier_nanos > 0, "obs timers must time the barrier");
            assert!(u128::from(report.barrier_nanos) <= report.duration.as_nanos());
        } else {
            assert_eq!(report.barrier_nanos, 0, "default builds report no span");
        }
    }
}
