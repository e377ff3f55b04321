//! The layer-synchronous parallel BFS engine.
//!
//! States are admitted once into a pluggable [`StateStore`] arena;
//! everything else — the spanning-tree links, the frontier itself (a
//! contiguous id range per layer) — carries dense `u32` ids. The store
//! is frozen while workers expand a layer: membership for admitted
//! states is a read-only store lookup, and intra-layer discoveries are
//! coordinated through the lock-free [`LayerFilter`]. Workers enumerate
//! transitions through the allocation-free [`Automaton`] callbacks and
//! decide every claim on a borrowed view of the successor (on the packed
//! backend, its encoding in one reused per-worker scratch buffer), so the
//! duplicates that make up most edges never allocate: only a claim that
//! wins a filter slot or overflows builds an owned representation, and
//! that same worker evaluates the state properties on the successor it
//! already holds. The store grows only at the layer barrier, where the
//! engine merges worker-local overflow claims with the drained filter,
//! sorts by minimal claim key, and admits in that deterministic order —
//! reading each state's verdict off its claim, so the barrier decodes
//! nothing but the one state it reports as a counterexample.

use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dl_obs::Stopwatch;
use ioa::Automaton;

use crate::property::{Invariant, Property, TraceProperty};
use crate::report::{ExploreReport, LayerStats, Truncation, Violation};
use crate::shard::{merge_overflow, ClaimKey, Claimed, LayerFilter, PendingState};
use crate::store::{ExploreBackend, PackedBackend, PlainBackend, StateStore};

/// Root marker in the spanning-tree link arrays.
const NO_LINK: u32 = u32::MAX;

/// The largest state budget the engine honors: admitted ids, claim-key
/// parents and spanning-tree links are `u32`, so a search stops with
/// [`Truncation::StateBudget`] at `u32::MAX` states instead of
/// overflowing the id space.
const MAX_STATE_BUDGET: usize = u32::MAX as usize;

/// The claim representation a backend's store circulates.
type ReprOf<B, S> = <<B as ExploreBackend<S>>::Store as StateStore<S>>::Repr;

/// What one worker hands back from a layer expansion: its local stats
/// and the claims the lock-free filter could not decide (merged at the
/// barrier).
type WorkerOutcome<R> = (WorkerStats, Vec<PendingState<R>>);

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
/// depth budgets, with a [`threads`](ParallelExplorer::threads) control,
/// a [`packed`](ParallelExplorer::packed) switch from the struct arena to
/// bit-packed encodings, and multi-property search via
/// [`check_properties_from`](ParallelExplorer::check_properties_from).
pub struct ParallelExplorer<M, I, B = PlainBackend> {
    automaton: M,
    /// Environment inputs permitted in a given state.
    inputs: I,
    max_states: usize,
    max_depth: usize,
    threads: usize,
    shards: usize,
    backend: B,
}

impl<M, I> ParallelExplorer<M, I, PlainBackend> {
    /// Creates an explorer over the default plain (full-struct) storage.
    /// `inputs(state)` returns the environment input actions to consider
    /// from `state` (return an empty vector for a closed system). Thread
    /// count defaults to the machine's available parallelism. State ids
    /// are `u32`, so `max_states` is clamped to `u32::MAX`.
    pub fn new(automaton: M, inputs: I, max_states: usize, max_depth: usize) -> Self {
        ParallelExplorer {
            automaton,
            inputs,
            max_states: max_states.min(MAX_STATE_BUDGET),
            max_depth,
            threads: 0,
            shards: 64,
            backend: PlainBackend,
        }
    }
}

impl<M, I, B> ParallelExplorer<M, I, B> {
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

    /// Stores states as packed canonical encodings ([`PackedBackend`]):
    /// same admitted states, same ids, same verdicts — a fraction of the
    /// arena bytes. Requires `M::State: PackedCodec`.
    pub fn packed(self) -> ParallelExplorer<M, I, PackedBackend> {
        ParallelExplorer {
            automaton: self.automaton,
            inputs: self.inputs,
            max_states: self.max_states,
            max_depth: self.max_depth,
            threads: self.threads,
            shards: self.shards,
            backend: PackedBackend::new(),
        }
    }

    fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
        }
    }
}

impl<M, I, B> ParallelExplorer<M, I, B>
where
    M: Automaton + Sync,
    M::State: Send + Sync,
    M::Action: Send + Sync,
    I: Fn(&M::State) -> Vec<M::Action> + Sync,
    B: ExploreBackend<M::State> + Sync,
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
        let mut store = self.backend.new_store();
        // Spanning-tree links, parallel to the arena: `parents[i]` /
        // `action_idx[i]` name the minimal claim that admitted state `i`
        // (`NO_LINK` for roots). Actions are never stored — the index
        // resolves against the parent's deterministic action list.
        let mut parents: Vec<u32> = Vec::new();
        let mut action_idx: Vec<u32> = Vec::new();
        // Trace-monitor states, parallel to the arena. Stepping happens
        // at admission time (single-threaded, between layers), so workers
        // never touch this.
        let mut tstates: Vec<TP::State> = Vec::new();

        let mut scratch: <B::Store as StateStore<M::State>>::Scratch = Default::default();
        for state in starts {
            let (hash, view) = store.view(&state, &mut scratch);
            if store.lookup_view(hash, view).is_none() {
                let repr = store.owned_repr(state, &scratch);
                store.intern_new(hash, repr);
                parents.push(NO_LINK);
                action_idx.push(NO_LINK);
                tstates.push(trace.start());
            }
        }

        // Check properties on start states first, in admission order.
        for (i, tstate) in tstates.iter().enumerate() {
            let state = store.load(i as u32);
            let failed = first_violation(properties, &state)
                .map(|p| property_name(properties, p))
                .or_else(|| trace_violation(trace, tstate));
            if let Some(property) = failed {
                return ExploreReport {
                    states_visited: store.len(),
                    truncation: None,
                    violation: Some(Violation {
                        path: vec![],
                        state: state.into_owned(),
                        property,
                    }),
                    quiescent_states: 0,
                    layers: vec![],
                    threads,
                    arena_bytes: store.approx_bytes(),
                    duration: t0.elapsed(),
                    barrier_nanos: 0,
                };
            }
        }

        let mut layers: Vec<LayerStats> = Vec::new();
        let mut quiescent = 0usize;
        // Wall-clock spent single-threaded between layers (building the
        // claim filter, merging and admitting claims, reporting a
        // violation, freeing the filter) — the stall the workers sit
        // out. Zero (and free) without the `obs` feature.
        let mut barrier_nanos = 0u64;
        let mut truncation: Option<Truncation> = None;
        let mut violation: Option<Violation<M::Action, M::State>> = None;
        let mut layer_start = 0usize;
        let mut depth = 0usize;
        // Scratch for admission-time action resolution, reused across
        // layers (claims are sorted, so one rebuild per distinct parent).
        let mut cached_parent: u32;
        let mut parent_actions: Vec<M::Action> = Vec::new();

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
            // Thin layers are not worth fanning out: the spawn cost would
            // exceed the expansion work, and expansion order is
            // irrelevant to the result either way.
            let fan_out = if frontier < threads * 4 { 1 } else { threads };
            let counter = AtomicUsize::new(layer_start);
            let chunk = (frontier / (fan_out * 8)).max(1);
            // Fresh claim filter per layer, sized to twice the expected
            // discoveries: the frontier times the last layer's growth.
            // Undersizing is safe (claims overflow, the barrier merge
            // stays exact); oversizing costs serial set-up and drain.
            let setup = Stopwatch::start();
            let expected = layers.last().map_or(frontier, |last| {
                frontier.saturating_mul(last.discovered) / last.frontier
            });
            let filter: LayerFilter<ReprOf<B, M::State>> =
                LayerFilter::new(expected.saturating_mul(2), self.shards);
            barrier_nanos += setup.elapsed_nanos();

            let (stats, overflow) = if fan_out == 1 {
                self.expand_worker(&store, properties, layer_end, chunk, &counter, &filter)
            } else {
                std::thread::scope(|scope| {
                    let handles: Vec<_> = (0..fan_out)
                        .map(|_| {
                            scope.spawn(|| {
                                self.expand_worker(
                                    &store, properties, layer_end, chunk, &counter, &filter,
                                )
                            })
                        })
                        .collect();
                    let mut stats = WorkerStats::default();
                    let mut overflow = Vec::new();
                    for handle in handles {
                        let (s, mut o) = handle.join().expect("explore worker panicked");
                        stats = stats.merge(s);
                        overflow.append(&mut o);
                    }
                    (stats, overflow)
                })
            };
            quiescent += stats.quiescent;

            let barrier_sw = Stopwatch::start();
            let mut entries = filter.drain();
            let merged_dups = merge_overflow(&mut entries, overflow);
            // Claim keys are unique (one entry per distinct state, and
            // distinct states that share a parent differ in action or
            // successor index), so this order is total and deterministic.
            entries.sort_unstable_by_key(|entry| entry.key);
            let room = self.max_states.saturating_sub(store.len());
            if entries.len() > room {
                truncation = Some(Truncation::StateBudget);
                // The filter dies with the layer, so dropped states are
                // naturally rediscoverable later; their verdicts go with
                // them.
                entries.truncate(room);
            }
            layers.push(LayerStats {
                depth,
                frontier,
                discovered: entries.len(),
                edges: stats.edges,
                duplicates: stats.duplicates + merged_dups,
            });

            // Admit in deterministic (claim-key) order. The first state
            // whose claim carries a violated property — or, after the
            // state properties, whose trace-monitor state is violating —
            // is the counterexample for every thread count; the rest of
            // the layer is still admitted, so counts stay
            // thread-count-independent.
            let admitted_start = store.len();
            let mut first_failure: Option<(u32, String)> = None;
            cached_parent = NO_LINK;
            for PendingState {
                key,
                hash,
                repr,
                verdict,
            } in entries
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
                        self.enumerate_actions(&store.load(key.parent), &mut parent_actions);
                    }
                    trace.step(
                        &tstates[key.parent as usize],
                        &parent_actions[key.action as usize],
                    )
                };
                let idx = store.intern_new(hash, repr);
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
            if let Some((idx, property)) = first_failure {
                violation = Some(Violation {
                    path: self.reconstruct_path(&store, &parents, &action_idx, idx as usize),
                    state: store.load(idx).into_owned(),
                    property,
                });
            }
            barrier_nanos += barrier_sw.elapsed_nanos();
            if violation.is_some() {
                break;
            }

            layer_start = admitted_start;
            depth += 1;
        }

        ExploreReport {
            states_visited: store.len(),
            truncation,
            violation,
            quiescent_states: quiescent,
            layers,
            threads,
            arena_bytes: store.approx_bytes(),
            duration: t0.elapsed(),
            barrier_nanos,
        }
    }

    /// One worker's share of a layer expansion: steal frontier chunks,
    /// enumerate each state's actions and successors through the
    /// allocation-free callbacks, dedup a borrowed view of each successor
    /// against the frozen store, claim genuinely new discoveries in the
    /// lock-free layer filter. Only a claim that wins a slot or overflows
    /// takes ownership of the successor and evaluates `properties` on it;
    /// overflowing claims go to the returned list, merged exactly at the
    /// barrier.
    fn expand_worker(
        &self,
        store: &B::Store,
        properties: &[&dyn Property<M::State>],
        layer_end: usize,
        chunk: usize,
        counter: &AtomicUsize,
        filter: &LayerFilter<ReprOf<B, M::State>>,
    ) -> WorkerOutcome<ReprOf<B, M::State>> {
        let mut stats = WorkerStats::default();
        let mut overflow = Vec::new();
        let mut actions: Vec<M::Action> = Vec::new();
        let mut scratch: <B::Store as StateStore<M::State>>::Scratch = Default::default();
        loop {
            let begin = counter.fetch_add(chunk, Ordering::Relaxed);
            if begin >= layer_end {
                break;
            }
            let end = (begin + chunk).min(layer_end);
            for idx in begin..end {
                let state = store.load(idx as u32);
                self.enumerate_actions(&state, &mut actions);
                if actions.is_empty() {
                    stats.quiescent += 1;
                    continue;
                }
                for (ai, action) in actions.iter().enumerate() {
                    let mut si = 0u32;
                    let _ = self
                        .automaton
                        .try_for_each_successor(&state, action, &mut |succ| {
                            stats.edges += 1;
                            let key = ClaimKey {
                                parent: idx as u32,
                                action: ai as u32,
                                succ: si,
                            };
                            si += 1;
                            let (hash, view) = store.view(&succ, &mut scratch);
                            if store.lookup_view(hash, view).is_some() {
                                stats.duplicates += 1;
                                return ControlFlow::Continue(());
                            }
                            match filter.claim(hash, key, view) {
                                Claimed::Duplicate => stats.duplicates += 1,
                                Claimed::New(won) => {
                                    let verdict = first_violation(properties, &succ);
                                    won.publish(store.owned_repr(succ, &scratch), verdict);
                                }
                                Claimed::Overflow => {
                                    let verdict = first_violation(properties, &succ);
                                    overflow.push(PendingState {
                                        key,
                                        hash,
                                        repr: store.owned_repr(succ, &scratch),
                                        verdict,
                                    });
                                }
                            }
                            ControlFlow::Continue(())
                        });
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
        store: &B::Store,
        parents: &[u32],
        action_idx: &[u32],
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

        fn start_states(&self) -> Vec<u8> {
            vec![0]
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
        fn enabled_local(&self, s: &u8) -> Vec<Act> {
            if s.is_multiple_of(2) {
                vec![Act::Tick]
            } else {
                vec![]
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

        fn start_states(&self) -> Vec<u8> {
            vec![0]
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
        fn enabled_local(&self, s: &u8) -> Vec<u8> {
            match s {
                0 => vec![1, 2],
                1 => vec![3],
                2 => vec![4],
                _ => vec![],
            }
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
    fn packed_backend_matches_plain_verdicts_and_counts() {
        let plain = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
            .threads(2)
            .reachable_states();
        for threads in [1, 2, 4] {
            let packed = ParallelExplorer::new(Counter { n: 10 }, bump, 1000, 100)
                .threads(threads)
                .packed()
                .reachable_states();
            assert!(packed.holds() && packed.exhaustive());
            assert_eq!(packed.states_visited, plain.states_visited);
            assert_eq!(packed.quiescent_states, plain.quiescent_states);
            assert_eq!(packed.dedup_hits(), plain.dedup_hits());
            assert_eq!(packed.layers.len(), plain.layers.len());
            for (p, q) in packed.layers.iter().zip(&plain.layers) {
                assert_eq!(
                    (p.frontier, p.discovered, p.edges),
                    (q.frontier, q.discovered, q.edges)
                );
            }
        }
    }

    #[test]
    fn packed_backend_reports_identical_counterexamples() {
        for threads in [1, 2, 4] {
            let e = ParallelExplorer::new(Diamond, |_s: &u8| vec![], 100, 100)
                .threads(threads)
                .packed();
            let report = e.check_invariant(|s| *s != 3);
            let v = report.violation.unwrap();
            assert_eq!(v.path, vec![1, 3]);
            assert_eq!(v.state, 3);
        }
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

        fn start_states(&self) -> Vec<u16> {
            vec![0]
        }
        fn classify(&self, _a: &u8) -> Option<ActionClass> {
            Some(ActionClass::Output)
        }
        fn successors(&self, s: &u16, a: &u8) -> Vec<u16> {
            let next = (u32::from(*s) * 8 + u32::from(*a) + 1) % u32::from(self.n);
            vec![next as u16]
        }
        fn enabled_local(&self, _s: &u16) -> Vec<u8> {
            (0..8).collect()
        }
        fn task_of(&self, _a: &u8) -> TaskId {
            TaskId(0)
        }
        fn task_count(&self) -> usize {
            1
        }
    }

    /// `check_invariant(|s| *s != bad)` on the plain or packed backend,
    /// with `shards` claim-filter segments.
    fn search_for<M, I>(
        automaton: M,
        inputs: I,
        (threads, packed, shards): (usize, bool, usize),
        max_states: usize,
        bad: M::State,
    ) -> ExploreReport<M::Action, M::State>
    where
        M: Automaton + Sync,
        M::State: ioa::intern::PackedCodec + Eq + std::hash::Hash + Send + Sync,
        M::Action: Send + Sync,
        I: Fn(&M::State) -> Vec<M::Action> + Sync,
    {
        let explorer = ParallelExplorer::new(automaton, inputs, max_states, 200)
            .threads(threads)
            .shards(shards);
        let avoid = move |s: &M::State| *s != bad;
        if packed {
            explorer.packed().check_invariant(avoid)
        } else {
            explorer.check_invariant(avoid)
        }
    }

    /// Thread count × backend × claim-filter segments (0: every claim
    /// overflows; 64: the default filter).
    fn claim_paths() -> impl Iterator<Item = (usize, bool, usize)> {
        [1, 2, 4].into_iter().flat_map(|threads| {
            [false, true]
                .into_iter()
                .flat_map(move |packed| [0, 64].map(|shards| (threads, packed, shards)))
        })
    }

    /// Asserts `report` found the same violation (state, path, property)
    /// and the same layers as `reference`.
    fn assert_same_violation<A, S>(
        report: &ExploreReport<A, S>,
        reference: &ExploreReport<A, S>,
        config: (usize, bool, usize),
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
        let (counter_ref, spread_ref) = (counter((1, false, 64)), spread((1, false, 64)));
        assert_eq!(counter_ref.violation.as_ref().map(|v| v.state), Some(57));
        assert_eq!(spread_ref.violation.as_ref().map(|v| v.state), Some(3999));
        assert!(spread_ref.layers.iter().any(|l| l.frontier >= 4 * 4));
        for config in claim_paths() {
            assert_same_violation(&counter(config), &counter_ref, config);
            assert_same_violation(&spread(config), &spread_ref, config);
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
        let roomy = search_for(Counter { n: 100 }, bump, (1, false, 64), 5, 3);
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
            .packed()
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
