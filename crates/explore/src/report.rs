//! Exploration results: verdict, counts, per-layer statistics, and
//! engine telemetry.

use std::time::Duration;

use dl_obs::{Histogram, RunLedger, Spans};

/// Why the search stopped before exhausting the reachable state space.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Truncation {
    /// The state budget filled: later discoveries were dropped.
    StateBudget,
    /// The depth budget was reached with a non-empty frontier.
    DepthBudget,
}

/// A property violation with a shortest action path reaching it.
#[derive(Debug, Clone)]
pub struct Violation<A, S> {
    /// A shortest action sequence from a start state to `state`. BFS
    /// guarantees minimal length; the deterministic claim ordering
    /// guarantees the *same* path for every thread count.
    pub path: Vec<A>,
    /// The violating state.
    pub state: S,
    /// Name of the violated [`Property`](crate::Property).
    pub property: String,
}

/// Frontier statistics for one expanded BFS layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LayerStats {
    /// Depth of the expanded frontier (start states are depth 0).
    pub depth: usize,
    /// Number of states in the expanded frontier.
    pub frontier: usize,
    /// Distinct new states admitted from this expansion.
    pub discovered: usize,
    /// Transitions enumerated while expanding this layer.
    pub edges: u64,
    /// Transitions that landed on an already-known state (or improved a
    /// pending claim on one).
    pub duplicates: u64,
}

/// Result of a parallel exploration: the `states_visited` /
/// `quiescent_states` / `violation` verdict, plus truncation cause,
/// per-layer statistics, and engine telemetry.
#[derive(Debug, Clone)]
pub struct ExploreReport<A, S> {
    /// Number of distinct states admitted to the search.
    pub states_visited: usize,
    /// Why the search was cut short, if it was. Absence of a violation is
    /// conclusive only when this is `None`.
    pub truncation: Option<Truncation>,
    /// The deterministic shortest violation, if any property failed.
    pub violation: Option<Violation<A, S>>,
    /// States with no locally-controlled action enabled and no permitted
    /// input (terminal under this exploration).
    pub quiescent_states: usize,
    /// Statistics for each layer that was expanded.
    pub layers: Vec<LayerStats>,
    /// Worker threads the engine actually used.
    pub threads: usize,
    /// Allocated bytes of the state store when the search finished
    /// ([`StateStore::approx_bytes`](crate::StateStore::approx_bytes)):
    /// capacity, not resident pages, so never-touched capacity counts
    /// and the process's resident set can be smaller. It leaves out the
    /// engine's spanning-tree links (8 bytes per state).
    pub arena_bytes: usize,
    /// Encoding bytes admitted to the store, start states included: the
    /// bytes the barrier copied into the arena.
    pub admitted_bytes: u64,
    /// Claim-filter slots allocated, summed over the expanded layers.
    pub filter_slots: u64,
    /// Wall-clock duration of the search.
    pub duration: Duration,
    /// Nanoseconds spent single-threaded between layers — building each
    /// layer's claim filter, draining and merging its claims, admitting
    /// them, reporting a violation, and freeing the filter: the stall
    /// time the worker pool sits out. Always 0 unless the `obs` feature
    /// is enabled.
    pub barrier_nanos: u64,
    /// The barrier's parts on the coordinating thread: `filter` (building
    /// each layer's claim filter), `drain_sort` (draining the filter,
    /// merging overflow claims and sorting) and `admit` (admitting the
    /// layer, reporting a violation and, on a split barrier, building the
    /// next filter and waiting for the index). Empty unless the `obs`
    /// feature is enabled.
    pub barrier_spans: Spans,
}

impl<A, S> ExploreReport<A, S> {
    /// `true` if the search enumerated *every* reachable state (no budget
    /// truncation), so its verdict is conclusive for the full model.
    #[must_use]
    pub fn exhaustive(&self) -> bool {
        self.truncation.is_none()
    }

    /// `true` if no property violation was found among the states the
    /// budget admitted — the weaker, budget-relative safety verdict.
    #[must_use]
    pub fn safe_within_budget(&self) -> bool {
        self.violation.is_none()
    }

    /// `true` if every admitted state satisfied every property **and**
    /// the search was exhaustive.
    #[must_use]
    pub fn holds(&self) -> bool {
        self.safe_within_budget() && self.exhaustive()
    }

    /// Total transitions enumerated across all layers.
    #[must_use]
    pub fn edges_expanded(&self) -> u64 {
        self.layers.iter().map(|l| l.edges).sum()
    }

    /// Depth of the deepest expanded frontier.
    #[must_use]
    pub fn max_depth_reached(&self) -> usize {
        self.layers.last().map_or(0, |l| l.depth)
    }

    /// The state graph's diameter from the start set, when the search
    /// was [`exhaustive`](Self::exhaustive): synonym of
    /// [`max_depth_reached`](Self::max_depth_reached) under the name the
    /// cross-formalism differential (`dl-crosscheck`) compares.
    #[must_use]
    pub fn diameter(&self) -> usize {
        self.max_depth_reached()
    }

    /// Distinct states first discovered at the given depth: the layer's
    /// `discovered` count, or 0 for depths the search never expanded.
    #[must_use]
    pub fn layer_discovered(&self, depth: usize) -> usize {
        self.layers
            .iter()
            .find(|l| l.depth == depth)
            .map_or(0, |l| l.discovered)
    }

    /// Total transitions that deduplicated against an already-known state
    /// across all layers — the work the interned visited index absorbed
    /// without storing a second state copy.
    #[must_use]
    pub fn dedup_hits(&self) -> u64 {
        self.layers.iter().map(|l| l.duplicates).sum()
    }

    /// Serializes the run into a [`RunLedger`] under the `explore` engine.
    ///
    /// Counters (`states`, `edges`, `dedup_hits`, `admitted_bytes`,
    /// `filter_slots`, …) are pure functions of the model and budgets
    /// (`threads` aside, independent of the thread count) — the ledger
    /// round-trip tests compare them exactly across re-runs. Gauges
    /// (`states_per_sec`, `duration_micros`) and the `barrier` span and
    /// its `barrier_*` parts are wall-clock-derived and feed the
    /// regression gate only.
    #[must_use]
    pub fn to_ledger(&self, run_id: &str) -> RunLedger {
        let mut ledger = RunLedger::new("explore", run_id);
        ledger.counter("states", self.states_visited as u64);
        ledger.counter("quiescent_states", self.quiescent_states as u64);
        ledger.counter("edges", self.edges_expanded());
        ledger.counter("dedup_hits", self.dedup_hits());
        ledger.counter("layers", self.layers.len() as u64);
        ledger.counter("max_depth", self.max_depth_reached() as u64);
        ledger.counter("threads", self.threads as u64);
        ledger.counter("truncated", u64::from(self.truncation.is_some()));
        ledger.counter("violation", u64::from(self.violation.is_some()));
        ledger.counter(
            "violation_path_len",
            self.violation.as_ref().map_or(0, |v| v.path.len() as u64),
        );
        ledger.counter("arena_bytes", self.arena_bytes as u64);
        ledger.counter("admitted_bytes", self.admitted_bytes);
        ledger.counter("filter_slots", self.filter_slots);

        let secs = self.duration.as_secs_f64().max(1e-9);
        ledger.gauge("states_per_sec", self.states_visited as f64 / secs);
        ledger.gauge("edges_per_sec", self.edges_expanded() as f64 / secs);
        ledger.gauge("duration_micros", self.duration.as_secs_f64() * 1e6);

        let mut frontier = Histogram::new();
        let mut discovered = Histogram::new();
        for layer in &self.layers {
            frontier.record(layer.frontier as u64);
            discovered.record(layer.discovered as u64);
        }
        ledger.histogram("frontier_states", &frontier);
        ledger.histogram("layer_discovered", &discovered);

        ledger.span("barrier", self.barrier_nanos);
        for (part, nanos) in self.barrier_spans.totals() {
            ledger.span(&format!("barrier_{part}"), nanos);
        }
        ledger
    }
}
