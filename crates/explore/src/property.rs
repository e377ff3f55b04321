//! Pluggable safety properties checked during search.

/// A named state predicate checked on every state the explorer admits.
///
/// [`holds`](Property::holds) runs on worker threads, on *candidate*
/// states: the worker that first claims a state in a layer evaluates it
/// and the claim carries the verdict to the layer barrier. It may run
/// more than once on the same state (several workers can claim it) and
/// on states the state budget later drops, so it must be a pure function
/// of the state — no side effects, no counting. Implementations must be
/// [`Sync`]: all workers share them.
///
/// Temporal/trace properties can be expressed two ways: by composing an
/// observer automaton into the explored system (as
/// `dl-core`'s WDL-safety observer does) and checking the observer's
/// projected state here — exhaustive but state-space-expanding — or by
/// threading a [`TraceProperty`] along the BFS spanning tree, which adds
/// no states but sees only one path per state (see that trait's docs).
pub trait Property<S>: Sync {
    /// Human-readable name, used in violation reports.
    fn name(&self) -> &str;

    /// `true` if `state` satisfies the property. Must be pure (see the
    /// trait docs).
    fn holds(&self, state: &S) -> bool;
}

/// A [`Property`] built from a plain predicate closure.
pub struct Invariant<F> {
    name: String,
    predicate: F,
}

impl<F> Invariant<F> {
    /// Names `predicate` for violation reporting.
    pub fn new(name: impl Into<String>, predicate: F) -> Self {
        Invariant {
            name: name.into(),
            predicate,
        }
    }
}

impl<S, F> Property<S> for Invariant<F>
where
    F: Fn(&S) -> bool + Sync,
{
    fn name(&self) -> &str {
        &self.name
    }

    fn holds(&self, state: &S) -> bool {
        (self.predicate)(state)
    }
}

/// A property of the *action path*, not the state, threaded along the
/// BFS spanning tree.
///
/// The engine keeps one `Self::State` per admitted automaton state,
/// obtained by [`step`](TraceProperty::step)ping the parent's value with
/// the admitting action, and reports the first state (in deterministic
/// admission order) where [`violation`](TraceProperty::violation) fires.
/// Because the admitting path is itself a real execution, every reported
/// violation is genuine — and the counterexample path replays it.
///
/// **Sound for violations, incomplete for proofs.** State deduplication
/// keeps only the minimal-claim path to each automaton state, so a trace
/// violation reachable *only* along a path the dedup discarded can be
/// missed. Use an observer automaton composed into the system when the
/// absence of trace violations must be conclusive; use this when a
/// linear-time online monitor (e.g. [`MonitorProperty`](crate::MonitorProperty))
/// should scan the search without enlarging the explored state space.
pub trait TraceProperty<A>: Sync {
    /// Per-path monitor state carried along the spanning tree.
    type State: Clone + Send + Sync;

    /// Human-readable name, used in violation reports.
    fn name(&self) -> &str;

    /// Monitor state for an (empty-trace) start state.
    fn start(&self) -> Self::State;

    /// Monitor state after `action` extends the path that led to `state`.
    fn step(&self, state: &Self::State, action: &A) -> Self::State;

    /// `Some(description)` if the path summarized by `state` violates the
    /// property.
    fn violation(&self, state: &Self::State) -> Option<String>;

    /// `true` if this property can never report a violation **and** its
    /// monitor state is meaningless, so the engine may skip resolving
    /// action labels and stepping entirely. Only the null property `()`
    /// should override this.
    fn is_vacuous(&self) -> bool {
        false
    }
}

/// The null trace property: never violated, zero-sized state. Lets the
/// plain property-checking entry points share the traced engine.
impl<A> TraceProperty<A> for () {
    type State = ();

    fn name(&self) -> &str {
        "()"
    }

    fn start(&self) -> Self::State {}

    fn step(&self, _state: &Self::State, _action: &A) -> Self::State {}

    fn violation(&self, _state: &Self::State) -> Option<String> {
        None
    }

    fn is_vacuous(&self) -> bool {
        true
    }
}
