//! Environment scripts: the inputs and pacing of a simulation run.

use std::iter::Map;
use std::ops::Range;
use std::sync::Arc;

use dl_core::action::{Dir, DlAction, Msg, Station};

/// One step of an environment script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScriptStep {
    /// Inject an environment input action now.
    Inject(DlAction),
    /// Let the system take up to this many locally-controlled steps
    /// (fewer if it quiesces first).
    Local(usize),
    /// Run locally-controlled steps until the system quiesces (bounded by
    /// the runner's global step limit).
    Settle,
}

impl ScriptStep {
    /// The injections that wake both media, `t → r` first.
    pub const WAKE_BOTH: [ScriptStep; 2] = [
        ScriptStep::Inject(DlAction::Wake(Dir::TR)),
        ScriptStep::Inject(DlAction::Wake(Dir::RT)),
    ];

    /// The injections of `Msg(i)` for every `i` in `msgs`, in order.
    pub fn sends(msgs: Range<u64>) -> Map<Range<u64>, fn(u64) -> ScriptStep> {
        msgs.map(|i| ScriptStep::Inject(DlAction::SendMsg(Msg(i))))
    }

    /// A crash of `station`, then a `wake` of the medium it sends on, which
    /// keeps the trace well-formed.
    #[must_use]
    pub fn crash_and_rewake(station: Station) -> [ScriptStep; 2] {
        [
            ScriptStep::Inject(DlAction::Crash(station)),
            ScriptStep::Inject(DlAction::Wake(station.sends_on())),
        ]
    }
}

/// A whole environment script.
///
/// Scripts are well-formedness-respecting by construction when built with
/// the provided combinators: media are woken before messages are sent, and
/// crashes are followed by fresh `wake`s.
///
/// The steps are shared: a clone copies no steps, so a session holds the
/// same steps as the configuration it was built from. A script collected
/// from an iterator of known length (arrays, ranges, and chains and maps
/// of them, as [`Script::deliver_n`] is built) takes one allocation. Each
/// combinator copies the steps so far into one new allocation, so a long
/// script is better collected than chained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Script {
    steps: Arc<[ScriptStep]>,
}

impl FromIterator<ScriptStep> for Script {
    fn from_iter<I: IntoIterator<Item = ScriptStep>>(steps: I) -> Self {
        Script {
            steps: steps.into_iter().collect(),
        }
    }
}

impl Script {
    /// An empty script.
    #[must_use]
    pub fn new() -> Self {
        Script::default()
    }

    /// The steps, in order.
    #[must_use]
    pub fn steps(&self) -> &[ScriptStep] {
        &self.steps
    }

    /// Appends `more`.
    fn then(self, more: impl IntoIterator<Item = ScriptStep>) -> Self {
        self.steps.iter().cloned().chain(more).collect()
    }

    /// Appends an injection.
    #[must_use]
    pub fn inject(self, a: DlAction) -> Self {
        self.then([ScriptStep::Inject(a)])
    }

    /// Appends a bounded stretch of autonomous execution.
    #[must_use]
    pub fn local(self, n: usize) -> Self {
        self.then([ScriptStep::Local(n)])
    }

    /// Appends a run-to-quiescence stretch.
    #[must_use]
    pub fn settle(self) -> Self {
        self.then([ScriptStep::Settle])
    }

    /// Wakes both media.
    #[must_use]
    pub fn wake_both(self) -> Self {
        self.then(ScriptStep::WAKE_BOTH)
    }

    /// Sends messages `Msg(start) .. Msg(start + n)` back-to-back.
    #[must_use]
    pub fn send_msgs(self, start: u64, n: u64) -> Self {
        self.then(ScriptStep::sends(start..start + n))
    }

    /// Crashes a station and (after the crash) wakes its outgoing medium
    /// again, keeping the trace well-formed.
    #[must_use]
    pub fn crash_and_rewake(self, station: Station) -> Self {
        self.then(ScriptStep::crash_and_rewake(station))
    }

    /// The canonical workload: wake both media, send `n` fresh messages,
    /// run to quiescence. One allocation.
    #[must_use]
    pub fn deliver_n(n: u64) -> Self {
        ScriptStep::WAKE_BOTH
            .into_iter()
            .chain(ScriptStep::sends(0..n))
            .chain([ScriptStep::Settle])
            .collect()
    }

    /// Total injected input actions.
    #[must_use]
    pub fn input_count(&self) -> usize {
        self.steps
            .iter()
            .filter(|s| matches!(s, ScriptStep::Inject(_)))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let s = Script::new()
            .wake_both()
            .send_msgs(0, 2)
            .local(10)
            .crash_and_rewake(Station::T)
            .settle();
        assert_eq!(s.input_count(), 6); // 2 wakes + 2 sends + crash + rewake
        assert_eq!(s.steps().len(), 8);
        assert_eq!(s.steps()[0], ScriptStep::Inject(DlAction::Wake(Dir::TR)));
        assert_eq!(s.steps()[4], ScriptStep::Local(10));
        assert_eq!(
            s.steps()[5],
            ScriptStep::Inject(DlAction::Crash(Station::T))
        );
        assert_eq!(s.steps()[6], ScriptStep::Inject(DlAction::Wake(Dir::TR)));
        assert_eq!(s.steps()[7], ScriptStep::Settle);
    }

    #[test]
    fn deliver_n_shape() {
        let s = Script::deliver_n(3);
        assert_eq!(s.input_count(), 5);
        assert!(matches!(s.steps().last(), Some(ScriptStep::Settle)));
        assert_eq!(s, Script::new().wake_both().send_msgs(0, 3).settle());
    }

    #[test]
    fn clones_share_their_steps() {
        let s = Script::deliver_n(3);
        let t = s.clone();
        assert!(std::ptr::eq(s.steps(), t.steps()));
    }

    #[test]
    fn crash_rewakes_correct_direction() {
        let s = Script::new().crash_and_rewake(Station::R);
        assert_eq!(
            s.steps(),
            &[
                ScriptStep::Inject(DlAction::Crash(Station::R)),
                ScriptStep::Inject(DlAction::Wake(Dir::RT)),
            ]
        );
    }
}
