//! Action classification (paper §2.1).
//!
//! An *action signature* partitions a set of actions into pairwise-disjoint
//! input, output, and internal sets. Because our automata work over a shared
//! concrete action universe (an `enum` in practice), an automaton's
//! signature is its classification function,
//! [`Automaton::classify`](crate::Automaton::classify): each action of the
//! universe is either not in the signature at all (`classify` returns
//! `None`) or belongs to exactly one [`ActionClass`].

use std::fmt;

/// The class of an action within a signature: input, output, or internal.
///
/// External actions are the inputs and outputs; locally-controlled actions
/// are the outputs and internals (paper §2.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ActionClass {
    /// Action controlled by the environment; enabled in every state.
    Input,
    /// Locally-controlled action visible to the environment.
    Output,
    /// Locally-controlled action invisible to the environment.
    Internal,
}

impl ActionClass {
    /// Returns `true` for [`ActionClass::Input`] and [`ActionClass::Output`].
    #[must_use]
    pub fn is_external(self) -> bool {
        matches!(self, ActionClass::Input | ActionClass::Output)
    }

    /// Returns `true` for [`ActionClass::Output`] and
    /// [`ActionClass::Internal`] — the locally-controlled actions.
    #[must_use]
    pub fn is_locally_controlled(self) -> bool {
        matches!(self, ActionClass::Output | ActionClass::Internal)
    }

    /// The class's canonical lowercase name, as rendered by `Display`.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ActionClass::Input => "input",
            ActionClass::Output => "output",
            ActionClass::Internal => "internal",
        }
    }
}

impl fmt::Display for ActionClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn class_predicates() {
        assert!(ActionClass::Input.is_external());
        assert!(ActionClass::Output.is_external());
        assert!(!ActionClass::Internal.is_external());
        assert!(!ActionClass::Input.is_locally_controlled());
        assert!(ActionClass::Output.is_locally_controlled());
        assert!(ActionClass::Internal.is_locally_controlled());
    }

    #[test]
    fn class_display() {
        assert_eq!(ActionClass::Input.to_string(), "input");
        assert_eq!(ActionClass::Output.to_string(), "output");
        assert_eq!(ActionClass::Internal.to_string(), "internal");
    }
}
