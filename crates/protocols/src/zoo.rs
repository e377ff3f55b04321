//! The zoo registry: the ten members every engine runs, listed once.
//!
//! [`Zoo`] names each member and gives it a stable name (`"abp"`,
//! `"go-back-2"`, …) that fleet specs, fuzz targets and ledgers share.
//! [`with_zoo_member!`](crate::with_zoo_member) turns a member into its
//! protocol: it binds a classic member's `DataLinkProtocol`, one
//! monomorphized arm per member, and hands [`Zoo::Stabilizing`] back to
//! the caller, because every engine builds that member from a corruption
//! spec over `CorruptChannel`s rather than from
//! [`stabilizing::protocol`](crate::stabilizing::protocol).

/// One member of the protocol zoo.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Zoo {
    /// Alternating bit protocol.
    Abp,
    /// Go-back-N sliding window, window 2.
    GoBack2,
    /// Go-back-N sliding window, window 8.
    GoBack8,
    /// Selective repeat, window 4.
    SelectiveRepeat4,
    /// Two packets per message.
    Fragmenting,
    /// Packet count depends on message parity.
    Parity,
    /// Stenning's protocol (unbounded headers, reorder-tolerant).
    Stenning,
    /// Epoch protocol with non-volatile memory (crash-tolerant).
    Nonvolatile,
    /// The deliberately message-dependent negative control.
    Quirky,
    /// The self-stabilizing repetition/counting protocol over bounded
    /// non-FIFO channels, after Dolev, Dubois, Potop-Butucaru and Tixeuil
    /// (arXiv 1011.3632); engines start it from a possibly corrupted
    /// configuration and judge it in suffix mode.
    Stabilizing,
}

impl Zoo {
    /// Every member, in registry order.
    pub const ALL: [Zoo; 10] = [
        Zoo::Abp,
        Zoo::GoBack2,
        Zoo::GoBack8,
        Zoo::SelectiveRepeat4,
        Zoo::Fragmenting,
        Zoo::Parity,
        Zoo::Stenning,
        Zoo::Nonvolatile,
        Zoo::Quirky,
        Zoo::Stabilizing,
    ];

    /// The classic from-a-clean-start members: every member but
    /// [`Zoo::Stabilizing`], in registry order. This is the default fleet
    /// mix, and keeping it frozen keeps the pinned default-fleet ledgers
    /// byte-identical as the zoo grows.
    pub const CLASSIC: [Zoo; 9] = [
        Zoo::Abp,
        Zoo::GoBack2,
        Zoo::GoBack8,
        Zoo::SelectiveRepeat4,
        Zoo::Fragmenting,
        Zoo::Parity,
        Zoo::Stenning,
        Zoo::Nonvolatile,
        Zoo::Quirky,
    ];

    /// The stable name: the fleet's `--protocols` spelling and the
    /// `dl-fuzz` target name.
    #[must_use]
    pub const fn name(self) -> &'static str {
        match self {
            Zoo::Abp => "abp",
            Zoo::GoBack2 => "go-back-2",
            Zoo::GoBack8 => "go-back-8",
            Zoo::SelectiveRepeat4 => "selective-repeat-4",
            Zoo::Fragmenting => "fragmenting",
            Zoo::Parity => "parity",
            Zoo::Stenning => "stenning",
            Zoo::Nonvolatile => "nonvolatile",
            Zoo::Quirky => "quirky",
            Zoo::Stabilizing => "stabilizing",
        }
    }

    /// Looks a member up by its stable name.
    #[must_use]
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|m| m.name() == name)
    }
}

/// Evaluates a body for one zoo member, monomorphized per member.
///
/// `with_zoo_member!(member, p => classic, stabilizing => stab)` runs
/// `classic` with `p` bound to the member's
/// [`DataLinkProtocol`](dl_core::protocol::DataLinkProtocol) for each of
/// the nine classic members (one match arm each, so `classic` is
/// compiled once per station pair), and `stab` for
/// [`Zoo::Stabilizing`](crate::Zoo::Stabilizing).
#[macro_export]
macro_rules! with_zoo_member {
    ($member:expr, $p:ident => $classic:expr, stabilizing => $stabilizing:expr $(,)?) => {
        match $member {
            $crate::Zoo::Abp => {
                let $p = $crate::abp::protocol();
                $classic
            }
            $crate::Zoo::GoBack2 => {
                let $p = $crate::sliding_window::protocol(2);
                $classic
            }
            $crate::Zoo::GoBack8 => {
                let $p = $crate::sliding_window::protocol(8);
                $classic
            }
            $crate::Zoo::SelectiveRepeat4 => {
                let $p = $crate::selective_repeat::protocol(4);
                $classic
            }
            $crate::Zoo::Fragmenting => {
                let $p = $crate::fragmenting::protocol();
                $classic
            }
            $crate::Zoo::Parity => {
                let $p = $crate::parity::protocol();
                $classic
            }
            $crate::Zoo::Stenning => {
                let $p = $crate::stenning::protocol();
                $classic
            }
            $crate::Zoo::Nonvolatile => {
                let $p = $crate::nonvolatile::protocol();
                $classic
            }
            $crate::Zoo::Quirky => {
                let $p = $crate::quirky::protocol();
                $classic
            }
            $crate::Zoo::Stabilizing => $stabilizing,
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for member in Zoo::ALL {
            assert_eq!(Zoo::from_name(member.name()), Some(member));
        }
        assert_eq!(Zoo::from_name("no-such"), None);
    }

    #[test]
    fn classic_is_every_member_but_stabilizing() {
        let rest: Vec<Zoo> = Zoo::ALL
            .into_iter()
            .filter(|&m| m != Zoo::Stabilizing)
            .collect();
        assert_eq!(rest, Zoo::CLASSIC);
    }

    /// Each member's stable name against the protocol the dispatch macro
    /// builds for it: the name it declares and its header bound (go-back-2
    /// and go-back-8 share a name and differ only in their bound, 6 vs 18).
    #[test]
    fn each_member_builds_its_own_protocol() {
        for member in Zoo::ALL {
            let info = with_zoo_member!(
                member,
                p => p.info,
                stabilizing => crate::stabilizing::protocol().info,
            );
            let want = match member.name() {
                "abp" => ("alternating-bit", Some(4)),
                "go-back-2" => ("sliding-window", Some(6)),
                "go-back-8" => ("sliding-window", Some(18)),
                "selective-repeat-4" => ("selective-repeat", Some(16)),
                "fragmenting" => ("fragmenting", Some(6)),
                "parity" => ("parity-class-dependent", Some(8)),
                "stenning" => ("stenning", None),
                "nonvolatile" => ("nonvolatile-epoch", None),
                "quirky" => ("quirky-message-dependent", None),
                "stabilizing" => ("stabilizing", None),
                other => panic!("no expectation for {other}"),
            };
            assert_eq!((info.name, info.header_bound), want, "{}", member.name());
        }
    }
}
