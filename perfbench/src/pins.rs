//! Pinned reference outputs and the checks that feed `failed`.
//!
//! * `explore-deep` has no seed: its state space is fixed, so one set of
//!   counts is pinned.
//! * `fleet-mixed` pins, per workload seed and cycle, each kind's
//!   violation, quiescent, converged and step-bound tallies plus an
//!   order-independent fold of every session's schedule digest.
//! * `fuzz-hunt` pins, per workload seed and cycle, each target's number
//!   of counterexamples plus an order-independent fold of every
//!   campaign's `(target, seed, property found, found_at_exec)`.
//!
//! Pins exist for the default seed and one held-out seed, for the first
//! cycles a run reaches (the tables in `pinned.rs`, written by `perfbench
//! --print-pins`). Every seed and cycle is also checked against what holds
//! for all of them: the crash-tolerant non-volatile sessions never
//! violate or stall, every stabilizing session quiesces and converges,
//! the bug-free fuzz targets find nothing, and every counterexample
//! replays.
//!
//! A fleet session that spends its whole step budget is a judged outcome,
//! not a failure: after a station crash the go-back-N, selective-repeat
//! and Stenning sessions can livelock (the regime of Theorem 7.5), so
//! about 1 % of a cycle's sessions stop at the bound. Their per-kind
//! count is part of the pin.

use crate::pinned;
use crate::report::mix;

/// The default workload seed.
pub const DEFAULT_SEED: u64 = 0;
/// The held-out workload seed, never used while tuning the benchmark.
pub const HELD_OUT_SEED: u64 = 7919;
/// Cycles pinned per seed: what a 20-second run reaches, with room.
pub const FLEET_CYCLES: u64 = 10;
pub const FUZZ_CYCLES: u64 = 6;

/// Fuzz targets with no reachable violation under the campaign budget.
pub const BUG_FREE: [&str; 2] = ["nonvolatile", "stabilizing"];

/// What an exploration reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExploreCounts {
    pub safe: bool,
    pub truncated: bool,
    pub states: u64,
    pub edges: u64,
    pub depth: u64,
    pub layers: u64,
}

pub const EXPLORE: ExploreCounts = ExploreCounts {
    safe: true,
    truncated: false,
    states: 1_172_809,
    edges: 8_062_771,
    depth: 123,
    layers: 124,
};

pub fn check_explore(c: &ExploreCounts) -> Result<(), String> {
    if *c == EXPLORE {
        Ok(())
    } else {
        Err(format!("exploration {c:?} misses the pin {EXPLORE:?}"))
    }
}

/// One fleet cycle's tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FleetTally {
    /// Per kind (in `ProtocolKind::ALL` order): violations, quiescent
    /// sessions, converged sessions, sessions stopped by the step bound.
    pub kinds: [[u64; 4]; 10],
    /// Wrapping sum of `mix(mix(fleet seed, id), digest)` over sessions.
    pub fold: u64,
    pub actions: u64,
}

pub struct FleetPin {
    pub seed: u64,
    pub cycle: u64,
    pub tally: FleetTally,
}

pub fn check_fleet(seed: u64, cycle: u64, t: &FleetTally) -> Result<(), String> {
    check_fleet_against(pinned::FLEET, seed, cycle, t)
}

fn check_fleet_against(
    pins: &[FleetPin],
    seed: u64,
    cycle: u64,
    t: &FleetTally,
) -> Result<(), String> {
    let per_kind = crate::fleet::FLEETS * crate::fleet::SESSIONS / 10;
    let [nonvolatile, stabilizing] = [t.kinds[7], t.kinds[9]];
    if nonvolatile[0] != 0 || nonvolatile[3] != 0 {
        return Err(format!(
            "fleet seed {seed} cycle {cycle}: nonvolatile sessions {nonvolatile:?}"
        ));
    }
    if stabilizing[1] != per_kind || stabilizing[2] != per_kind {
        return Err(format!(
            "fleet seed {seed} cycle {cycle}: stabilizing sessions {stabilizing:?}"
        ));
    }
    match pins.iter().find(|p| p.seed == seed && p.cycle == cycle) {
        Some(p) if p.tally != *t => Err(format!(
            "fleet seed {seed} cycle {cycle}: tally {t:?} misses the pin {:?}",
            p.tally
        )),
        _ => Ok(()),
    }
}

/// A campaign's counterexample: the property and the execution that
/// first hit it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Found {
    pub property: &'static str,
    pub at_exec: u64,
}

/// One fuzz cycle's tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FuzzTally {
    /// Counterexamples per target, in `all_targets()` order.
    pub found: [u64; 10],
    /// Wrapping sum over campaigns of a hash of `(target, campaign seed,
    /// property, found_at_exec)`.
    pub fold: u64,
}

impl FuzzTally {
    pub fn add(&mut self, target: usize, campaign_seed: u64, found: Option<Found>) {
        let result = found.map_or(0, |f| {
            let property = f.property.bytes().fold(0xcbf2_9ce4_8422_2325_u64, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3)
            });
            mix(property, f.at_exec)
        });
        self.found[target] += u64::from(found.is_some());
        self.fold = self
            .fold
            .wrapping_add(mix(mix(target as u64, campaign_seed), result));
    }
}

pub struct FuzzPin {
    pub seed: u64,
    pub cycle: u64,
    pub tally: FuzzTally,
}

/// The seed-independent expectation of one campaign.
pub fn check_campaign(
    target: &str,
    campaign_seed: u64,
    found: Option<Found>,
) -> Result<(), String> {
    if BUG_FREE.contains(&target) && found.is_some() {
        return Err(format!(
            "{target} seed {campaign_seed}: bug-free target produced {found:?}"
        ));
    }
    Ok(())
}

pub fn check_fuzz(seed: u64, cycle: u64, t: &FuzzTally) -> Result<(), String> {
    check_fuzz_against(pinned::FUZZ, seed, cycle, t)
}

fn check_fuzz_against(
    pins: &[FuzzPin],
    seed: u64,
    cycle: u64,
    t: &FuzzTally,
) -> Result<(), String> {
    match pins.iter().find(|p| p.seed == seed && p.cycle == cycle) {
        Some(p) if p.tally != *t => Err(format!(
            "fuzz seed {seed} cycle {cycle}: tally {t:?} misses the pin {:?}",
            p.tally
        )),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupted_explore_pin_fails_the_check() {
        assert!(check_explore(&EXPLORE).is_ok());
        let off_by_one = ExploreCounts {
            edges: EXPLORE.edges + 1,
            ..EXPLORE
        };
        assert!(check_explore(&off_by_one).is_err());
    }

    #[test]
    fn a_corrupted_fleet_pin_fails_the_check() {
        let pin = pinned::FLEET
            .iter()
            .find(|p| p.seed == DEFAULT_SEED && p.cycle == 0)
            .expect("the default seed is pinned");
        assert!(check_fleet(DEFAULT_SEED, 0, &pin.tally).is_ok());
        let mut tally = pin.tally;
        tally.kinds[0][0] += 1;
        let corrupted = [FleetPin {
            seed: DEFAULT_SEED,
            cycle: 0,
            tally,
        }];
        assert!(check_fleet_against(&corrupted, DEFAULT_SEED, 0, &pin.tally).is_err());
    }

    /// Runs one real campaign, pins it, and shows the check rejects the
    /// same campaign against a pin whose `found_at_exec` is off by one.
    #[test]
    fn a_corrupted_fuzz_pin_fails_the_check() {
        let target = dl_fuzz::target("abp").unwrap();
        let report = dl_fuzz::fuzz(target, &crate::fuzz::config(1));
        let found = report.counterexamples.first().map(|c| Found {
            property: c.violation.property,
            at_exec: c.found_at_exec,
        });
        let found = found.expect("abp yields a counterexample at seed 1");
        let mut observed = FuzzTally::default();
        observed.add(0, 1, Some(found));
        let pins = [FuzzPin {
            seed: 9,
            cycle: 0,
            tally: observed,
        }];
        assert!(check_fuzz_against(&pins, 9, 0, &observed).is_ok());

        let mut shifted = FuzzTally::default();
        shifted.add(
            0,
            1,
            Some(Found {
                at_exec: found.at_exec + 1,
                ..found
            }),
        );
        let corrupted = [FuzzPin {
            seed: 9,
            cycle: 0,
            tally: shifted,
        }];
        assert!(check_fuzz_against(&corrupted, 9, 0, &observed).is_err());
    }

    #[test]
    fn bug_free_targets_must_find_nothing() {
        let found = Some(Found {
            property: "DL4",
            at_exec: 1,
        });
        assert!(check_campaign("nonvolatile", 1, found).is_err());
        assert!(check_campaign("abp", 1, found).is_ok());
    }
}
