//! Genomes: the fuzzer's heritable run descriptions.
//!
//! A [`Genome`] is a `(seed, gene sequence)` pair from which a complete
//! run derives deterministically: the genes decode into an environment
//! [`Script`], per-direction [`FaultSpec`] channel knobs, and scheduler
//! decision overrides (a [`Plan`]); the seed drives every remaining
//! executor choice. Running the same genome twice reproduces the same
//! execution byte-for-byte, which is what makes corpus entries shareable
//! and counterexamples replayable.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{RngCore, RngExt};

use dl_channels::FaultSpec;
use dl_core::action::{Dir, DlAction, Station};
use dl_sim::{Script, ScriptStep};

/// One heritable unit of a fuzzed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gene {
    /// Hand one fresh message to the transmitter. Message values are
    /// assigned sequentially at decode time, so generated traces never
    /// send duplicate values (which would make DL3 vacuous and suppress
    /// every data-link verdict).
    Send,
    /// Let the system take up to this many autonomous steps.
    Steps(u16),
    /// Run autonomously to quiescence (bounded by the executor's global
    /// step limit).
    Settle,
    /// Crash a station, then re-wake its outgoing medium (well-formed by
    /// construction, like `Script::crash_and_rewake`).
    Crash(Station),
    /// Fail and immediately re-wake a medium direction — a link outage
    /// with no intervening sends, keeping DL2 out of play.
    Flap(Dir),
    /// Replace the `t → r` channel's fault knobs.
    FaultsTr(FaultSpec),
    /// Replace the `r → t` channel's fault knobs.
    FaultsRt(FaultSpec),
    /// Override executor decision `index` to pick alternative
    /// `value % arity` (see `dl_sim::Runner::with_decision_overrides`).
    Sched {
        /// Decision index within the run, counted from 0.
        index: u32,
        /// Forced pick, reduced modulo the decision's arity.
        value: u32,
    },
    /// Corrupt the initial configuration (stations *and* channels). The
    /// last corruption gene wins. Every target decodes it — the classic
    /// nine map it through their `corrupted_start` counter skews and
    /// ghost-packet preloads, the stabilizing target through its corrupt
    /// channels. Only generated when a target opts in by default (see
    /// `Target::corrupting`) or the campaign opts the classic targets in
    /// (`FuzzConfig::corrupt_starts`), so the classic random streams
    /// stay byte-identical.
    Corrupt(Corruption),
}

/// A decoded corrupted initial configuration: small station counters and
/// per-direction ghost populations, everything derived deterministically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct Corruption {
    /// Transmitter's initial sequence counter.
    pub tx_seq: u8,
    /// Receiver's initial expectation counter.
    pub rx_expected: u8,
    /// Ghost packets pre-loaded into the `t → r` channel.
    pub ghosts_tr: u8,
    /// Ghost packets pre-loaded into the `r → t` channel.
    pub ghosts_rt: u8,
    /// Seed for ghost derivation and channel loss decisions.
    pub seed: u64,
}

/// A complete heritable run description.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Genome {
    /// Seed for every executor decision not overridden by a
    /// [`Gene::Sched`] gene.
    pub seed: u64,
    /// The gene sequence, decoded front to back.
    pub genes: Vec<Gene>,
}

/// The decoded, directly runnable form of a genome.
#[derive(Debug, Clone)]
pub struct Plan {
    /// Environment script: `wake_both`, the decoded genes, a trailing
    /// `settle`.
    pub script: Script,
    /// Channel fault knobs, `(t→r, r→t)`; the last fault gene per
    /// direction wins.
    pub faults: [FaultSpec; 2],
    /// Decision overrides collected from [`Gene::Sched`] genes.
    pub overrides: BTreeMap<u64, u64>,
    /// How many distinct messages the script sends.
    pub messages: u64,
    /// Corrupted initial configuration, if any [`Gene::Corrupt`] gene is
    /// present (the last wins). `None` means a clean start.
    pub corruption: Option<Corruption>,
}

impl Genome {
    /// Decodes the genes into a runnable [`Plan`].
    #[must_use]
    pub fn decode(&self) -> Plan {
        // A gene adds at most two steps, so the buffer never grows.
        let mut steps = Vec::with_capacity(2 * self.genes.len() + 3);
        steps.extend(ScriptStep::WAKE_BOTH);
        let mut faults = [FaultSpec::none(), FaultSpec::none()];
        let mut overrides = BTreeMap::new();
        let mut messages = 0u64;
        let mut corruption = None;
        for gene in &self.genes {
            match gene {
                Gene::Send => {
                    steps.extend(ScriptStep::sends(messages..messages + 1));
                    messages += 1;
                }
                Gene::Steps(n) => steps.push(ScriptStep::Local((*n).max(1) as usize)),
                Gene::Settle => steps.push(ScriptStep::Settle),
                Gene::Crash(station) => steps.extend(ScriptStep::crash_and_rewake(*station)),
                Gene::Flap(dir) => steps.extend([
                    ScriptStep::Inject(DlAction::Fail(*dir)),
                    ScriptStep::Inject(DlAction::Wake(*dir)),
                ]),
                Gene::FaultsTr(spec) => faults[0] = *spec,
                Gene::FaultsRt(spec) => faults[1] = *spec,
                Gene::Sched { index, value } => {
                    overrides.insert(u64::from(*index), u64::from(*value));
                }
                Gene::Corrupt(c) => corruption = Some(*c),
            }
        }
        steps.push(ScriptStep::Settle);
        Plan {
            script: steps.into_iter().collect(),
            faults,
            overrides,
            messages,
            corruption,
        }
    }

    /// A fresh random genome with `1..=max_genes` genes. With `corrupt`,
    /// corrupted-initial-configuration genes join the pool; without it the
    /// gene distribution (and thus the random stream) is exactly the
    /// classic one.
    #[must_use]
    pub fn random(rng: &mut StdRng, max_genes: usize, corrupt: bool) -> Genome {
        let len = rng.random_range(1..max_genes.max(2));
        let mut genes = Vec::with_capacity(len);
        for _ in 0..len {
            genes.push(random_gene(rng, corrupt));
        }
        Genome {
            seed: rng.next_u64(),
            genes,
        }
    }

    /// One mutation step: insert, remove, duplicate, or replace a gene,
    /// tweak a numeric field, or reseed. The result is a new genome; the
    /// parent is untouched. `corrupt` as in [`Genome::random`].
    #[must_use]
    pub fn mutate(&self, rng: &mut StdRng, max_genes: usize, corrupt: bool) -> Genome {
        let mut child = self.clone();
        match rng.random_range(0u32..6) {
            0 if child.genes.len() < max_genes => {
                let at = rng.random_range(0..child.genes.len() + 1);
                child.genes.insert(at, random_gene(rng, corrupt));
            }
            1 if child.genes.len() > 1 => {
                let at = rng.random_range(0..child.genes.len());
                child.genes.remove(at);
            }
            2 if child.genes.len() < max_genes && !child.genes.is_empty() => {
                let at = rng.random_range(0..child.genes.len());
                let g = child.genes[at];
                child.genes.insert(at, g);
            }
            3 if !child.genes.is_empty() => {
                let at = rng.random_range(0..child.genes.len());
                child.genes[at] = random_gene(rng, corrupt);
            }
            4 => child.seed = rng.next_u64(),
            _ => {
                if child.genes.len() < max_genes {
                    child.genes.push(random_gene(rng, corrupt));
                } else {
                    child.seed = rng.next_u64();
                }
            }
        }
        child
    }
}

fn random_spec(rng: &mut StdRng) -> FaultSpec {
    FaultSpec {
        loss: rng.random_range(0u8..96),
        dup: rng.random_range(0u8..96),
        reorder: rng.random_range(0u8..4),
        burst_good: rng.random_range(0u16..6),
        burst_bad: rng.random_range(0u16..4),
        salt: rng.next_u64(),
    }
}

fn random_corruption(rng: &mut StdRng) -> Corruption {
    Corruption {
        tx_seq: rng.random_range(0u8..8),
        rx_expected: rng.random_range(0u8..8),
        ghosts_tr: rng.random_range(0u8..4),
        ghosts_rt: rng.random_range(0u8..4),
        seed: rng.next_u64(),
    }
}

fn random_gene(rng: &mut StdRng, corrupt: bool) -> Gene {
    // `corrupt = false` must draw exactly the classic `0..16` stream so
    // existing seeds keep reproducing byte-identical campaigns.
    let roll = if corrupt {
        rng.random_range(0u32..20)
    } else {
        rng.random_range(0u32..16)
    };
    match roll {
        0..=3 => Gene::Send,
        4..=6 => Gene::Steps(rng.random_range(1u16..48)),
        7 => Gene::Settle,
        8 => Gene::Crash(Station::T),
        9 => Gene::Crash(Station::R),
        10 => Gene::Flap(if rng.random_bool() { Dir::TR } else { Dir::RT }),
        11 => Gene::FaultsTr(random_spec(rng)),
        12 => Gene::FaultsRt(random_spec(rng)),
        13..=15 => Gene::Sched {
            index: rng.random_range(0u32..512),
            value: rng.random_range(0u32..8),
        },
        _ => Gene::Corrupt(random_corruption(rng)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn decode_assigns_unique_message_values() {
        let g = Genome {
            seed: 0,
            genes: vec![Gene::Send, Gene::Settle, Gene::Send, Gene::Send],
        };
        let plan = g.decode();
        assert_eq!(plan.messages, 3);
        let sends: Vec<_> = plan
            .script
            .steps()
            .iter()
            .filter_map(|s| match s {
                ScriptStep::Inject(DlAction::SendMsg(m)) => Some(*m),
                _ => None,
            })
            .collect();
        assert_eq!(sends.len(), 3);
        let mut dedup = sends.clone();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "message values must be distinct");
    }

    #[test]
    fn decode_collects_faults_and_overrides() {
        let spec = FaultSpec {
            loss: 10,
            ..FaultSpec::none()
        };
        let g = Genome {
            seed: 1,
            genes: vec![
                Gene::FaultsRt(spec),
                Gene::Sched { index: 3, value: 1 },
                Gene::Sched { index: 3, value: 2 },
                Gene::Crash(Station::R),
            ],
        };
        let plan = g.decode();
        assert_eq!(plan.faults[0], FaultSpec::none());
        assert_eq!(plan.faults[1], spec);
        // Later Sched genes for the same index win.
        assert_eq!(plan.overrides, BTreeMap::from([(3, 2)]));
        // Script ends with the implicit settle.
        assert!(matches!(
            plan.script.steps().last(),
            Some(ScriptStep::Settle)
        ));
    }

    #[test]
    fn random_and_mutate_are_deterministic() {
        let mut a = StdRng::seed_from_u64(5);
        let mut b = StdRng::seed_from_u64(5);
        let ga = Genome::random(&mut a, 16, false);
        let gb = Genome::random(&mut b, 16, false);
        assert_eq!(ga, gb);
        assert_eq!(ga.mutate(&mut a, 16, false), gb.mutate(&mut b, 16, false));
    }

    #[test]
    fn mutation_respects_max_genes() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut g = Genome::random(&mut rng, 8, false);
        for _ in 0..200 {
            g = g.mutate(&mut rng, 8, false);
            assert!(!g.genes.is_empty());
            assert!(g.genes.len() <= 8);
        }
    }

    #[test]
    fn classic_generation_never_emits_corruption_genes() {
        let mut rng = StdRng::seed_from_u64(42);
        for _ in 0..200 {
            let g = Genome::random(&mut rng, 24, false);
            assert!(
                !g.genes.iter().any(|g| matches!(g, Gene::Corrupt(_))),
                "corruption genes must be opt-in"
            );
        }
    }

    #[test]
    fn corrupting_generation_reaches_corruption_genes() {
        let mut rng = StdRng::seed_from_u64(42);
        let found = (0..200).any(|_| {
            Genome::random(&mut rng, 24, true)
                .genes
                .iter()
                .any(|g| matches!(g, Gene::Corrupt(_)))
        });
        assert!(found, "1 in 5 genes over 200 genomes should corrupt");
    }

    #[test]
    fn decode_keeps_the_last_corruption_gene() {
        let first = Corruption {
            tx_seq: 1,
            ..Corruption::default()
        };
        let last = Corruption {
            rx_expected: 5,
            ghosts_tr: 2,
            seed: 9,
            ..Corruption::default()
        };
        let g = Genome {
            seed: 0,
            genes: vec![Gene::Corrupt(first), Gene::Send, Gene::Corrupt(last)],
        };
        assert_eq!(g.decode().corruption, Some(last));
        let clean = Genome {
            seed: 0,
            genes: vec![Gene::Send],
        };
        assert_eq!(clean.decode().corruption, None);
    }
}
