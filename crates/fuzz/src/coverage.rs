//! The shared coverage map: sharded novelty dedup for the worker fleet.
//!
//! Modeled on `dl-explore`'s `ShardedVisited`: coverage keys are already
//! 64-bit hashes, so each key's **upper** bits pick one of a power-of-two
//! number of `Mutex<HashSet>` shards (the set's own probing consumes the
//! lower bits), and concurrent workers contend only when two observations
//! land in the same shard at the same instant. A relaxed atomic mirrors
//! the total size so progress reporting never takes a lock.
//!
//! The shards hash with the workspace's [`FxBuildHasher`] rather than
//! SipHash: the keys are generated by the program, not read from outside
//! input, and novelty is set membership, so the hasher changes no
//! campaign.

use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use ioa::intern::FxBuildHasher;

/// A sharded set of novel coverage keys.
#[derive(Debug)]
pub struct ShardedCoverage {
    shards: Vec<Mutex<HashSet<u64, FxBuildHasher>>>,
    mask: usize,
    count: AtomicUsize,
}

impl ShardedCoverage {
    /// A coverage map with `shards` shards, rounded up to a power of two.
    #[must_use]
    pub fn new(shards: usize) -> Self {
        let n = shards.max(1).next_power_of_two();
        ShardedCoverage {
            shards: (0..n)
                .map(|_| Mutex::new(HashSet::with_hasher(FxBuildHasher)))
                .collect(),
            mask: n - 1,
            count: AtomicUsize::new(0),
        }
    }

    /// Inserts every key of one execution; returns how many were novel.
    pub fn observe(&self, keys: &[u64]) -> usize {
        let mut novel = 0;
        for &k in keys {
            let idx = (k >> 32) as usize & self.mask;
            let mut shard = self.shards[idx].lock().expect("coverage shard poisoned");
            if shard.insert(k) {
                novel += 1;
            }
        }
        if novel > 0 {
            self.count.fetch_add(novel, Ordering::Relaxed);
        }
        novel
    }

    /// Total distinct coverage keys observed so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.count.load(Ordering::Relaxed)
    }

    /// `true` if no key has been observed.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn novelty_counts_distinct_keys_once() {
        let cov = ShardedCoverage::new(4);
        assert!(cov.is_empty());
        assert_eq!(cov.observe(&[1, 2, 3, 2]), 3);
        assert_eq!(cov.observe(&[3, 4]), 1);
        assert_eq!(cov.len(), 4);
    }

    #[test]
    fn sharding_spreads_by_upper_bits() {
        let cov = ShardedCoverage::new(8);
        // Keys differing only in upper bits land in different shards but
        // are still all counted.
        let keys: Vec<u64> = (0..64u64).map(|i| i << 32).collect();
        assert_eq!(cov.observe(&keys), 64);
        assert_eq!(cov.len(), 64);
    }

    #[test]
    fn concurrent_observers_agree_on_the_total() {
        let cov = ShardedCoverage::new(8);
        std::thread::scope(|s| {
            for w in 0..4u64 {
                let cov = &cov;
                s.spawn(move || {
                    // Overlapping key ranges: total distinct = 0..600.
                    let keys: Vec<u64> = (w * 100..w * 100 + 300).collect();
                    cov.observe(&keys);
                });
            }
        });
        assert_eq!(cov.len(), 600);
    }
}
