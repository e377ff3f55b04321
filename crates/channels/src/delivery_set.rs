//! Delivery sets (paper §6.1) and the `del` surgery (§6.3).
//!
//! A *delivery set* `S` is a set of pairs `(i, j)` of positive integers
//! such that for each `j` there is exactly one `(i, j) ∈ S`, and for each
//! `i` at most one. It prescribes that the `j`-th `receive_pkt` event
//! delivers the packet of the `i`-th `send_pkt` event. `S` is *monotone*
//! (FIFO) when `j ↦ i` is strictly increasing.
//!
//! The paper's `S` is infinite. [`DeliverySet`] represents it finitely as
//! an explicit prefix plus an *identity tail*: for `j` beyond the prefix,
//! `i = tail_base + (j − prefix_len)`. Every delivery set the proofs
//! construct has this shape (they only ever fix finitely many pairs and
//! leave the rest "clean FIFO"), and the representation is closed under the
//! paper's `del` surgery — deleting an explicit pair shifts later `j`s down
//! by one, which the tail formula absorbs unchanged.

use std::fmt;

/// Error constructing or editing a delivery set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeliverySetError {
    /// An `i` value appears twice (the map `j ↦ i` must be injective).
    DuplicateSource(u64),
    /// An explicit `i` exceeds the tail base, colliding with the tail.
    CollidesWithTail {
        /// The offending explicit source index.
        source: u64,
        /// The tail base it must not exceed.
        tail_base: u64,
    },
    /// A source index of zero (indices are positive).
    ZeroSource,
    /// The requested pair is not in the set.
    NotInSet(u64, u64),
}

impl fmt::Display for DeliverySetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeliverySetError::DuplicateSource(i) => {
                write!(f, "source index {i} appears twice")
            }
            DeliverySetError::CollidesWithTail { source, tail_base } => write!(
                f,
                "explicit source index {source} collides with the identity tail starting at {}",
                tail_base + 1
            ),
            DeliverySetError::ZeroSource => f.write_str("source indices are positive"),
            DeliverySetError::NotInSet(i, j) => write!(f, "pair ({i}, {j}) is not in the set"),
        }
    }
}

impl std::error::Error for DeliverySetError {}

/// A delivery set: explicit prefix + identity tail.
///
/// `explicit[j-1] = i` gives the pairs `(i, j)` for `1 ≤ j ≤ prefix_len`;
/// for `j > prefix_len` the pair is `(tail_base + j − prefix_len, j)`.
///
/// ```
/// use dl_channels::DeliverySet;
///
/// # fn main() -> Result<(), dl_channels::DeliverySetError> {
/// // Deliver packet 2 first, then packet 1, then FIFO from 3 onward.
/// let mut s = DeliverySet::new(vec![2, 1], 2)?;
/// assert_eq!(s.source_for(1), 2);
/// assert!(!s.is_monotone());
/// // Lose packet 1: position 2 disappears, later positions shift down.
/// s.del(1, 2)?;
/// assert_eq!(s.source_for(2), 3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DeliverySet {
    explicit: Vec<u64>,
    tail_base: u64,
}

impl DeliverySet {
    /// The identity (perfect FIFO, no loss) delivery set `{(k, k)}`.
    #[must_use]
    pub fn fifo() -> Self {
        DeliverySet {
            explicit: Vec::new(),
            tail_base: 0,
        }
    }

    /// Builds a set from an explicit prefix and tail base.
    ///
    /// # Errors
    ///
    /// Rejects zero or duplicate source indices and prefix entries that
    /// collide with the tail (`i > tail_base`).
    pub fn new(explicit: Vec<u64>, tail_base: u64) -> Result<Self, DeliverySetError> {
        for (k, &i) in explicit.iter().enumerate() {
            if i == 0 {
                return Err(DeliverySetError::ZeroSource);
            }
            if i > tail_base {
                return Err(DeliverySetError::CollidesWithTail {
                    source: i,
                    tail_base,
                });
            }
            if explicit[..k].contains(&i) {
                return Err(DeliverySetError::DuplicateSource(i));
            }
        }
        Ok(DeliverySet {
            explicit,
            tail_base,
        })
    }

    /// The source index `i` of the pair `(i, j)`, for 1-based `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j == 0`.
    #[must_use]
    pub fn source_for(&self, j: u64) -> u64 {
        assert!(j > 0, "delivery positions are 1-based");
        let idx = (j - 1) as usize;
        if idx < self.explicit.len() {
            self.explicit[idx]
        } else {
            self.tail_base + (j - self.explicit.len() as u64)
        }
    }

    /// `true` if `(i, j) ∈ S`.
    #[must_use]
    pub fn contains(&self, i: u64, j: u64) -> bool {
        j > 0 && self.source_for(j) == i
    }

    /// The delivery position `j` whose source is `i`, if any.
    ///
    /// Every `j` has a source but not every `i` is delivered: explicit
    /// prefixes can skip indices (those packets are lost).
    #[must_use]
    pub fn position_of(&self, i: u64) -> Option<u64> {
        if let Some(k) = self.explicit.iter().position(|&x| x == i) {
            return Some(k as u64 + 1);
        }
        if i > self.tail_base {
            Some(self.explicit.len() as u64 + (i - self.tail_base))
        } else {
            None
        }
    }

    /// `true` if `j ↦ i` is strictly increasing — the FIFO condition on
    /// delivery sets (§6.2).
    #[must_use]
    pub fn is_monotone(&self) -> bool {
        let increasing = self.explicit.windows(2).all(|w| w[0] < w[1]);
        let last_ok = self
            .explicit
            .last()
            .is_none_or(|&last| last <= self.tail_base);
        increasing && last_ok
    }

    /// Length of the explicit prefix.
    #[must_use]
    pub fn prefix_len(&self) -> usize {
        self.explicit.len()
    }

    /// The tail base: for `j` past the prefix, `i = tail_base + (j − prefix_len)`.
    #[must_use]
    pub fn tail_base(&self) -> u64 {
        self.tail_base
    }

    /// Extends the explicit prefix so that positions `1..=j` are all
    /// explicit (materializing tail pairs). The set is unchanged as a set
    /// of pairs.
    pub fn materialize_to(&mut self, j: u64) {
        while (self.explicit.len() as u64) < j {
            let next = self.tail_base + 1;
            self.explicit.push(next);
            self.tail_base = next;
        }
    }

    /// The paper's `del(S, (i, j))`: removes the pair and shifts every
    /// later delivery position down by one (§6.3).
    ///
    /// # Errors
    ///
    /// [`DeliverySetError::NotInSet`] if `(i, j) ∉ S`.
    pub fn del(&mut self, i: u64, j: u64) -> Result<(), DeliverySetError> {
        if !self.contains(i, j) {
            return Err(DeliverySetError::NotInSet(i, j));
        }
        self.materialize_to(j);
        self.explicit.remove((j - 1) as usize);
        Ok(())
    }

    /// Deletes several pairs, given by their source indices, wherever they
    /// currently sit. Convenience wrapper over repeated [`del`](Self::del)
    /// (the paper's `del(S, X)`).
    ///
    /// # Errors
    ///
    /// Fails if some source index has no delivery position.
    pub fn del_sources(&mut self, sources: &[u64]) -> Result<(), DeliverySetError> {
        for &i in sources {
            let j = self
                .position_of(i)
                .ok_or(DeliverySetError::NotInSet(i, 0))?;
            self.del(i, j)?;
        }
        Ok(())
    }

    /// Rewrites the *future* of the set: keeps positions `1..=delivered`
    /// unchanged, makes positions `delivered+1 ..= delivered+n` deliver the
    /// given source indices, and sets the tail to clean FIFO starting after
    /// `floor`, where `floor = max(given tail floor, all retained sources)`.
    ///
    /// This is the executable form of the start-state nondeterminism the
    /// lemmas of §6.3 exploit ("β can leave the channel in a state where
    /// …"): the pairs at positions `≤ delivered` are the only part of `S`
    /// an execution so far has observed, so any consistent rewrite of the
    /// rest yields a state the same schedule can leave the channel in.
    ///
    /// # Errors
    ///
    /// Rejects future sources that duplicate each other or collide with an
    /// already-delivered position's source.
    pub fn set_future(
        &mut self,
        delivered: u64,
        future: &[u64],
        tail_floor: u64,
    ) -> Result<(), DeliverySetError> {
        self.materialize_to(delivered);
        self.explicit.truncate(delivered as usize);
        let mut base = tail_floor;
        for (k, &i) in future.iter().enumerate() {
            if i == 0 {
                return Err(DeliverySetError::ZeroSource);
            }
            if self.explicit[..delivered as usize].contains(&i) || future[..k].contains(&i) {
                return Err(DeliverySetError::DuplicateSource(i));
            }
            base = base.max(i);
        }
        for &i in self.explicit.iter() {
            base = base.max(i);
        }
        self.explicit.extend_from_slice(future);
        self.tail_base = base;
        Ok(())
    }

    /// `true` if the set is *clean* relative to the counters (§6.3): no
    /// pending pair draws from an already-sent packet
    /// (`i ≤ counter1` with `j > counter2`), and the tail continues FIFO
    /// with `(counter1 + k, counter2 + k)`.
    #[must_use]
    pub fn is_clean(&self, counter1: u64, counter2: u64) -> bool {
        // Every pending position must follow the pattern
        // `source_for(counter2 + k) == counter1 + k`. Both sides are
        // eventually affine with slope one, so checking through one point
        // past the explicit prefix decides all of them.
        let horizon = (self.explicit.len() as u64).max(counter2) + 2;
        (counter2 + 1..=horizon).all(|j| self.source_for(j) == counter1 + (j - counter2))
    }
}

impl Default for DeliverySet {
    fn default() -> Self {
        DeliverySet::fifo()
    }
}

impl fmt::Display for DeliverySet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("{")?;
        for (k, i) in self.explicit.iter().enumerate() {
            write!(f, "({}, {}), ", i, k + 1)?;
        }
        write!(f, "({}+k, {}+k)…}}", self.tail_base, self.explicit.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_set_is_identity() {
        let s = DeliverySet::fifo();
        for j in 1..10 {
            assert_eq!(s.source_for(j), j);
            assert!(s.contains(j, j));
            assert_eq!(s.position_of(j), Some(j));
        }
        assert!(s.is_monotone());
        assert!(s.is_clean(0, 0));
    }

    #[test]
    fn explicit_prefix_lookup() {
        let s = DeliverySet::new(vec![2, 1, 3], 3).unwrap();
        assert_eq!(s.source_for(1), 2);
        assert_eq!(s.source_for(2), 1);
        assert_eq!(s.source_for(3), 3);
        assert_eq!(s.source_for(4), 4); // tail
        assert_eq!(s.position_of(1), Some(2));
        assert_eq!(s.position_of(7), Some(7));
        assert!(!s.is_monotone());
    }

    #[test]
    fn skipping_prefix_loses_packets() {
        // Deliver 2 then 5; packets 1, 3, 4 are lost forever.
        let s = DeliverySet::new(vec![2, 5], 5).unwrap();
        assert_eq!(s.position_of(1), None);
        assert_eq!(s.position_of(3), None);
        assert_eq!(s.position_of(2), Some(1));
        assert_eq!(s.position_of(6), Some(3));
        assert!(s.is_monotone());
    }

    #[test]
    fn construction_validation() {
        assert_eq!(
            DeliverySet::new(vec![0], 5),
            Err(DeliverySetError::ZeroSource)
        );
        assert_eq!(
            DeliverySet::new(vec![1, 1], 5),
            Err(DeliverySetError::DuplicateSource(1))
        );
        assert_eq!(
            DeliverySet::new(vec![9], 5),
            Err(DeliverySetError::CollidesWithTail {
                source: 9,
                tail_base: 5
            })
        );
    }

    #[test]
    fn one_based_positions() {
        let s = DeliverySet::fifo();
        assert!(!s.contains(1, 0));
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn source_for_zero_panics() {
        let _ = DeliverySet::fifo().source_for(0);
    }

    #[test]
    fn materialization_preserves_pairs() {
        let mut s = DeliverySet::new(vec![3, 1], 3).unwrap();
        let before: Vec<u64> = (1..=10).map(|j| s.source_for(j)).collect();
        s.materialize_to(6);
        let after: Vec<u64> = (1..=10).map(|j| s.source_for(j)).collect();
        assert_eq!(before, after);
        assert_eq!(s.prefix_len(), 6);
    }

    /// The lazy-representation ablation (DESIGN.md §4): surgery that
    /// materializes only up to the deleted pair and surgery that first
    /// materializes to a fixed horizon define the same delivery function
    /// under repeated losses; only the explicit prefix differs.
    #[test]
    fn lazy_and_eager_materialization_agree() {
        for (ops, lazy_len, eager_len) in [(100u64, 66, 400), (1_000, 666, 4_000)] {
            let horizon = 4 * ops;
            let mut lazy = DeliverySet::fifo();
            let mut eager = DeliverySet::fifo();
            for i in 1..=ops {
                eager.materialize_to(horizon);
                if i % 3 == 0 {
                    for s in [&mut lazy, &mut eager] {
                        let j = s.position_of(i).expect("undelivered index has a slot");
                        s.del(i, j).expect("pair exists");
                    }
                }
            }
            for j in 1..=horizon + 1 {
                assert_eq!(lazy.source_for(j), eager.source_for(j), "position {j}");
            }
            assert_eq!(lazy.prefix_len(), lazy_len, "lazy prefix at {ops} ops");
            assert_eq!(eager.prefix_len(), eager_len, "eager prefix at {ops} ops");
        }
    }

    #[test]
    fn del_removes_and_shifts() {
        let mut s = DeliverySet::new(vec![2, 1, 3], 3).unwrap();
        s.del(1, 2).unwrap();
        assert_eq!(s.source_for(1), 2);
        assert_eq!(s.source_for(2), 3);
        assert_eq!(s.source_for(3), 4); // tail shifted down
        assert_eq!(s.position_of(1), None); // packet 1 now lost
    }

    #[test]
    fn del_in_tail_region() {
        let mut s = DeliverySet::fifo();
        s.del(3, 3).unwrap();
        assert_eq!(s.source_for(1), 1);
        assert_eq!(s.source_for(2), 2);
        assert_eq!(s.source_for(3), 4);
        assert_eq!(s.source_for(4), 5);
        assert!(s.is_monotone());
    }

    #[test]
    fn del_rejects_absent_pair() {
        let mut s = DeliverySet::fifo();
        assert_eq!(s.del(2, 3), Err(DeliverySetError::NotInSet(2, 3)));
    }

    #[test]
    fn del_preserves_monotonicity() {
        // Lemma 6.3's remark: if S is monotone, so is del(S, X).
        let mut s = DeliverySet::new(vec![1, 3, 4], 4).unwrap();
        assert!(s.is_monotone());
        s.del(3, 2).unwrap();
        assert!(s.is_monotone());
        s.del_sources(&[4]).unwrap();
        assert!(s.is_monotone());
    }

    #[test]
    fn del_sources_batch() {
        let mut s = DeliverySet::fifo();
        s.del_sources(&[2, 4]).unwrap();
        assert_eq!(s.source_for(1), 1);
        assert_eq!(s.source_for(2), 3);
        assert_eq!(s.source_for(3), 5);
        assert!(s.del_sources(&[2]).is_err()); // 2 already deleted
    }

    #[test]
    fn set_future_rewrites_pending_only() {
        let mut s = DeliverySet::new(vec![2, 1], 2).unwrap();
        // Two deliveries happened; rewrite the future to deliver 5 then 3.
        s.set_future(2, &[5, 3], 6).unwrap();
        assert_eq!(s.source_for(1), 2);
        assert_eq!(s.source_for(2), 1);
        assert_eq!(s.source_for(3), 5);
        assert_eq!(s.source_for(4), 3);
        assert_eq!(s.source_for(5), 7); // tail after floor 6
    }

    #[test]
    fn set_future_validates() {
        let mut s = DeliverySet::new(vec![2], 2).unwrap();
        assert_eq!(
            s.set_future(1, &[2], 5),
            Err(DeliverySetError::DuplicateSource(2))
        );
        assert_eq!(
            s.set_future(1, &[3, 3], 5),
            Err(DeliverySetError::DuplicateSource(3))
        );
        assert_eq!(s.set_future(1, &[0], 5), Err(DeliverySetError::ZeroSource));
    }

    #[test]
    fn cleanliness() {
        // Lemma 6.3 shape: after c1 sends and c2 deliveries, clean means
        // the future is (c1+k, c2+k).
        let mut s = DeliverySet::new(vec![2, 1], 2).unwrap();
        assert!(!s.is_clean(5, 2));
        s.set_future(2, &[], 5).unwrap();
        assert!(s.is_clean(5, 2));
        assert_eq!(s.source_for(3), 6);
        // Materialized clean sets are still clean.
        s.materialize_to(4);
        assert!(s.is_clean(5, 2));
        assert!(!s.is_clean(4, 2));
        assert!(!s.is_clean(5, 1));
    }

    #[test]
    fn fifo_identity_is_clean_at_matching_counters() {
        let s = DeliverySet::fifo();
        assert!(s.is_clean(0, 0));
        assert!(s.is_clean(3, 3)); // delivered everything sent, tail continues FIFO
        assert!(!s.is_clean(3, 2)); // pending pair (3, 3) draws on a sent packet
    }

    #[test]
    fn display_is_informative() {
        let s = DeliverySet::new(vec![2], 2).unwrap();
        let txt = s.to_string();
        assert!(txt.contains("(2, 1)"));
        assert!(txt.contains("(2+k, 1+k)"));
    }
}
