//! A compact, fixed-universe bitset used for taxon sets and splits.
//!
//! The Gentrius kernel manipulates subsets of a fixed taxon universe
//! (typically 50–300 taxa) millions of times, so the representation matters:
//! we store the members in an inline-friendly `Vec<u64>` of exactly
//! `ceil(universe/64)` words and keep every operation branch-light and
//! allocation-free once constructed.

use std::fmt;

/// Number of bits per storage word.
const WORD_BITS: usize = 64;

/// A set of small unsigned integers drawn from a fixed universe `0..len`.
///
/// Unlike `std::collections::HashSet<usize>`, all set algebra is word-wise
/// and two bitsets over the same universe compare equal iff they contain the
/// same members. Operations on bitsets with different universe sizes are a
/// logic error and panic in debug builds.
#[derive(PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitSet {
    /// Universe size in bits.
    len: usize,
    words: Vec<u64>,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            len: self.len,
            words: self.words.clone(),
        }
    }

    /// Reuses `self`'s word buffer when its capacity suffices.
    fn clone_from(&mut self, source: &Self) {
        self.len = source.len;
        self.words.clone_from(&source.words);
    }
}

impl BitSet {
    /// Creates an empty set over the universe `0..len`.
    pub fn new(len: usize) -> Self {
        BitSet {
            len,
            words: vec![0; len.div_ceil(WORD_BITS)],
        }
    }

    /// Creates a set containing every element of the universe `0..len`.
    pub fn full(len: usize) -> Self {
        let mut s = BitSet::new(len);
        for (i, w) in s.words.iter_mut().enumerate() {
            let lo = i * WORD_BITS;
            if lo + WORD_BITS <= len {
                *w = u64::MAX;
            } else if lo < len {
                *w = (1u64 << (len - lo)) - 1;
            }
        }
        s
    }

    /// Builds a set from an iterator of members.
    pub fn from_iter<I: IntoIterator<Item = usize>>(len: usize, iter: I) -> Self {
        let mut s = BitSet::new(len);
        for i in iter {
            s.insert(i);
        }
        s
    }

    /// Universe size (number of addressable bits), *not* the member count.
    #[inline]
    pub fn universe(&self) -> usize {
        self.len
    }

    /// Number of members in the set.
    #[inline]
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// True if the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Adds `i` to the set. Returns whether it was newly inserted.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *w & mask == 0;
        *w |= mask;
        fresh
    }

    /// Removes `i` from the set. Returns whether it was present.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        debug_assert!(i < self.len, "bit {i} out of universe {}", self.len);
        let w = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let present = *w & mask != 0;
        *w &= !mask;
        present
    }

    /// Removes all members, keeping the universe size.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// In-place union with `other`.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    #[inline]
    pub fn difference_with(&mut self, other: &BitSet) {
        debug_assert_eq!(self.len, other.len);
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Flips every bit of the universe (set complement).
    pub fn complement(&mut self) {
        for w in self.words.iter_mut() {
            *w = !*w;
        }
        self.trim();
    }

    /// Returns the union as a new set.
    pub fn union(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.union_with(other);
        s
    }

    /// Returns the intersection as a new set.
    pub fn intersection(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.intersect_with(other);
        s
    }

    /// Returns the difference `self \ other` as a new set.
    pub fn difference(&self, other: &BitSet) -> BitSet {
        let mut s = self.clone();
        s.difference_with(other);
        s
    }

    /// Size of the intersection, without materializing it.
    #[inline]
    pub fn intersection_count(&self, other: &BitSet) -> usize {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if the two sets share no members.
    #[inline]
    pub fn is_disjoint(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// True if every member of `self` is a member of `other`.
    #[inline]
    pub fn is_subset(&self, other: &BitSet) -> bool {
        debug_assert_eq!(self.len, other.len);
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Smallest member, if any.
    #[inline]
    pub fn min_member(&self) -> Option<usize> {
        for (i, &w) in self.words.iter().enumerate() {
            if w != 0 {
                return Some(i * WORD_BITS + w.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Direct read access to the storage words (used by hashing fast paths).
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Masks off any bits beyond the universe that complement introduced.
    fn trim(&mut self) {
        let rem = self.len % WORD_BITS;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }
}

/// Iterator over the members of a [`BitSet`] in increasing order.
pub struct BitIter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * WORD_BITS + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = BitSet::new(70);
        assert!(e.is_empty());
        assert_eq!(e.count(), 0);
        let f = BitSet::full(70);
        assert_eq!(f.count(), 70);
        assert!(f.contains(0));
        assert!(f.contains(69));
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = BitSet::new(130);
        assert!(s.insert(0));
        assert!(s.insert(64));
        assert!(s.insert(129));
        assert!(!s.insert(64));
        assert_eq!(s.count(), 3);
        assert!(s.contains(64));
        assert!(s.remove(64));
        assert!(!s.remove(64));
        assert!(!s.contains(64));
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = BitSet::from_iter(100, [1, 5, 50, 99]);
        let b = BitSet::from_iter(100, [5, 50, 60]);
        assert_eq!(a.intersection(&b), BitSet::from_iter(100, [5, 50]));
        assert_eq!(a.union(&b), BitSet::from_iter(100, [1, 5, 50, 60, 99]));
        assert_eq!(a.difference(&b), BitSet::from_iter(100, [1, 99]));
        assert_eq!(a.intersection_count(&b), 2);
        assert!(!a.is_disjoint(&b));
        assert!(BitSet::from_iter(100, [5]).is_subset(&b));
        assert!(!a.is_subset(&b));
    }

    #[test]
    fn complement_respects_universe() {
        let mut s = BitSet::from_iter(67, [0, 66]);
        s.complement();
        assert_eq!(s.count(), 65);
        assert!(!s.contains(0));
        assert!(!s.contains(66));
        assert!(s.contains(1));
        assert!(s.contains(65));
    }

    #[test]
    fn iteration_order() {
        let s = BitSet::from_iter(200, [199, 3, 64, 65, 0]);
        let v: Vec<usize> = s.iter().collect();
        assert_eq!(v, vec![0, 3, 64, 65, 199]);
    }

    #[test]
    fn min_member() {
        assert_eq!(BitSet::new(10).min_member(), None);
        assert_eq!(BitSet::from_iter(128, [127]).min_member(), Some(127));
        assert_eq!(BitSet::from_iter(128, [4, 127]).min_member(), Some(4));
    }

    #[test]
    fn disjoint_and_empty_edge_cases() {
        let e = BitSet::new(64);
        assert!(e.is_disjoint(&e));
        assert!(e.is_subset(&e));
        let f = BitSet::full(64);
        assert!(e.is_subset(&f));
        assert!(!f.is_subset(&e));
    }

    #[test]
    fn full_on_word_boundary() {
        let f = BitSet::full(128);
        assert_eq!(f.count(), 128);
        let f = BitSet::full(0);
        assert_eq!(f.count(), 0);
    }
}
