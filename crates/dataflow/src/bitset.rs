//! A dense fixed-capacity bit set over `u64` words.
//!
//! Facts in the null check analyses are local variables, so sets are small
//! and dense — a word array beats hash sets by a wide margin and makes the
//! meet operators single-word loops. Sets of up to [`INLINE_WORDS`] words
//! keep them inline, so creating or cloning one does not allocate; the
//! solver makes two per block per solve, and most functions have a few
//! dozen facts.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, DerefMut};

/// Words stored inline before a set moves its words to the heap (256
/// facts).
const INLINE_WORDS: usize = 4;

/// The word storage: inline up to [`INLINE_WORDS`], else on the heap.
/// Which one a set uses depends only on its capacity, and inline words past
/// `len` stay zero.
enum Words {
    Inline {
        len: usize,
        buf: [u64; INLINE_WORDS],
    },
    Heap(Vec<u64>),
}

impl Words {
    #[inline]
    fn zeroed(len: usize) -> Self {
        if len <= INLINE_WORDS {
            Words::Inline {
                len,
                buf: [0; INLINE_WORDS],
            }
        } else {
            Words::Heap(vec![0; len])
        }
    }
}

impl Clone for Words {
    fn clone(&self) -> Self {
        match self {
            Words::Inline { len, buf } => Words::Inline {
                len: *len,
                buf: *buf,
            },
            Words::Heap(v) => Words::Heap(v.clone()),
        }
    }

    /// Reuses `self`'s heap words when both sides have them.
    fn clone_from(&mut self, source: &Self) {
        match (&mut *self, source) {
            (Words::Heap(dst), Words::Heap(src)) => dst.clone_from(src),
            _ => *self = source.clone(),
        }
    }
}

impl Deref for Words {
    type Target = [u64];
    #[inline]
    fn deref(&self) -> &[u64] {
        match self {
            Words::Inline { len, buf } => &buf[..*len],
            Words::Heap(v) => v,
        }
    }
}

impl DerefMut for Words {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u64] {
        match self {
            Words::Inline { len, buf } => &mut buf[..*len],
            Words::Heap(v) => v,
        }
    }
}

impl PartialEq for Words {
    fn eq(&self, other: &Self) -> bool {
        **self == **other
    }
}

impl Eq for Words {}

impl Hash for Words {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (**self).hash(state);
    }
}

/// A fixed-capacity set of small integers (dataflow facts).
///
/// # Example
/// ```
/// use njc_dataflow::BitSet;
/// let mut a = BitSet::new(70);
/// a.insert(3);
/// a.insert(69);
/// let mut b = BitSet::new(70);
/// b.insert(69);
/// a.intersect_with(&b);
/// assert_eq!(a.iter().collect::<Vec<_>>(), vec![69]);
/// ```
#[derive(PartialEq, Eq, Hash)]
pub struct BitSet {
    words: Words,
    capacity: usize,
}

impl Clone for BitSet {
    fn clone(&self) -> Self {
        BitSet {
            words: self.words.clone(),
            capacity: self.capacity,
        }
    }

    /// Reuses `self`'s heap words when both sets keep theirs on the heap.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.capacity = source.capacity;
    }
}

impl Default for BitSet {
    /// The empty set of capacity 0.
    fn default() -> Self {
        BitSet::new(0)
    }
}

impl BitSet {
    /// Creates an empty set able to hold facts `0..capacity`.
    #[inline]
    pub fn new(capacity: usize) -> Self {
        BitSet {
            words: Words::zeroed(capacity.div_ceil(64)),
            capacity,
        }
    }

    /// Creates a set containing every fact in `0..capacity` (the ⊤ value of
    /// intersection-meet analyses).
    #[inline]
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        s.set_all();
        s
    }

    /// Makes `self` the empty set of `capacity`, reusing its heap words
    /// when the new capacity keeps them on the heap.
    pub fn reset(&mut self, capacity: usize) {
        let len = capacity.div_ceil(64);
        match &mut self.words {
            Words::Heap(v) if len > INLINE_WORDS => {
                v.clear();
                v.resize(len, 0);
            }
            _ => self.words = Words::zeroed(len),
        }
        self.capacity = capacity;
    }

    /// The capacity (number of representable facts).
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Inserts `i`; returns whether the set changed.
    ///
    /// # Panics
    /// Panics if `i >= capacity`.
    #[inline]
    pub fn insert(&mut self, i: usize) -> bool {
        assert!(
            i < self.capacity,
            "bit {i} out of capacity {}",
            self.capacity
        );
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let changed = *w & mask == 0;
        *w |= mask;
        changed
    }

    /// Removes `i`; returns whether the set changed.
    #[inline]
    pub fn remove(&mut self, i: usize) -> bool {
        if i >= self.capacity {
            return false;
        }
        let w = &mut self.words[i / 64];
        let mask = 1u64 << (i % 64);
        let changed = *w & mask != 0;
        *w &= !mask;
        changed
    }

    /// Whether `i` is in the set.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        i < self.capacity && self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Removes every element.
    #[inline]
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Inserts every element in `0..capacity`.
    #[inline]
    pub fn set_all(&mut self) {
        self.words.fill(!0);
        self.mask_tail();
    }

    #[inline]
    fn mask_tail(&mut self) {
        let tail = self.capacity % 64;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// `self ∪= other`; returns whether `self` changed.
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    #[inline]
    pub fn union_with(&mut self, other: &BitSet) -> bool {
        self.check_capacity(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let new = *a | b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self ∩= other`; returns whether `self` changed.
    #[inline]
    pub fn intersect_with(&mut self, other: &BitSet) -> bool {
        self.check_capacity(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let new = *a & b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// `self -= other`; returns whether `self` changed.
    #[inline]
    pub fn subtract(&mut self, other: &BitSet) -> bool {
        self.check_capacity(other);
        let mut changed = false;
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            let new = *a & !b;
            changed |= new != *a;
            *a = new;
        }
        changed
    }

    /// Replaces the contents of `self` with those of `other`.
    #[inline]
    pub fn copy_from(&mut self, other: &BitSet) {
        self.check_capacity(other);
        self.words.copy_from_slice(&other.words);
    }

    /// `self = a ∪ b` without allocating; returns whether `self` changed.
    ///
    /// The two-operand form lets a solver hot loop keep one scratch set per
    /// solve instead of cloning per block visit.
    ///
    /// # Example
    /// ```
    /// use njc_dataflow::BitSet;
    /// let mut a = BitSet::new(65);
    /// a.insert(1); a.insert(64);
    /// let mut b = BitSet::new(65);
    /// b.insert(2);
    /// let mut dst = BitSet::new(65);
    /// assert!(dst.union_from(&a, &b));
    /// assert_eq!(dst.iter().collect::<Vec<_>>(), vec![1, 2, 64]);
    /// // Word-level: bit 64 lives in the second u64 word.
    /// assert_eq!(dst.words(), &[0b110, 0b1]);
    /// assert!(!dst.union_from(&a, &b), "already equal: no change");
    /// ```
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    #[inline]
    pub fn union_from(&mut self, a: &BitSet, b: &BitSet) -> bool {
        self.check_capacity(a);
        self.check_capacity(b);
        let mut changed = false;
        for ((d, a), b) in self
            .words
            .iter_mut()
            .zip(a.words.iter())
            .zip(b.words.iter())
        {
            let new = a | b;
            changed |= new != *d;
            *d = new;
        }
        changed
    }

    /// `self = a ∩ b` without allocating; returns whether `self` changed.
    ///
    /// # Example
    /// ```
    /// use njc_dataflow::BitSet;
    /// let mut a = BitSet::new(130);
    /// a.insert(0); a.insert(65); a.insert(129);
    /// let mut b = BitSet::new(130);
    /// b.insert(65); b.insert(129);
    /// let mut dst = BitSet::new(130);
    /// assert!(dst.intersect_from(&a, &b));
    /// assert_eq!(dst.words(), &[0, 0b10, 0b10], "one bit per upper word");
    /// ```
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    #[inline]
    pub fn intersect_from(&mut self, a: &BitSet, b: &BitSet) -> bool {
        self.check_capacity(a);
        self.check_capacity(b);
        let mut changed = false;
        for ((d, a), b) in self
            .words
            .iter_mut()
            .zip(a.words.iter())
            .zip(b.words.iter())
        {
            let new = a & b;
            changed |= new != *d;
            *d = new;
        }
        changed
    }

    /// `self = a − b` without allocating; returns whether `self` changed.
    ///
    /// # Example
    /// ```
    /// use njc_dataflow::BitSet;
    /// let a = BitSet::full(66);
    /// let mut b = BitSet::new(66);
    /// b.insert(65);
    /// let mut dst = BitSet::new(66);
    /// assert!(dst.subtract_from(&a, &b));
    /// assert_eq!(dst.words(), &[!0u64, 0b01], "bit 65 knocked out of word 1");
    /// assert_eq!(dst.count(), 65);
    /// ```
    ///
    /// # Panics
    /// Panics on capacity mismatch.
    #[inline]
    pub fn subtract_from(&mut self, a: &BitSet, b: &BitSet) -> bool {
        self.check_capacity(a);
        self.check_capacity(b);
        let mut changed = false;
        for ((d, a), b) in self
            .words
            .iter_mut()
            .zip(a.words.iter())
            .zip(b.words.iter())
        {
            let new = a & !b;
            changed |= new != *d;
            *d = new;
        }
        changed
    }

    /// The backing words, least-significant first (bit `i` is
    /// `words()[i / 64] >> (i % 64) & 1`).
    ///
    /// # Example
    /// ```
    /// use njc_dataflow::BitSet;
    /// let mut s = BitSet::new(70);
    /// s.insert(0); s.insert(69);
    /// assert_eq!(s.words(), &[1, 1 << 5]);
    /// ```
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether the set is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset(&self, other: &BitSet) -> bool {
        self.check_capacity(other);
        self.words
            .iter()
            .zip(other.words.iter())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the elements in increasing order.
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            set: self,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    #[inline]
    fn check_capacity(&self, other: &BitSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "bit set capacity mismatch ({} vs {})",
            self.capacity, other.capacity
        );
    }
}

impl fmt::Debug for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl fmt::Display for BitSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<usize> for BitSet {
    /// Collects elements into a set sized to fit the largest element.
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let elems: Vec<usize> = iter.into_iter().collect();
        let cap = elems.iter().max().map_or(0, |m| m + 1);
        let mut s = BitSet::new(cap);
        for e in elems {
            s.insert(e);
        }
        s
    }
}

/// Iterator over the elements of a [`BitSet`].
pub struct Iter<'a> {
    set: &'a BitSet,
    word_idx: usize,
    current: u64,
}

impl Iterator for Iter<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(self.word_idx * 64 + bit);
            }
            self.word_idx += 1;
            if self.word_idx >= self.set.words.len() {
                return None;
            }
            self.current = self.set.words[self.word_idx];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal SplitMix64 for in-crate randomized tests (the workspace
    /// builds offline, so no external property-testing dependency).
    struct TestRng(u64);

    impl TestRng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }

        fn vec_below(&mut self, bound: usize, max_len: usize) -> Vec<usize> {
            let len = (self.next() % (max_len as u64 + 1)) as usize;
            (0..len)
                .map(|_| (self.next() % bound as u64) as usize)
                .collect()
        }
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = BitSet::new(100);
        assert!(s.insert(5));
        assert!(!s.insert(5));
        assert!(s.contains(5));
        assert!(!s.contains(6));
        assert!(s.remove(5));
        assert!(!s.remove(5));
        assert!(s.is_empty());
    }

    #[test]
    fn full_respects_capacity_tail() {
        let s = BitSet::full(70);
        assert_eq!(s.count(), 70);
        assert!(s.contains(69));
        assert!(!s.contains(70));
        let s = BitSet::full(64);
        assert_eq!(s.count(), 64);
    }

    #[test]
    fn set_ops() {
        let a: BitSet = [1, 2, 3].into_iter().collect();
        let b: BitSet = [2, 3].into_iter().collect();
        let mut u = a.clone();
        // align capacities
        let mut b4 = BitSet::new(4);
        for e in b.iter() {
            b4.insert(e);
        }
        u.union_with(&b4);
        assert_eq!(u.iter().collect::<Vec<_>>(), vec![1, 2, 3]);
        let mut i = a.clone();
        i.intersect_with(&b4);
        assert_eq!(i.iter().collect::<Vec<_>>(), vec![2, 3]);
        let mut d = a.clone();
        d.subtract(&b4);
        assert_eq!(d.iter().collect::<Vec<_>>(), vec![1]);
        assert!(b4.is_subset(&a));
        assert!(!a.is_subset(&b4));
    }

    #[test]
    fn zero_capacity_set() {
        let s = BitSet::new(0);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        assert_eq!(s.iter().count(), 0);
        assert!(!s.contains(0));
    }

    #[test]
    #[should_panic(expected = "out of capacity")]
    fn insert_beyond_capacity_panics() {
        BitSet::new(4).insert(4);
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = BitSet::new(4);
        let b = BitSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn display_and_debug() {
        let s: BitSet = [0, 9].into_iter().collect();
        assert_eq!(s.to_string(), "{0, 9}");
        assert_eq!(format!("{s:?}"), "{0, 9}");
    }

    #[test]
    fn union_is_commutative() {
        for seed in 0..256 {
            let mut rng = TestRng(seed);
            let xs = rng.vec_below(200, 50);
            let ys = rng.vec_below(200, 50);
            let mut a = BitSet::new(200);
            for &x in &xs {
                a.insert(x);
            }
            let mut b = BitSet::new(200);
            for &y in &ys {
                b.insert(y);
            }
            let mut ab = a.clone();
            ab.union_with(&b);
            let mut ba = b.clone();
            ba.union_with(&a);
            assert_eq!(ab, ba, "seed {seed}");
        }
    }

    #[test]
    fn demorgan_subtract() {
        for seed in 0..256 {
            let mut rng = TestRng(seed);
            let xs = rng.vec_below(200, 50);
            let ys = rng.vec_below(200, 50);
            let mut a = BitSet::new(200);
            for &x in &xs {
                a.insert(x);
            }
            let mut b = BitSet::new(200);
            for &y in &ys {
                b.insert(y);
            }
            // a - b == a ∩ complement(b)
            let mut lhs = a.clone();
            lhs.subtract(&b);
            let mut comp = BitSet::full(200);
            comp.subtract(&b);
            let mut rhs = a.clone();
            rhs.intersect_with(&comp);
            assert_eq!(lhs, rhs, "seed {seed}");
        }
    }

    #[test]
    fn two_operand_ops_match_in_place_ops() {
        for seed in 0..256 {
            let mut rng = TestRng(seed);
            let mut a = BitSet::new(200);
            let mut b = BitSet::new(200);
            for x in rng.vec_below(200, 50) {
                a.insert(x);
            }
            for y in rng.vec_below(200, 50) {
                b.insert(y);
            }
            let mut dst = BitSet::new(200);
            dst.union_from(&a, &b);
            let mut expect = a.clone();
            expect.union_with(&b);
            assert_eq!(dst, expect, "union seed {seed}");
            dst.intersect_from(&a, &b);
            let mut expect = a.clone();
            expect.intersect_with(&b);
            assert_eq!(dst, expect, "intersect seed {seed}");
            let changed = dst.subtract_from(&a, &b);
            let mut expect = a.clone();
            expect.subtract(&b);
            assert_eq!(dst, expect, "subtract seed {seed}");
            // Change reporting: recomputing the same value reports false.
            assert!(!dst.subtract_from(&a, &b));
            let _ = changed;
        }
    }

    #[test]
    fn iter_round_trips() {
        for seed in 0..256 {
            let mut rng = TestRng(seed);
            let xs = rng.vec_below(300, 80);
            let mut s = BitSet::new(300);
            let mut expected: Vec<usize> = xs.clone();
            expected.sort_unstable();
            expected.dedup();
            for &x in &xs {
                s.insert(x);
            }
            assert_eq!(s.iter().collect::<Vec<_>>(), expected, "seed {seed}");
            assert_eq!(s.count(), s.iter().count(), "seed {seed}");
        }
    }
}
