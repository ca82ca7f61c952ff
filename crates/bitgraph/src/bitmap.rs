//! Compressed bitmaps over `u64` object identifiers.
//!
//! The universe is chunked by the high 48 bits; each chunk holds a
//! container over the low 16 bits that adapts between a sorted array (sparse)
//! and a 64-Kbit bitset (dense) — the classic two-level compressed bitmap
//! design Sparksee's storage paper describes (bitmaps of object ids with
//! value-based compression).

use std::collections::BTreeMap;

/// Array container converts to a bitset beyond this cardinality (the point
/// where 2 B/entry exceeds the 8 KiB bitset).
const ARRAY_MAX: usize = 4096;
const BITSET_WORDS: usize = 1024;

#[derive(Debug, Clone, PartialEq)]
enum Container {
    /// Sorted, deduplicated low-16 values.
    Array(Vec<u16>),
    /// 65536-bit set.
    Bits(Box<[u64; BITSET_WORDS]>, u32),
    /// Run-length encoding: sorted, non-overlapping, non-adjacent
    /// `(start, length - 1)` runs. Produced by [`Container::optimize`];
    /// mutation inflates back to Array/Bits first.
    Run(Vec<(u16, u16)>, u32),
}

impl Container {
    fn new() -> Container {
        Container::Array(Vec::new())
    }

    fn len(&self) -> u64 {
        match self {
            Container::Array(v) => v.len() as u64,
            Container::Bits(_, n) => *n as u64,
            Container::Run(_, n) => *n as u64,
        }
    }

    fn contains(&self, low: u16) -> bool {
        match self {
            Container::Array(v) => v.binary_search(&low).is_ok(),
            Container::Bits(w, _) => w[(low >> 6) as usize] & (1 << (low & 63)) != 0,
            Container::Run(runs, _) => match runs.binary_search_by(|&(s, _)| s.cmp(&low)) {
                Ok(_) => true,
                Err(0) => false,
                Err(i) => {
                    let (start, len1) = runs[i - 1];
                    low - start <= len1
                }
            },
        }
    }

    /// Inflates a Run container back to Array or Bits before mutation.
    fn deflate_runs(&mut self) {
        if let Container::Run(..) = self {
            *self = Container::Array(self.iter().collect());
            if self.len() as usize > ARRAY_MAX {
                self.to_bits();
            }
        }
    }

    fn insert(&mut self, low: u16) -> bool {
        if matches!(self, Container::Run(..)) && !self.contains(low) {
            self.deflate_runs();
        }
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(_) => false,
                Err(pos) => {
                    v.insert(pos, low);
                    if v.len() > ARRAY_MAX {
                        self.to_bits();
                    }
                    true
                }
            },
            Container::Bits(w, n) => {
                let word = &mut w[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask != 0 {
                    false
                } else {
                    *word |= mask;
                    *n += 1;
                    true
                }
            }
            Container::Run(..) => false, // already present (checked above)
        }
    }

    fn remove(&mut self, low: u16) -> bool {
        if matches!(self, Container::Run(..)) {
            if !self.contains(low) {
                return false;
            }
            self.deflate_runs();
        }
        match self {
            Container::Array(v) => match v.binary_search(&low) {
                Ok(pos) => {
                    v.remove(pos);
                    true
                }
                Err(_) => false,
            },
            Container::Bits(w, n) => {
                let word = &mut w[(low >> 6) as usize];
                let mask = 1u64 << (low & 63);
                if *word & mask == 0 {
                    false
                } else {
                    *word &= !mask;
                    *n -= 1;
                    if (*n as usize) < ARRAY_MAX / 2 {
                        self.to_array();
                    }
                    true
                }
            }
            Container::Run(..) => unreachable!("deflated above"),
        }
    }

    /// Re-encodes as runs when that is the smallest representation.
    fn optimize(&mut self) {
        let runs = self.collect_runs();
        let n = self.len() as usize;
        let run_bytes = 4 * runs.len() + 8;
        let current_bytes = match self {
            Container::Array(v) => 2 * v.len() + 24,
            Container::Bits(..) => 8 * BITSET_WORDS + 8,
            Container::Run(..) => return,
        };
        if run_bytes < current_bytes {
            *self = Container::Run(runs, n as u32);
        }
    }

    fn collect_runs(&self) -> Vec<(u16, u16)> {
        let mut runs: Vec<(u16, u16)> = Vec::new();
        for low in self.iter() {
            match runs.last_mut() {
                Some((start, len1)) if (*start as u32 + *len1 as u32 + 1) == low as u32 => {
                    *len1 += 1;
                }
                _ => runs.push((low, 0)),
            }
        }
        runs
    }

    #[allow(clippy::wrong_self_convention)] // in-place container conversion
    fn to_bits(&mut self) {
        if let Container::Array(v) = self {
            let mut words = Box::new([0u64; BITSET_WORDS]);
            for &low in v.iter() {
                words[(low >> 6) as usize] |= 1 << (low & 63);
            }
            let n = v.len() as u32;
            *self = Container::Bits(words, n);
        }
    }

    #[allow(clippy::wrong_self_convention)] // in-place container conversion
    fn to_array(&mut self) {
        if let Container::Bits(..) = self {
            let v = self.iter().collect();
            *self = Container::Array(v);
        }
    }

    fn iter(&self) -> ContainerIter<'_> {
        match self {
            Container::Array(v) => ContainerIter::Array(v.iter()),
            Container::Bits(w, _) => ContainerIter::Bits { words: &w[..], wi: 0, word: w[0] },
            Container::Run(runs, _) => ContainerIter::Run { runs: runs.iter(), next: 1, end: 0 },
        }
    }
}

/// Ascending walk over one container's low-16 values. A concrete enum, not
/// a boxed iterator, so walking a bitmap allocates nothing.
#[derive(Debug, Clone)]
enum ContainerIter<'a> {
    Array(std::slice::Iter<'a, u16>),
    /// `word` holds the not-yet-yielded bits of `words[wi]`.
    Bits { words: &'a [u64], wi: usize, word: u64 },
    /// Yields `next..=end` of the current run (empty when `next > end`),
    /// then moves to the next run.
    Run { runs: std::slice::Iter<'a, (u16, u16)>, next: u32, end: u32 },
}

impl Iterator for ContainerIter<'_> {
    type Item = u16;

    #[inline]
    fn next(&mut self) -> Option<u16> {
        match self {
            ContainerIter::Array(it) => it.next().copied(),
            ContainerIter::Bits { words, wi, word } => {
                while *word == 0 {
                    *wi += 1;
                    *word = *words.get(*wi)?;
                }
                let b = word.trailing_zeros();
                *word &= *word - 1;
                Some(((*wi as u32) << 6 | b) as u16)
            }
            ContainerIter::Run { runs, next, end } => {
                if *next > *end {
                    let &(start, len1) = runs.next()?;
                    *next = start as u32;
                    *end = start as u32 + len1 as u32;
                }
                let x = *next as u16;
                *next += 1;
                Some(x)
            }
        }
    }
}

/// Ascending iterator over a [`Bitmap`] (see [`Bitmap::iter`]).
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    chunks: std::collections::btree_map::Iter<'a, u64, Container>,
    /// High bits of the chunk `inner` walks.
    hi: u64,
    inner: ContainerIter<'a>,
}

impl Iterator for Iter<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        loop {
            if let Some(lo) = self.inner.next() {
                return Some(self.hi << 16 | lo as u64);
            }
            let (&hi, c) = self.chunks.next()?;
            self.hi = hi;
            self.inner = c.iter();
        }
    }
}

/// A compressed set of `u64` identifiers.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bitmap {
    chunks: BTreeMap<u64, Container>,
    len: u64,
}

impl Bitmap {
    /// An empty bitmap.
    pub fn new() -> Bitmap {
        Bitmap::default()
    }

    /// Builds from an iterator.
    #[allow(clippy::should_implement_trait)] // also provided via FromIterator
    pub fn from_iter<I: IntoIterator<Item = u64>>(items: I) -> Bitmap {
        let mut b = Bitmap::new();
        for x in items {
            b.insert(x);
        }
        b
    }

    #[inline]
    fn split(x: u64) -> (u64, u16) {
        (x >> 16, (x & 0xFFFF) as u16)
    }

    /// Inserts `x`; returns true when it was new.
    pub fn insert(&mut self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        let fresh = self.chunks.entry(hi).or_insert_with(Container::new).insert(lo);
        if fresh {
            self.len += 1;
        }
        fresh
    }

    /// Removes `x`; returns true when it was present.
    pub fn remove(&mut self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        let Some(c) = self.chunks.get_mut(&hi) else { return false };
        let removed = c.remove(lo);
        if removed {
            self.len -= 1;
            if c.len() == 0 {
                self.chunks.remove(&hi);
            }
        }
        removed
    }

    /// Membership test.
    pub fn contains(&self, x: u64) -> bool {
        let (hi, lo) = Self::split(x);
        self.chunks.get(&hi).is_some_and(|c| c.contains(lo))
    }

    /// Number of elements.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates in ascending order.
    pub fn iter(&self) -> Iter<'_> {
        Iter { chunks: self.chunks.iter(), hi: 0, inner: ContainerIter::Array([].iter()) }
    }

    /// Set union.
    pub fn or(&self, other: &Bitmap) -> Bitmap {
        let mut out = self.clone();
        for x in other.iter() {
            out.insert(x);
        }
        out
    }

    /// Set intersection.
    pub fn and(&self, other: &Bitmap) -> Bitmap {
        let (small, big) = if self.len <= other.len { (self, other) } else { (other, self) };
        let mut out = Bitmap::new();
        for x in small.iter() {
            if big.contains(x) {
                out.insert(x);
            }
        }
        out
    }

    /// Set difference `self \ other`.
    pub fn and_not(&self, other: &Bitmap) -> Bitmap {
        let mut out = Bitmap::new();
        for x in self.iter() {
            if !other.contains(x) {
                out.insert(x);
            }
        }
        out
    }

    /// Re-encodes every chunk in its smallest representation (array,
    /// bitset or run). Call after bulk construction; mutation after
    /// optimization transparently inflates run chunks back.
    pub fn optimize(&mut self) {
        for c in self.chunks.values_mut() {
            c.optimize();
        }
    }

    /// Approximate heap bytes (for cache accounting).
    pub fn size_bytes(&self) -> u64 {
        let mut total = 48u64;
        for c in self.chunks.values() {
            total += 16
                + match c {
                    Container::Array(v) => 24 + 2 * v.capacity() as u64,
                    Container::Bits(_, _) => 8 * BITSET_WORDS as u64 + 8,
                    Container::Run(r, _) => 24 + 4 * r.capacity() as u64,
                };
        }
        total
    }
}

impl FromIterator<u64> for Bitmap {
    fn from_iter<I: IntoIterator<Item = u64>>(iter: I) -> Self {
        Bitmap::from_iter(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64),
        Remove(u64),
        /// `(start, count, step)`: inserts `start + i * step` for `i < count`.
        InsertStride(u64, u64, u64),
        /// Same shape, removing.
        RemoveStride(u64, u64, u64),
        Optimize,
    }

    fn kind(c: &Container) -> &'static str {
        match c {
            Container::Array(_) => "array",
            Container::Bits(..) => "bits",
            Container::Run(..) => "run",
        }
    }

    /// Applies `ops` to a bitmap and to a `BTreeSet` model, checking after
    /// every step that `iter()` yields the model in ascending order and
    /// `len()` equals its count. Returns the container kinds seen.
    fn check_against_model(ops: &[Op]) -> BTreeSet<&'static str> {
        let mut b = Bitmap::new();
        let mut model = BTreeSet::new();
        let mut kinds = BTreeSet::new();
        let stride = |start: u64, count: u64, step: u64| (0..count).map(move |i| start + i * step);
        for op in ops {
            match *op {
                Op::Insert(x) => assert_eq!(b.insert(x), model.insert(x)),
                Op::Remove(x) => assert_eq!(b.remove(x), model.remove(&x)),
                Op::InsertStride(s, n, k) => stride(s, n, k).for_each(|x| {
                    assert_eq!(b.insert(x), model.insert(x));
                }),
                Op::RemoveStride(s, n, k) => stride(s, n, k).for_each(|x| {
                    assert_eq!(b.remove(x), model.remove(&x));
                }),
                Op::Optimize => b.optimize(),
            }
            assert!(b.iter().eq(model.iter().copied()), "after {op:?}");
            assert_eq!(b.len(), model.len() as u64, "after {op:?}");
            kinds.extend(b.chunks.values().map(kind));
        }
        kinds
    }

    /// Values within 4,096 of the chunk boundaries 65,535 | 65,536 and
    /// 131,072 (and of zero).
    fn near_boundary() -> impl Strategy<Value = u64> {
        (0usize..3, 0u64..8192).prop_map(|(e, off)| ([0, 65_536, 131_072][e] + off).saturating_sub(4096))
    }

    fn ops() -> impl Strategy<Value = Vec<Op>> {
        prop::collection::vec(
            prop_oneof![
                4 => near_boundary().prop_map(Op::Insert),
                3 => near_boundary().prop_map(Op::Remove),
                2 => (near_boundary(), 0u64..6000, 1u64..4)
                    .prop_map(|(s, n, k)| Op::InsertStride(s, n, k)),
                2 => (near_boundary(), 0u64..6000, 1u64..4)
                    .prop_map(|(s, n, k)| Op::RemoveStride(s, n, k)),
                1 => Just(Op::Optimize),
            ],
            0..16,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The concrete iterator against a `BTreeSet`, across chunk
        /// boundaries, Array <-> Bits conversions and Run containers.
        #[test]
        fn iter_matches_btreeset(ops in ops()) {
            check_against_model(&ops);
        }
    }

    #[test]
    fn iter_walks_every_container_kind() {
        use Op::*;
        let kinds = check_against_model(&[
            Optimize,                           // empty bitmap
            Insert(65_535),                     // last value of chunk 0
            Insert(65_536),                     // first value of chunk 1
            Insert(131_072),                    // first value of chunk 2
            InsertStride(61_000, 5_000, 2),     // chunk 0 passes 4,096: Array -> Bits
            RemoveStride(61_000, 3_500, 2),     // ... and drops below 2,048: Bits -> Array
            InsertStride(65_536, 10_000, 1),    // chunk 1 becomes a dense range
            Optimize,                           // Bits -> Run
            Insert(65_536 + 20_000),            // mutation re-inflates the run
            Optimize,
            Remove(65_540),                     // ... and so does removal
            RemoveStride(0, 200_000, 1),        // back to empty
        ]);
        assert_eq!(kinds, BTreeSet::from(["array", "bits", "run"]));
    }

    #[test]
    fn insert_contains_remove() {
        let mut b = Bitmap::new();
        assert!(b.insert(5));
        assert!(!b.insert(5));
        assert!(b.insert(1_000_000));
        assert!(b.contains(5));
        assert!(b.contains(1_000_000));
        assert!(!b.contains(6));
        assert_eq!(b.len(), 2);
        assert!(b.remove(5));
        assert!(!b.remove(5));
        assert_eq!(b.len(), 1);
        assert!(!b.contains(5));
    }

    #[test]
    fn iteration_is_sorted() {
        let b = Bitmap::from_iter([9, 1, 70_000, 3, 65_536]);
        let v: Vec<u64> = b.iter().collect();
        assert_eq!(v, vec![1, 3, 9, 65_536, 70_000]);
    }

    #[test]
    fn array_to_bits_conversion_roundtrip() {
        let mut b = Bitmap::new();
        // Exceed ARRAY_MAX within one chunk to force a bitset.
        for i in 0..5000u64 {
            b.insert(i);
        }
        assert_eq!(b.len(), 5000);
        for i in (0..5000u64).step_by(97) {
            assert!(b.contains(i));
        }
        assert!(!b.contains(5001));
        // Shrink back below the hysteresis bound to force array again.
        for i in 0..4000u64 {
            b.remove(i);
        }
        assert_eq!(b.len(), 1000);
        let v: Vec<u64> = b.iter().collect();
        assert_eq!(v, (4000..5000u64).collect::<Vec<_>>());
    }

    #[test]
    fn set_operations() {
        let a = Bitmap::from_iter([1, 2, 3, 100_000]);
        let b = Bitmap::from_iter([2, 3, 4]);
        assert_eq!(a.and(&b).iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(a.or(&b).iter().collect::<Vec<_>>(), vec![1, 2, 3, 4, 100_000]);
        assert_eq!(a.and_not(&b).iter().collect::<Vec<_>>(), vec![1, 100_000]);
        assert_eq!(b.and_not(&a).iter().collect::<Vec<_>>(), vec![4]);
    }

    #[test]
    fn empty_behaviour() {
        let e = Bitmap::new();
        assert!(e.is_empty());
        assert_eq!(e.iter().count(), 0);
        let a = Bitmap::from_iter([1]);
        assert!(e.and(&a).is_empty());
        assert_eq!(e.or(&a), a);
        assert!(e.and_not(&a).is_empty());
        assert_eq!(a.and_not(&e), a);
    }

    #[test]
    fn large_sparse_values() {
        let mut b = Bitmap::new();
        b.insert(u64::MAX - 1);
        b.insert(1 << 40);
        assert!(b.contains(u64::MAX - 1));
        assert!(b.contains(1 << 40));
        assert_eq!(b.iter().collect::<Vec<_>>(), vec![1 << 40, u64::MAX - 1]);
    }

    #[test]
    fn run_optimization_roundtrip() {
        // A dense sequential range compresses to runs and stays readable.
        let mut b = Bitmap::from_iter(1000..30_000u64);
        let before = b.size_bytes();
        b.optimize();
        let after = b.size_bytes();
        assert!(after * 10 < before, "run encoding should shrink: {before} -> {after}");
        assert_eq!(b.len(), 29_000);
        assert!(b.contains(1000) && b.contains(29_999) && !b.contains(30_000));
        assert_eq!(b.iter().count(), 29_000);
        assert_eq!(b.iter().next(), Some(1000));
        assert_eq!(b.iter().last(), Some(29_999));
    }

    #[test]
    fn run_container_mutation_inflates() {
        let mut b = Bitmap::from_iter(0..10_000u64);
        b.optimize();
        assert!(!b.insert(5), "already present");
        assert!(b.insert(20_000), "fresh value after optimize");
        assert!(b.remove(17));
        assert!(!b.remove(17));
        assert_eq!(b.len(), 10_000); // -1 +1
        assert!(!b.contains(17));
        assert!(b.contains(20_000));
    }

    #[test]
    fn optimize_keeps_sparse_as_array() {
        let mut b = Bitmap::from_iter([1u64, 5000, 9000, 30_000]);
        let before = b.clone();
        b.optimize(); // 4 scattered values: runs are not smaller
        assert_eq!(b.iter().collect::<Vec<_>>(), before.iter().collect::<Vec<_>>());
    }

    #[test]
    fn size_bytes_grows_with_density() {
        let sparse = Bitmap::from_iter([1, 1 << 20, 1 << 40]);
        let mut dense = Bitmap::new();
        for i in 0..60_000u64 {
            dense.insert(i);
        }
        assert!(dense.size_bytes() > sparse.size_bytes());
        // A dense chunk costs ~8 KiB regardless of cardinality: compression.
        assert!(dense.size_bytes() < 60_000 * 2);
    }
}
