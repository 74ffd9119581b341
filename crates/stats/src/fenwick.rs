//! Binary indexed tree (Fenwick tree) over `i64` counts.
//!
//! Used by [`crate::reuse::ReuseTracker`] to count, in `O(log n)` over its
//! timestamp window, how many distinct cache lines have been touched since a
//! given logical timestamp.

/// A growable Fenwick tree holding non-negative counts.
///
/// Indices are 0-based on the public API. The tree grows automatically when
/// an index past the current capacity is updated.
///
/// # Example
///
/// ```
/// use emissary_stats::Fenwick;
///
/// let mut f = Fenwick::with_capacity(8);
/// f.add(3, 1);
/// f.add(5, 2);
/// assert_eq!(f.prefix_sum(3), 0); // sum of [0, 3)
/// assert_eq!(f.prefix_sum(6), 3); // sum of [0, 6)
/// assert_eq!(f.range_sum(4, 8), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fenwick {
    /// 1-based internal storage; `tree[0]` is unused.
    tree: Vec<i64>,
}

impl Fenwick {
    /// Creates an empty tree.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a tree able to hold indices `0..capacity` without regrowth.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            tree: vec![0; capacity + 1],
        }
    }

    /// Builds a tree whose slot `i` holds `counts[i]`, in `O(n)`.
    pub fn from_counts(mut counts: Vec<i64>) -> Self {
        counts.insert(0, 0);
        let n = counts.len();
        for i in 1..n {
            let parent = i + (i & i.wrapping_neg());
            if parent < n {
                counts[parent] += counts[i];
            }
        }
        Self { tree: counts }
    }

    /// The count held in every slot, in `O(n)` and in place; inverse of
    /// [`Fenwick::from_counts`].
    pub fn into_counts(self) -> Vec<i64> {
        let mut tree = self.tree;
        let n = tree.len();
        // Undo each node's child sums, parents before children.
        for i in (1..n).rev() {
            let parent = i + (i & i.wrapping_neg());
            if parent < n {
                tree[parent] -= tree[i];
            }
        }
        if n > 0 {
            tree.remove(0);
        }
        tree
    }

    /// Number of addressable slots.
    pub fn len(&self) -> usize {
        self.tree.len().saturating_sub(1)
    }

    /// Whether the tree has no addressable slots.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Adds `delta` to the count at `index`, growing the tree if needed.
    pub fn add(&mut self, index: usize, delta: i64) {
        if index + 1 >= self.tree.len() {
            self.grow(index + 1);
        }
        let mut i = index + 1;
        while i < self.tree.len() {
            self.tree[i] += delta;
            i += i & i.wrapping_neg();
        }
    }

    /// Sum of counts over `[0, end)`.
    pub fn prefix_sum(&self, end: usize) -> i64 {
        let mut i = end.min(self.len());
        let mut sum = 0;
        while i > 0 {
            sum += self.tree[i];
            i -= i & i.wrapping_neg();
        }
        sum
    }

    /// Sum of counts over `[start, end)`.
    pub fn range_sum(&self, start: usize, end: usize) -> i64 {
        if start >= end {
            return 0;
        }
        self.prefix_sum(end) - self.prefix_sum(start)
    }

    /// Total of all counts.
    pub fn total(&self) -> i64 {
        self.prefix_sum(self.len())
    }

    fn grow(&mut self, min_slots: usize) {
        let mut counts = std::mem::take(self).into_counts();
        counts.resize((min_slots + 1).next_power_of_two().max(16) - 1, 0);
        *self = Self::from_counts(counts);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_tree_sums_to_zero() {
        let f = Fenwick::new();
        assert_eq!(f.prefix_sum(0), 0);
        assert_eq!(f.prefix_sum(100), 0);
        assert!(f.is_empty());
    }

    #[test]
    fn point_updates_accumulate() {
        let mut f = Fenwick::with_capacity(10);
        f.add(0, 5);
        f.add(9, 7);
        f.add(0, 1);
        assert_eq!(f.prefix_sum(1), 6);
        assert_eq!(f.prefix_sum(10), 13);
        assert_eq!(f.total(), 13);
    }

    #[test]
    fn range_sum_excludes_ends_correctly() {
        let mut f = Fenwick::with_capacity(16);
        for i in 0..16 {
            f.add(i, 1);
        }
        assert_eq!(f.range_sum(4, 8), 4);
        assert_eq!(f.range_sum(8, 4), 0);
        assert_eq!(f.range_sum(0, 16), 16);
    }

    #[test]
    fn negative_deltas_supported() {
        let mut f = Fenwick::with_capacity(4);
        f.add(2, 3);
        f.add(2, -3);
        assert_eq!(f.total(), 0);
    }

    #[test]
    fn grows_transparently() {
        let mut f = Fenwick::with_capacity(2);
        f.add(1000, 4);
        assert_eq!(f.prefix_sum(1001), 4);
        assert_eq!(f.prefix_sum(1000), 0);
    }

    #[test]
    fn grow_preserves_existing_counts() {
        let mut f = Fenwick::with_capacity(4);
        f.add(0, 1);
        f.add(3, 2);
        f.add(64, 5); // triggers grow
        assert_eq!(f.prefix_sum(4), 3);
        assert_eq!(f.total(), 8);
    }

    #[test]
    fn from_counts_and_into_counts_round_trip() {
        let counts: Vec<i64> = (0..37).map(|i| (i * 7 % 5) - 2).collect();
        let f = Fenwick::from_counts(counts.clone());
        assert_eq!(f.len(), counts.len());
        for end in 0..=counts.len() {
            assert_eq!(f.prefix_sum(end), counts[..end].iter().sum::<i64>());
        }
        assert_eq!(f.into_counts(), counts);
    }

    #[test]
    fn matches_naive_reference() {
        let mut f = Fenwick::new();
        let mut naive = vec![0i64; 200];
        let mut state = 0x9e3779b97f4a7c15u64;
        for _ in 0..500 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let idx = (state % 200) as usize;
            let delta = ((state >> 32) % 5) as i64 - 2;
            f.add(idx, delta);
            naive[idx] += delta;
            let q = ((state >> 16) % 201) as usize;
            let expect: i64 = naive[..q].iter().sum();
            assert_eq!(f.prefix_sum(q), expect);
        }
    }
}
