//! Online unique-lines reuse-distance measurement (paper §3, Figure 2).
//!
//! Reuse distance is "the number of unique lines accessed between two
//! accesses to the same line"; consecutive accesses to the same line do not
//! count. Distances are bucketed into Short `[0, 100)`, Mid `[100, 5000)`
//! and Long `[5000, ∞)` exactly as in the paper.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::fenwick::Fenwick;

/// Lower bound of the Mid reuse bucket (inclusive).
pub const MID_REUSE_MIN: u64 = 100;
/// Lower bound of the Long reuse bucket (inclusive).
pub const LONG_REUSE_MIN: u64 = 5000;

/// Figure 2's three reuse-distance classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ReuseBucket {
    /// Distance in `[0, 100)`: likely to hit in L1I.
    Short,
    /// Distance in `[100, 5000)`: likely to miss L1I and hit L2.
    Mid,
    /// Distance `>= 5000`: likely to miss in L2.
    Long,
}

impl ReuseBucket {
    /// Classifies a unique-lines reuse distance.
    pub fn classify(distance: u64) -> Self {
        if distance < MID_REUSE_MIN {
            ReuseBucket::Short
        } else if distance < LONG_REUSE_MIN {
            ReuseBucket::Mid
        } else {
            ReuseBucket::Long
        }
    }

    /// All buckets in ascending distance order.
    pub const ALL: [ReuseBucket; 3] = [ReuseBucket::Short, ReuseBucket::Mid, ReuseBucket::Long];

    /// Human-readable label matching the paper's legend.
    pub fn label(self) -> &'static str {
        match self {
            ReuseBucket::Short => "Short Reuse [0-100)",
            ReuseBucket::Mid => "Mid Reuse [100-5000)",
            ReuseBucket::Long => "Long Reuse [>5000)",
        }
    }
}

impl std::fmt::Display for ReuseBucket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Per-bucket access counts plus first-touch (cold) accesses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReuseCounts {
    /// Accesses whose distance fell in the Short bucket.
    pub short: u64,
    /// Accesses whose distance fell in the Mid bucket.
    pub mid: u64,
    /// Accesses whose distance fell in the Long bucket.
    pub long: u64,
    /// First-ever accesses to a line (no defined reuse distance).
    pub cold: u64,
}

impl ReuseCounts {
    /// Total classified accesses, excluding cold first touches.
    pub fn reused_total(&self) -> u64 {
        self.short + self.mid + self.long
    }

    /// Total including cold first touches.
    pub fn total(&self) -> u64 {
        self.reused_total() + self.cold
    }

    /// Count in the given bucket.
    pub fn bucket(&self, b: ReuseBucket) -> u64 {
        match b {
            ReuseBucket::Short => self.short,
            ReuseBucket::Mid => self.mid,
            ReuseBucket::Long => self.long,
        }
    }

    /// Fraction of reused accesses in `b` (0 if nothing reused yet).
    pub fn fraction(&self, b: ReuseBucket) -> f64 {
        let t = self.reused_total();
        if t == 0 {
            0.0
        } else {
            self.bucket(b) as f64 / t as f64
        }
    }

    fn record(&mut self, b: ReuseBucket) {
        match b {
            ReuseBucket::Short => self.short += 1,
            ReuseBucket::Mid => self.mid += 1,
            ReuseBucket::Long => self.long += 1,
        }
    }
}

/// Smallest timestamp window the tracker allocates.
const MIN_WINDOW: usize = 64;

/// Hashes a `u64` line number with one folded 64×64→128-bit multiply, so
/// every output bit depends on every input bit. Line numbers are not
/// attacker-controlled, so SipHash's DoS resistance buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, n: u64) {
        let p = u128::from(n ^ self.0) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Streaming unique-lines reuse-distance tracker.
///
/// `access` costs `O(log U)` in the number of distinct lines `U` seen so far,
/// and the tracker holds `O(U)` state however long the access stream runs.
/// Each line's latest access carries a logical timestamp, and a Fenwick tree
/// over a window of timestamps marks the latest ones, so a line's distance is
/// the number of marks after its previous timestamp. When the window fills,
/// the tracker compacts it: the `U` live timestamps are renumbered to `0..U`
/// in timestamp order and the window is reset to `max(64, 2U)` slots rounded
/// up to a power of two. Renumbering keeps the order of live timestamps, and
/// every distance counts live timestamps between two live ones, so distances
/// are the same as with an unbounded window.
///
/// The simulator calls it once per demand-fetched line, from fetch.
///
/// # Example
///
/// ```
/// use emissary_stats::reuse::{ReuseBucket, ReuseTracker};
///
/// let mut t = ReuseTracker::new();
/// assert_eq!(t.access(10), None); // cold
/// t.access(11);
/// t.access(12);
/// assert_eq!(t.access(10), Some(2)); // lines 11 and 12 in between
/// assert_eq!(t.access(10), None); // consecutive same-line access ignored
/// assert_eq!(t.counts().short, 1);
/// ```
#[derive(Debug, Default)]
pub struct ReuseTracker {
    /// line -> timestamp of its most recent access.
    last_access: HashMap<u64, usize, BuildHasherDefault<LineHasher>>,
    /// Marks timestamps that are the *latest* access of some line; its
    /// length is the timestamp window.
    marks: Fenwick,
    /// Next logical timestamp.
    now: usize,
    /// Most recently accessed line (to skip consecutive repeats).
    prev_line: Option<u64>,
    /// Distance produced by the most recent non-cold, non-repeat access.
    last_distance: Option<u64>,
    counts: ReuseCounts,
}

impl ReuseTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an access to `line` and returns its unique-lines reuse
    /// distance, or `None` for first touches and consecutive repeats.
    pub fn access(&mut self, line: u64) -> Option<u64> {
        if self.prev_line == Some(line) {
            // "The same line accessed consecutively is not counted."
            return None;
        }
        self.prev_line = Some(line);
        if self.now == self.marks.len() {
            self.compact();
        }
        let unique = self.last_access.len();
        let distance = match self.last_access.entry(line) {
            Entry::Occupied(mut e) => {
                let t = std::mem::replace(e.get_mut(), self.now);
                // All `unique` marks lie before `now`, so the marks in
                // (t, now) are the unique lines touched since `t`.
                let d = (unique as i64 - self.marks.prefix_sum(t + 1)) as u64;
                self.marks.add(t, -1);
                Some(d)
            }
            Entry::Vacant(e) => {
                e.insert(self.now);
                self.counts.cold += 1;
                None
            }
        };
        self.marks.add(self.now, 1);
        self.now += 1;
        if let Some(d) = distance {
            self.counts.record(ReuseBucket::classify(d));
            self.last_distance = Some(d);
        }
        distance
    }

    /// Renumbers the live timestamps to `0..U` in order and resets the
    /// window to `max(MIN_WINDOW, 2U)` slots rounded up to a power of two,
    /// leaving at least `U` free slots before the next compaction.
    fn compact(&mut self) {
        // rank[t] = live timestamps before t, which is t's new number if live.
        let mut rank = std::mem::take(&mut self.marks).into_counts();
        let mut live = 0;
        for r in &mut rank {
            live += std::mem::replace(r, live);
        }
        for t in self.last_access.values_mut() {
            *t = rank[*t] as usize;
        }
        let unique = self.last_access.len();
        debug_assert_eq!(live, unique as i64);
        let mut marks = rank;
        marks.clear();
        marks.resize((2 * unique).max(MIN_WINDOW).next_power_of_two(), 0);
        marks[..unique].fill(1);
        self.marks = Fenwick::from_counts(marks);
        self.now = unique;
    }

    /// The distance of the most recent reused access.
    pub fn last_distance(&self) -> Option<u64> {
        self.last_distance
    }

    /// Number of distinct lines seen so far.
    pub fn unique_lines(&self) -> usize {
        self.last_access.len()
    }

    /// Aggregate bucket counts.
    pub fn counts(&self) -> ReuseCounts {
        self.counts
    }

    /// Looks up the bucket a line's *next* access would currently fall in,
    /// i.e. the number of unique lines touched since its last access.
    ///
    /// Returns `None` for never-seen lines.
    pub fn current_distance(&self, line: u64) -> Option<u64> {
        let t = self.last_access.get(&line).copied()?;
        Some((self.last_access.len() as i64 - self.marks.prefix_sum(t + 1)) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// O(n²) reference: scan back through an explicit access log.
    fn naive_distances(stream: &[u64]) -> Vec<Option<u64>> {
        let mut out = Vec::new();
        let mut log: Vec<u64> = Vec::new();
        for (i, &line) in stream.iter().enumerate() {
            if i > 0 && stream[i - 1] == line {
                out.push(None);
                log.push(line);
                continue;
            }
            let mut seen = std::collections::HashSet::new();
            let mut found = None;
            for &past in log.iter().rev() {
                if past == line {
                    found = Some(seen.len() as u64);
                    break;
                }
                seen.insert(past);
            }
            out.push(found);
            log.push(line);
        }
        out
    }

    #[test]
    fn cold_access_has_no_distance() {
        let mut t = ReuseTracker::new();
        assert_eq!(t.access(1), None);
        assert_eq!(t.counts().cold, 1);
    }

    #[test]
    fn simple_distance() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        t.access(3);
        assert_eq!(t.access(1), Some(2));
    }

    #[test]
    fn consecutive_repeats_ignored() {
        let mut t = ReuseTracker::new();
        t.access(1);
        assert_eq!(t.access(1), None);
        assert_eq!(t.access(1), None);
        t.access(2);
        assert_eq!(t.access(1), Some(1));
    }

    #[test]
    fn duplicate_intervening_lines_count_once() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        t.access(3);
        t.access(2);
        t.access(3);
        t.access(2);
        // Unique lines since last access of 1: {2, 3} => 2.
        assert_eq!(t.access(1), Some(2));
    }

    #[test]
    fn buckets_classify_at_boundaries() {
        assert_eq!(ReuseBucket::classify(0), ReuseBucket::Short);
        assert_eq!(ReuseBucket::classify(99), ReuseBucket::Short);
        assert_eq!(ReuseBucket::classify(100), ReuseBucket::Mid);
        assert_eq!(ReuseBucket::classify(4999), ReuseBucket::Mid);
        assert_eq!(ReuseBucket::classify(5000), ReuseBucket::Long);
        assert_eq!(ReuseBucket::classify(u64::MAX), ReuseBucket::Long);
    }

    #[test]
    fn matches_naive_reference_on_random_stream() {
        let mut state = 0xdeadbeefu64;
        let mut stream = Vec::new();
        for _ in 0..800 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            stream.push(state % 40);
        }
        let expect = naive_distances(&stream);
        let mut t = ReuseTracker::new();
        for (i, &line) in stream.iter().enumerate() {
            assert_eq!(t.access(line), expect[i], "mismatch at access {i}");
        }
    }

    #[test]
    fn counts_partition_accesses() {
        let mut t = ReuseTracker::new();
        for i in 0..200u64 {
            t.access(i);
        }
        for i in 0..200u64 {
            t.access(i); // distance 199 each => Mid
        }
        let c = t.counts();
        assert_eq!(c.cold, 200);
        assert_eq!(c.mid, 200);
        assert_eq!(c.total(), 400);
        assert!((c.fraction(ReuseBucket::Mid) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn state_stays_proportional_to_unique_lines() {
        let mut t = ReuseTracker::new();
        let mut state = 0x2545f4914f6cdd1du64;
        for _ in 0..1_000_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            t.access(state % 1000);
        }
        let bound = 4 * t.unique_lines().max(MIN_WINDOW);
        assert_eq!(t.unique_lines(), 1000);
        assert!(t.marks.len() <= bound, "window {} > {bound}", t.marks.len());
        assert!(t.now <= t.marks.len());
    }

    #[test]
    fn current_distance_peeks_without_recording() {
        let mut t = ReuseTracker::new();
        t.access(1);
        t.access(2);
        assert_eq!(t.current_distance(1), Some(1));
        assert_eq!(t.current_distance(1), Some(1)); // unchanged
        assert_eq!(t.current_distance(99), None);
    }
}
