//! Statistics primitives used by every simulated component.
//!
//! The evaluation metrics in the paper are all derived from counts and
//! latencies collected at the memory controller and the cores:
//! writes to NVM (Fig. 8), read traffic (Fig. 9), mean read latency
//! (Fig. 10), IPC (Fig. 11) and counter-cache miss rate (Fig. 12).

use std::fmt;

use crate::time::Cycles;

/// A monotonically increasing event counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counter(u64);

impl Counter {
    /// Creates a zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Adds one.
    pub fn inc(&mut self) {
        self.0 += 1;
    }

    /// Adds `n`.
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    pub const fn get(self) -> u64 {
        self.0
    }
}

impl fmt::Display for Counter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// Number of power-of-two latency buckets: bucket 0 holds the value 0,
/// bucket `i` (1..=64) holds `[2^(i-1), 2^i)`.
const LATENCY_BUCKETS: usize = 65;

/// Aggregates a stream of latencies: count, sum, min, max, plus a fixed
/// power-of-two histogram so percentiles can be estimated without
/// storing samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyStat {
    count: u64,
    total: Cycles,
    min: Cycles,
    max: Cycles,
    hist: [u64; LATENCY_BUCKETS],
}

// Hand-written to match the previously derived impl exactly: `min`
// starts at 0 here (vs `u64::MAX` in `new()`), and downstream stats
// containers are built via `Default`.
impl Default for LatencyStat {
    fn default() -> Self {
        LatencyStat {
            count: 0,
            total: Cycles::ZERO,
            min: Cycles::ZERO,
            max: Cycles::ZERO,
            hist: [0; LATENCY_BUCKETS],
        }
    }
}

/// Index of the histogram bucket holding `v`.
const fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// Largest value held by bucket `idx` (inclusive).
const fn bucket_upper(idx: usize) -> u64 {
    if idx == 0 {
        0
    } else if idx >= 64 {
        u64::MAX
    } else {
        (1u64 << idx) - 1
    }
}

impl LatencyStat {
    /// Creates an empty aggregate.
    pub const fn new() -> Self {
        LatencyStat {
            count: 0,
            total: Cycles::ZERO,
            min: Cycles(u64::MAX),
            max: Cycles::ZERO,
            hist: [0; LATENCY_BUCKETS],
        }
    }

    /// Records one observation.
    pub fn record(&mut self, lat: Cycles) {
        self.count += 1;
        self.total += lat;
        if lat < self.min {
            self.min = lat;
        }
        if lat > self.max {
            self.max = lat;
        }
        self.hist[bucket_of(lat.raw())] += 1;
    }

    /// Number of observations.
    pub const fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub const fn total(&self) -> Cycles {
        self.total
    }

    /// Mean latency in cycles (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total.raw() as f64 / self.count as f64
        }
    }

    /// Smallest observation, or `None` if empty.
    pub fn min(&self) -> Option<Cycles> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observation, or `None` if empty.
    pub fn max(&self) -> Option<Cycles> {
        (self.count > 0).then_some(self.max)
    }

    /// Nearest-rank percentile estimate over the fixed histogram, or
    /// `None` if empty. `p` is clamped to `0..=100`; `percentile(50)`
    /// is the median, `percentile(100)` the maximum.
    ///
    /// Deterministic by construction: the histogram holds only integer
    /// counts in power-of-two buckets, and the estimate returned for a
    /// rank is the bucket's upper bound clamped to the observed
    /// maximum. The estimate therefore never exceeds a real
    /// observation and is exact whenever the bucket is degenerate
    /// (e.g. all-equal latencies).
    pub fn percentile(&self, p: u8) -> Option<Cycles> {
        if self.count == 0 {
            return None;
        }
        let p = u64::from(p.min(100));
        // Nearest rank: ceil(p/100 * count), clamped to at least 1.
        let rank = ((p * self.count).div_ceil(100)).max(1);
        let mut seen = 0u64;
        for (idx, &n) in self.hist.iter().enumerate() {
            seen += n;
            if seen >= rank {
                return Some(Cycles::new(bucket_upper(idx).min(self.max.raw())));
            }
        }
        self.max()
    }

    /// Merges another aggregate into this one.
    pub fn merge(&mut self, other: &LatencyStat) {
        self.count += other.count;
        self.total += other.total;
        if other.count > 0 {
            if other.min < self.min {
                self.min = other.min;
            }
            if other.max > self.max {
                self.max = other.max;
            }
        }
        for (b, o) in self.hist.iter_mut().zip(other.hist.iter()) {
            *b += o;
        }
    }
}

impl fmt::Display for LatencyStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n={} mean={:.1} cyc", self.count, self.mean())
    }
}

/// Kind of main-memory access, for classified accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MemAccessKind {
    /// Demand read of a data block.
    Read,
    /// Write-back of a dirty data block.
    Write,
    /// Read of an encryption-counter block.
    CounterRead,
    /// Write of an encryption-counter block.
    CounterWrite,
}

/// Classified main-memory traffic counters, as sampled at the NVMM
/// controller. `zeroing_writes` tracks the subset of writes caused by
/// page shredding, which is exactly the traffic Silent Shredder removes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemStats {
    /// Demand reads that reached the NVM array.
    pub reads: Counter,
    /// Data writes that reached the NVM array.
    pub writes: Counter,
    /// Subset of `writes` issued by the kernel zeroing path.
    pub zeroing_writes: Counter,
    /// Reads satisfied by the controller's zero-fill path without touching
    /// the NVM array (Silent Shredder only).
    pub zero_fill_reads: Counter,
    /// Counter-block reads from NVM (counter-cache misses).
    pub counter_reads: Counter,
    /// Counter-block writes to NVM.
    pub counter_writes: Counter,
    /// Latency of demand reads as seen by the LLC.
    pub read_latency: LatencyStat,
}

impl MemStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Merges another sample into this one.
    pub fn merge(&mut self, other: &MemStats) {
        self.reads.add(other.reads.get());
        self.writes.add(other.writes.get());
        self.zeroing_writes.add(other.zeroing_writes.get());
        self.zero_fill_reads.add(other.zero_fill_reads.get());
        self.counter_reads.add(other.counter_reads.get());
        self.counter_writes.add(other.counter_writes.get());
        self.read_latency.merge(&other.read_latency);
    }
}

impl fmt::Display for MemStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "reads={} writes={} (zeroing={}) zero-fill={} ctr r/w={}/{}",
            self.reads,
            self.writes,
            self.zeroing_writes,
            self.zero_fill_reads,
            self.counter_reads,
            self.counter_writes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.to_string(), "5");
    }

    #[test]
    fn latency_stat_aggregates() {
        let mut s = LatencyStat::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), None);
        s.record(Cycles::new(10));
        s.record(Cycles::new(30));
        assert_eq!(s.count(), 2);
        assert_eq!(s.mean(), 20.0);
        assert_eq!(s.min(), Some(Cycles::new(10)));
        assert_eq!(s.max(), Some(Cycles::new(30)));
    }

    #[test]
    fn latency_stat_merge() {
        let mut a = LatencyStat::new();
        a.record(Cycles::new(5));
        let mut b = LatencyStat::new();
        b.record(Cycles::new(15));
        b.record(Cycles::new(1));
        a.merge(&b);
        assert_eq!(a.count(), 3);
        assert_eq!(a.min(), Some(Cycles::new(1)));
        assert_eq!(a.max(), Some(Cycles::new(15)));
        // Merging an empty aggregate changes nothing.
        let before = a;
        a.merge(&LatencyStat::new());
        assert_eq!(a, before);
    }

    #[test]
    fn percentile_is_nearest_rank_over_buckets() {
        let mut s = LatencyStat::new();
        assert_eq!(s.percentile(50), None);
        // 100 observations of 100 cycles: every percentile is exact.
        for _ in 0..100 {
            s.record(Cycles::new(100));
        }
        assert_eq!(s.percentile(0), Some(Cycles::new(100)));
        assert_eq!(s.percentile(50), Some(Cycles::new(100)));
        assert_eq!(s.percentile(99), Some(Cycles::new(100)));
        assert_eq!(s.percentile(100), Some(Cycles::new(100)));
    }

    #[test]
    fn percentile_separates_fast_and_slow_tails() {
        let mut s = LatencyStat::new();
        // 99 fast reads at 10 cycles, 1 slow read at 5000 cycles.
        for _ in 0..99 {
            s.record(Cycles::new(10));
        }
        s.record(Cycles::new(5000));
        let p50 = s.percentile(50).unwrap();
        let p99 = s.percentile(99).unwrap();
        let p100 = s.percentile(100).unwrap();
        // p50/p99 land in the bucket holding 10 ([8, 15]); p100 is the
        // observed maximum.
        assert!(p50.raw() >= 10 && p50.raw() <= 15, "p50={p50:?}");
        assert_eq!(p50, p99);
        assert_eq!(p100, Cycles::new(5000));
        // The estimate never exceeds the observed max.
        assert!(p99 <= p100);
    }

    #[test]
    fn percentile_survives_merge_and_over_100_clamp() {
        let mut a = LatencyStat::new();
        a.record(Cycles::new(1));
        let mut b = LatencyStat::new();
        b.record(Cycles::new(1 << 20));
        a.merge(&b);
        assert_eq!(a.percentile(50), Some(Cycles::new(1)));
        assert_eq!(a.percentile(200), a.max());
    }

    #[test]
    fn default_latency_stat_matches_historical_derive() {
        // `Default` keeps min at 0 (the old derived behaviour) while
        // `new()` arms it at u64::MAX; reports built on Default must not
        // shift bytes.
        let d = LatencyStat::default();
        assert_eq!(d.count(), 0);
        let mut d2 = LatencyStat::default();
        d2.record(Cycles::new(7));
        assert_eq!(d2.min(), Some(Cycles::ZERO));
    }

    #[test]
    fn mem_stats_merge_and_display() {
        let mut m = MemStats::new();
        m.writes.add(10);
        m.zeroing_writes.add(4);
        m.reads.add(3);
        m.counter_reads.add(2);
        m.counter_writes.add(1);
        let mut n = MemStats::new();
        n.merge(&m);
        assert_eq!(n, m);
        assert!(!m.to_string().is_empty());
    }
}
