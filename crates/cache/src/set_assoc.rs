//! A generic set-associative, write-back, LRU cache.
//!
//! The payload type is generic: data caches store 64 B lines, the memory
//! controller's counter cache stores per-page counter blocks. Only
//! metadata policy lives here; what a hit or writeback *means* is the
//! caller's business.

use std::collections::VecDeque;

use ss_common::{BlockAddr, Counter, Cycles, Error, Result, LINE_SIZE};

/// Geometry and latency of one cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    /// Human-readable name for stats ("L1-0", "L4", "counter").
    pub name: String,
    /// Total capacity in bytes (entries × 64 B).
    pub size_bytes: usize,
    /// Associativity.
    pub ways: usize,
    /// Access latency.
    pub latency: Cycles,
}

impl CacheConfig {
    /// Creates and validates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the geometry is degenerate:
    /// zero ways, capacity not a multiple of `ways × 64`, or a non-power-
    /// of-two set count (the indexing function requires it).
    pub fn new(
        name: impl Into<String>,
        size_bytes: usize,
        ways: usize,
        latency: Cycles,
    ) -> Result<Self> {
        let name = name.into();
        if ways == 0 {
            return Err(Error::InvalidConfig {
                detail: format!("{name}: zero ways"),
            });
        }
        if size_bytes == 0 || !size_bytes.is_multiple_of(ways * LINE_SIZE) {
            return Err(Error::InvalidConfig {
                detail: format!("{name}: size {size_bytes} not a multiple of ways*64"),
            });
        }
        let sets = size_bytes / (ways * LINE_SIZE);
        if !sets.is_power_of_two() {
            return Err(Error::InvalidConfig {
                detail: format!("{name}: set count {sets} not a power of two"),
            });
        }
        Ok(CacheConfig {
            name,
            size_bytes,
            ways,
            latency,
        })
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.size_bytes / (self.ways * LINE_SIZE)
    }

    /// Number of line entries.
    pub fn entries(&self) -> usize {
        self.size_bytes / LINE_SIZE
    }
}

/// One resident cache line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Entry<V> {
    /// The line's block address (full tag).
    pub addr: BlockAddr,
    /// Modified relative to the level below.
    pub dirty: bool,
    /// Cached payload.
    pub value: V,
}

/// A line pushed out of the cache.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evicted<V> {
    /// The evicted line's address.
    pub addr: BlockAddr,
    /// Whether it was dirty (must be written to the level below).
    pub dirty: bool,
    /// The payload.
    pub value: V,
}

/// Hit/miss/eviction counters for one cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that found the line.
    pub hits: Counter,
    /// Lookups that missed.
    pub misses: Counter,
    /// Lines displaced by fills.
    pub evictions: Counter,
    /// Evicted lines that were dirty.
    pub dirty_evictions: Counter,
    /// Lines removed by explicit invalidation.
    pub invalidations: Counter,
}

impl CacheStats {
    /// Exports every counter into `reg` under `<prefix>.<name>`.
    pub fn export(&self, reg: &mut ss_trace::MetricsRegistry, prefix: &str) {
        reg.set(&format!("{prefix}.hits"), self.hits.get());
        reg.set(&format!("{prefix}.misses"), self.misses.get());
        reg.set(&format!("{prefix}.evictions"), self.evictions.get());
        reg.set(
            &format!("{prefix}.dirty_evictions"),
            self.dirty_evictions.get(),
        );
        reg.set(&format!("{prefix}.invalidations"), self.invalidations.get());
    }

    /// Miss rate in `[0, 1]` (0 if no accesses).
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

/// The cache proper. Each set keeps its entries in recency order
/// (front = most recent).
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    config: CacheConfig,
    sets: Vec<VecDeque<Entry<V>>>,
    stats: CacheStats,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let sets = (0..config.sets()).map(|_| VecDeque::new()).collect();
        SetAssocCache {
            config,
            sets,
            stats: CacheStats::default(),
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CacheStats {
        &self.stats
    }

    /// Resets statistics (contents are kept).
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    fn set_index(&self, addr: BlockAddr) -> usize {
        ((addr.raw() / LINE_SIZE as u64) % self.sets.len() as u64) as usize
    }

    /// Looks up `addr`, promoting it to MRU on a hit. Counts a hit or miss.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&mut Entry<V>> {
        let set = self.set_index(addr);
        let pos = self.sets[set].iter().position(|e| e.addr == addr);
        match pos {
            Some(i) => {
                self.stats.hits.inc();
                if let Some(entry) = self.sets[set].remove(i) {
                    self.sets[set].push_front(entry);
                }
                self.sets[set].front_mut()
            }
            None => {
                self.stats.misses.inc();
                None
            }
        }
    }

    /// Checks residency without changing LRU order or stats.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.peek(addr).is_some()
    }

    /// The resident entry for `addr`, found by searching its set only.
    /// Leaves LRU order and stats alone.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Entry<V>> {
        let set = self.set_index(addr);
        self.sets[set].iter().find(|e| e.addr == addr)
    }

    /// Inserts (or overwrites) `addr` as MRU. Returns the LRU victim when
    /// the set was full.
    ///
    /// If the line is already resident its payload is replaced and `dirty`
    /// is ORed in; no eviction happens.
    pub fn insert(&mut self, addr: BlockAddr, value: V, dirty: bool) -> Option<Evicted<V>> {
        let ways = self.config.ways;
        let set = self.set_index(addr);
        if let Some(i) = self.sets[set].iter().position(|e| e.addr == addr) {
            if let Some(mut entry) = self.sets[set].remove(i) {
                entry.value = value;
                entry.dirty |= dirty;
                self.sets[set].push_front(entry);
            }
            return None;
        }
        let victim = if self.sets[set].len() >= ways {
            match self.sets[set].pop_back() {
                Some(v) => {
                    self.stats.evictions.inc();
                    if v.dirty {
                        self.stats.dirty_evictions.inc();
                    }
                    Some(Evicted {
                        addr: v.addr,
                        dirty: v.dirty,
                        value: v.value,
                    })
                }
                None => None,
            }
        } else {
            None
        };
        self.sets[set].push_front(Entry { addr, dirty, value });
        victim
    }

    /// Removes `addr` if resident, returning the entry (caller decides
    /// whether a dirty payload must be written back or discarded).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Entry<V>> {
        let set = self.set_index(addr);
        let pos = self.sets[set].iter().position(|e| e.addr == addr)?;
        self.stats.invalidations.inc();
        self.sets[set].remove(pos)
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterates over all resident entries (for drain/flush operations).
    pub fn iter(&self) -> impl Iterator<Item = &Entry<V>> {
        self.sets.iter().flat_map(|s| s.iter())
    }

    /// Removes and returns every resident entry (cache flush).
    pub fn drain(&mut self) -> Vec<Entry<V>> {
        let mut out = Vec::with_capacity(self.len());
        for set in &mut self.sets {
            out.extend(set.drain(..));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(entries: usize, ways: usize) -> SetAssocCache<u64> {
        SetAssocCache::new(
            CacheConfig::new("t", entries * LINE_SIZE, ways, Cycles::new(1)).unwrap(),
        )
    }

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n * LINE_SIZE as u64)
    }

    #[test]
    fn config_validation() {
        assert!(CacheConfig::new("x", 0, 1, Cycles::ZERO).is_err());
        assert!(CacheConfig::new("x", 128, 0, Cycles::ZERO).is_err());
        // 3 sets: not a power of two.
        assert!(CacheConfig::new("x", 3 * 64, 1, Cycles::ZERO).is_err());
        let ok = CacheConfig::new("x", 4 * 64, 2, Cycles::ZERO).unwrap();
        assert_eq!(ok.sets(), 2);
        assert_eq!(ok.entries(), 4);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = cache(4, 2);
        assert!(c.get(a(0)).is_none());
        c.insert(a(0), 1, false);
        assert!(c.get(a(0)).is_some());
        assert_eq!(c.stats().hits.get(), 1);
        assert_eq!(c.stats().misses.get(), 1);
        assert_eq!(c.stats().miss_rate(), 0.5);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = cache(2, 2); // one set of 2 ways? sets=1
        c.insert(a(0), 10, false);
        c.insert(a(1), 11, false);
        c.get(a(0)); // 0 is now MRU
        let evicted = c.insert(a(2), 12, false).expect("set full");
        assert_eq!(evicted.addr, a(1));
        assert!(c.contains(a(0)));
        assert!(c.contains(a(2)));
    }

    #[test]
    fn peek_moves_neither_stats_nor_eviction_order() {
        let mut c = cache(2, 2); // one set of 2 ways
        c.insert(a(0), 10, true);
        c.insert(a(1), 11, false);
        let stats = *c.stats();
        // Entry 0 is LRU; a `get` would promote it, a peek must not.
        let e = c.peek(a(0)).expect("resident");
        assert_eq!((e.addr, e.dirty, e.value), (a(0), true, 10));
        assert!(c.peek(a(2)).is_none());
        assert_eq!(*c.stats(), stats);
        let evicted = c.insert(a(2), 12, false).expect("set full");
        assert_eq!(evicted.addr, a(0));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache(1, 1);
        c.insert(a(0), 5, true);
        let e = c.insert(a(1), 6, false).unwrap();
        assert!(e.dirty);
        assert_eq!(e.value, 5);
        assert_eq!(c.stats().dirty_evictions.get(), 1);
    }

    #[test]
    fn reinsert_merges_dirty_without_eviction() {
        let mut c = cache(1, 1);
        c.insert(a(0), 1, false);
        assert!(c.insert(a(0), 2, true).is_none());
        let e = c.get(a(0)).unwrap();
        assert!(e.dirty);
        assert_eq!(e.value, 2);
    }

    #[test]
    fn invalidate_removes_and_returns() {
        let mut c = cache(4, 2);
        c.insert(a(3), 9, true);
        let e = c.invalidate(a(3)).unwrap();
        assert!(e.dirty);
        assert!(!c.contains(a(3)));
        assert!(c.invalidate(a(3)).is_none());
        assert_eq!(c.stats().invalidations.get(), 1);
    }

    #[test]
    fn addresses_map_to_distinct_sets() {
        let mut c = cache(8, 2); // 4 sets
                                 // Fill lines mapping to different sets; no evictions should occur.
        for i in 0..8 {
            assert!(c.insert(a(i), i, false).is_none());
        }
        assert_eq!(c.len(), 8);
    }

    #[test]
    fn drain_empties() {
        let mut c = cache(4, 2);
        c.insert(a(0), 0, false);
        c.insert(a(1), 1, true);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
    }
}
