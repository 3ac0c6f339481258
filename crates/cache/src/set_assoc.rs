//! A generic set-associative, write-back, LRU cache.
//!
//! The payload type is generic: data caches store 64 B lines, the memory
//! controller's counter cache stores per-page counter blocks. Only
//! metadata policy lives here; what a hit or writeback *means* is the
//! caller's business.

use std::ops::Range;

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
    /// zero ways or more than 256 (a way's recency rank is one byte),
    /// capacity not a multiple of `ways × 64`, or a non-power-of-two set
    /// count (the indexing function requires it).
    pub fn new(
        name: impl Into<String>,
        size_bytes: usize,
        ways: usize,
        latency: Cycles,
    ) -> Result<Self> {
        let name = name.into();
        if ways == 0 || ways > 256 {
            return Err(Error::InvalidConfig {
                detail: format!("{name}: {ways} ways not in 1..=256"),
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

/// What [`SetAssocCache::insert`] did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Inserted<V> {
    /// The line was not resident before: it took a slot. `false` when
    /// an overwrite replaced a resident line's payload.
    pub new: bool,
    /// The LRU entry the new line displaced from a full set.
    pub victim: Option<Evicted<V>>,
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

/// The cache proper, stored flat.
///
/// Set `s` owns slots `s·ways .. (s+1)·ways` of three arrays: `tags`,
/// the resident lines' addresses (eight ways of a set are 64 contiguous
/// bytes); `ranks`, their recency (0 = most recent); and `entries`, the
/// lines themselves. A set's occupied slots are always its first
/// `lens[s]`. A hit searches the set's tags and re-ranks the set: no
/// entry moves.
#[derive(Debug, Clone)]
pub struct SetAssocCache<V> {
    config: CacheConfig,
    /// `sets − 1`: a line's set is its line number masked with this.
    mask: u64,
    /// Per slot, the address of the entry there. The lookup truth;
    /// slots past a set's length hold stale values.
    tags: Vec<u64>,
    /// Per slot, the entry's rank in its set's recency order.
    ranks: Vec<u8>,
    /// Per slot, the entry; `None` past the set's length. Empty until
    /// the first insert: safe Rust cannot allocate the generic entries
    /// zero-filled, so they are written when the cache is first filled.
    entries: Vec<Option<Entry<V>>>,
    /// Per set, how many of its slots hold entries.
    lens: Vec<u16>,
    stats: CacheStats,
}

impl<V> SetAssocCache<V> {
    /// Creates an empty cache.
    pub fn new(config: CacheConfig) -> Self {
        let (sets, slots) = (config.sets(), config.entries());
        SetAssocCache {
            mask: sets as u64 - 1,
            // Zero-filled allocations.
            tags: vec![0; slots],
            ranks: vec![0; slots],
            entries: Vec::new(),
            lens: vec![0; sets],
            stats: CacheStats::default(),
            config,
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

    /// The slots of `set` that hold entries.
    fn slots(&self, set: usize) -> Range<usize> {
        let base = set * self.config.ways;
        base..base + usize::from(self.lens[set])
    }

    /// `addr`'s set, and its slot if it is resident.
    fn find(&self, addr: BlockAddr) -> (usize, Option<usize>) {
        let set = ((addr.raw() / LINE_SIZE as u64) & self.mask) as usize;
        let slots = self.slots(set);
        let way = self.tags[slots.clone()]
            .iter()
            .position(|&tag| tag == addr.raw());
        (set, way.map(|way| slots.start + way))
    }

    /// Makes the entry in `slot` the most recent of `set` and returns
    /// it; the entries that were more recent age by one.
    fn promote(&mut self, set: usize, slot: usize) -> Option<&mut Entry<V>> {
        let rank = self.ranks[slot];
        let slots = self.slots(set);
        for r in &mut self.ranks[slots] {
            *r += u8::from(*r < rank);
        }
        self.ranks[slot] = 0;
        self.entries[slot].as_mut()
    }

    /// Looks up `addr`, promoting it to MRU on a hit. Counts a hit or miss.
    ///
    /// The tags, not [`Entry::addr`], are the lookup truth: callers
    /// change an entry's `value` and `dirty` through this, never its
    /// `addr`.
    pub fn get(&mut self, addr: BlockAddr) -> Option<&mut Entry<V>> {
        let (set, slot) = self.find(addr);
        match slot {
            Some(_) => self.stats.hits.inc(),
            None => self.stats.misses.inc(),
        }
        self.promote(set, slot?)
    }

    /// [`SetAssocCache::get`] without the hit or miss count: for a
    /// second look at a line that an access has already counted.
    pub fn touch(&mut self, addr: BlockAddr) -> Option<&mut Entry<V>> {
        let (set, slot) = self.find(addr);
        self.promote(set, slot?)
    }

    /// Checks residency without changing LRU order or stats.
    pub fn contains(&self, addr: BlockAddr) -> bool {
        self.find(addr).1.is_some()
    }

    /// The resident entry for `addr`, found by searching its set only.
    /// Leaves LRU order and stats alone.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Entry<V>> {
        self.entries[self.find(addr).1?].as_ref()
    }

    /// Inserts (or overwrites) `addr` as MRU. Reports whether the line is
    /// new, and the LRU victim when the set was full.
    ///
    /// If the line is already resident its payload is replaced and `dirty`
    /// is ORed in; no eviction happens.
    pub fn insert(&mut self, addr: BlockAddr, value: V, dirty: bool) -> Inserted<V> {
        let (set, slot) = self.find(addr);
        if let Some(slot) = slot {
            if let Some(entry) = self.promote(set, slot) {
                entry.value = value;
                entry.dirty |= dirty;
            }
            return Inserted {
                new: false,
                victim: None,
            };
        }
        Inserted {
            new: true,
            victim: self.fill(set, addr, value, dirty),
        }
    }

    /// Puts the non-resident `addr` into `set` as MRU, and returns the
    /// victim when the set was full.
    fn fill(&mut self, set: usize, addr: BlockAddr, value: V, dirty: bool) -> Option<Evicted<V>> {
        let entry = Some(Entry { addr, dirty, value });
        let slots = self.slots(set);
        let len = slots.len();
        if len < self.config.ways {
            // A free slot: the new entry enters below every other one,
            // then is promoted over them.
            if self.entries.is_empty() {
                self.entries = std::iter::repeat_with(|| None)
                    .take(self.tags.len())
                    .collect();
            }
            self.lens[set] += 1;
            self.tags[slots.end] = addr.raw();
            self.ranks[slots.end] = len as u8;
            self.entries[slots.end] = entry;
            self.promote(set, slots.end);
            return None;
        }
        // A full set: the least recent entry, rank `ways − 1`, makes room.
        let way = self.ranks[slots.clone()]
            .iter()
            .position(|&r| usize::from(r) == len - 1)?;
        let slot = slots.start + way;
        self.tags[slot] = addr.raw();
        let victim = std::mem::replace(&mut self.entries[slot], entry)?;
        self.promote(set, slot);
        self.stats.evictions.inc();
        if victim.dirty {
            self.stats.dirty_evictions.inc();
        }
        Some(Evicted {
            addr: victim.addr,
            dirty: victim.dirty,
            value: victim.value,
        })
    }

    /// Removes `addr` if resident, returning the entry (caller decides
    /// whether a dirty payload must be written back or discarded).
    pub fn invalidate(&mut self, addr: BlockAddr) -> Option<Entry<V>> {
        let (set, slot) = self.find(addr);
        let slot = slot?;
        self.stats.invalidations.inc();
        // The less recent entries move up one rank, and the set's last
        // slot fills the hole, so the occupied slots stay a prefix.
        let slots = self.slots(set);
        let rank = self.ranks[slot];
        for r in &mut self.ranks[slots.clone()] {
            *r -= u8::from(*r > rank);
        }
        let last = slots.end - 1;
        self.tags[slot] = self.tags[last];
        self.ranks[slot] = self.ranks[last];
        self.entries.swap(slot, last);
        self.lens[set] -= 1;
        self.entries[last].take()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lens.iter().map(|&len| usize::from(len)).sum()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The slots of `set` from its most to its least recent entry.
    fn by_rank(&self, set: usize) -> impl Iterator<Item = usize> + '_ {
        let slots = self.slots(set);
        let ranks = &self.ranks[slots.clone()];
        (0..slots.len()).filter_map(move |rank| {
            let way = ranks.iter().position(|&r| usize::from(r) == rank)?;
            Some(slots.start + way)
        })
    }

    /// Iterates over all resident entries (for drain/flush operations):
    /// sets in index order, each from most to least recent.
    pub fn iter(&self) -> impl Iterator<Item = &Entry<V>> {
        (0..self.lens.len())
            .flat_map(move |set| self.by_rank(set))
            .filter_map(move |slot| self.entries[slot].as_ref())
    }

    /// Removes and returns every resident entry (cache flush), in
    /// [`SetAssocCache::iter`] order.
    pub fn drain(&mut self) -> Vec<Entry<V>> {
        let order: Vec<usize> = (0..self.lens.len())
            .flat_map(|set| self.by_rank(set))
            .collect();
        self.lens.fill(0);
        order
            .into_iter()
            .filter_map(|slot| self.entries[slot].take())
            .collect()
    }
}

/// The cache before its flat layout: one recency-ordered `VecDeque` per
/// set (front = most recent). Kept as the oracle that
/// `flat_cache_matches_the_deque_cache` drives in lockstep with
/// [`SetAssocCache`].
#[cfg(test)]
mod reference {
    use std::collections::VecDeque;

    use ss_common::{BlockAddr, LINE_SIZE};

    use super::{CacheConfig, CacheStats, Entry, Evicted, Inserted};

    pub(super) struct DequeCache<V> {
        ways: usize,
        sets: Vec<VecDeque<Entry<V>>>,
        pub(super) stats: CacheStats,
    }

    impl<V> DequeCache<V> {
        pub(super) fn new(config: &CacheConfig) -> Self {
            DequeCache {
                ways: config.ways,
                sets: (0..config.sets()).map(|_| VecDeque::new()).collect(),
                stats: CacheStats::default(),
            }
        }

        fn set_index(&self, addr: BlockAddr) -> usize {
            ((addr.raw() / LINE_SIZE as u64) % self.sets.len() as u64) as usize
        }

        fn position(&self, addr: BlockAddr) -> (usize, Option<usize>) {
            let set = self.set_index(addr);
            (set, self.sets[set].iter().position(|e| e.addr == addr))
        }

        pub(super) fn get(&mut self, addr: BlockAddr) -> Option<&mut Entry<V>> {
            match self.position(addr).1 {
                Some(_) => self.stats.hits.inc(),
                None => self.stats.misses.inc(),
            }
            self.touch(addr)
        }

        pub(super) fn touch(&mut self, addr: BlockAddr) -> Option<&mut Entry<V>> {
            let (set, pos) = self.position(addr);
            let entry = self.sets[set].remove(pos?)?;
            self.sets[set].push_front(entry);
            self.sets[set].front_mut()
        }

        pub(super) fn peek(&self, addr: BlockAddr) -> Option<&Entry<V>> {
            let set = self.set_index(addr);
            self.sets[set].iter().find(|e| e.addr == addr)
        }

        pub(super) fn insert(&mut self, addr: BlockAddr, value: V, dirty: bool) -> Inserted<V> {
            let (set, pos) = self.position(addr);
            if let Some(mut entry) = pos.and_then(|i| self.sets[set].remove(i)) {
                entry.value = value;
                entry.dirty |= dirty;
                self.sets[set].push_front(entry);
                return Inserted {
                    new: false,
                    victim: None,
                };
            }
            let victim = if self.sets[set].len() >= self.ways {
                self.sets[set].pop_back().map(|v| {
                    self.stats.evictions.inc();
                    if v.dirty {
                        self.stats.dirty_evictions.inc();
                    }
                    Evicted {
                        addr: v.addr,
                        dirty: v.dirty,
                        value: v.value,
                    }
                })
            } else {
                None
            };
            self.sets[set].push_front(Entry { addr, dirty, value });
            Inserted { new: true, victim }
        }

        pub(super) fn invalidate(&mut self, addr: BlockAddr) -> Option<Entry<V>> {
            let (set, pos) = self.position(addr);
            let i = pos?;
            self.stats.invalidations.inc();
            self.sets[set].remove(i)
        }

        pub(super) fn len(&self) -> usize {
            self.sets.iter().map(VecDeque::len).sum()
        }

        pub(super) fn iter(&self) -> impl Iterator<Item = &Entry<V>> {
            self.sets.iter().flat_map(|s| s.iter())
        }

        pub(super) fn drain(&mut self) -> Vec<Entry<V>> {
            self.sets.iter_mut().flat_map(|s| s.drain(..)).collect()
        }
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
        assert!(CacheConfig::new("x", 257 * 64, 257, Cycles::ZERO).is_err());
        assert!(CacheConfig::new("x", 256 * 64, 256, Cycles::ZERO).is_ok());
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
        let evicted = c.insert(a(2), 12, false).victim.expect("set full");
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
        let evicted = c.insert(a(2), 12, false).victim.expect("set full");
        assert_eq!(evicted.addr, a(0));
    }

    #[test]
    fn dirty_eviction_reported() {
        let mut c = cache(1, 1);
        c.insert(a(0), 5, true);
        let e = c.insert(a(1), 6, false).victim.unwrap();
        assert!(e.dirty);
        assert_eq!(e.value, 5);
        assert_eq!(c.stats().dirty_evictions.get(), 1);
    }

    #[test]
    fn reinsert_merges_dirty_without_eviction() {
        let mut c = cache(1, 1);
        assert!(c.insert(a(0), 1, false).new);
        assert_eq!(
            c.insert(a(0), 2, true),
            Inserted {
                new: false,
                victim: None
            }
        );
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
            assert!(c.insert(a(i), i, false).victim.is_none());
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

    #[test]
    fn flat_cache_matches_the_deque_cache() {
        for (ways, sets) in [1, 2, 8]
            .into_iter()
            .flat_map(|w| [1, 4, 64].map(|s| (w, s)))
        {
            let entries = (ways * sets) as u64;
            let config =
                CacheConfig::new("t", ways * sets * LINE_SIZE, ways, Cycles::new(1)).unwrap();
            let mut flat: SetAssocCache<u64> = SetAssocCache::new(config.clone());
            let mut oracle = reference::DequeCache::new(&config);
            let mut rng = ss_common::DetRng::new(0x5E7_A550C + entries);
            let mut overwrites = 0;
            for step in 0..10_000 {
                // Half the lines from a window half the cache's size, so
                // lines hit and re-rank; half from three times its size,
                // so sets fill and evict.
                let span = if rng.below(2) == 0 {
                    entries / 2 + 1
                } else {
                    3 * entries
                };
                let addr = a(rng.below(span));
                let value = rng.next_u64();
                let what = format!("{ways} ways x {sets} sets, step {step}");
                match rng.below(10_000) {
                    0..=2999 => {
                        let (got, want) = if value.is_multiple_of(4) {
                            (flat.touch(addr), oracle.touch(addr))
                        } else {
                            (flat.get(addr), oracle.get(addr))
                        };
                        assert_eq!(got.as_deref(), want.as_deref(), "get/touch: {what}");
                        // Callers clean or rewrite the entry they got.
                        if let (Some(got), Some(want)) = (got, want) {
                            for e in [got, want] {
                                e.dirty &= !value.is_multiple_of(3);
                                e.value ^= value % 5;
                            }
                        }
                    }
                    3000..=3999 => assert_eq!(flat.peek(addr), oracle.peek(addr), "peek: {what}"),
                    4000..=4499 => assert_eq!(
                        flat.contains(addr),
                        oracle.peek(addr).is_some(),
                        "contains: {what}"
                    ),
                    4500..=7499 => {
                        let dirty = value.is_multiple_of(2);
                        let want = oracle.insert(addr, value, dirty);
                        overwrites += u32::from(!want.new);
                        assert_eq!(flat.insert(addr, value, dirty), want, "insert: {what}");
                    }
                    7500..=8499 => assert_eq!(
                        flat.invalidate(addr),
                        oracle.invalidate(addr),
                        "invalidate: {what}"
                    ),
                    8500..=9499 => assert!(flat.iter().eq(oracle.iter()), "iter: {what}"),
                    9500..=9997 => assert_eq!(flat.len(), oracle.len(), "len: {what}"),
                    _ => assert_eq!(flat.drain(), oracle.drain(), "drain: {what}"),
                }
                assert_eq!(flat.stats(), &oracle.stats, "stats: {what}");
                assert_eq!(flat.len(), oracle.len(), "len: {what}");
            }
            assert_eq!(flat.drain(), oracle.drain());
            // Every path was taken: hits, misses, overwrites, evictions
            // of dirty lines and invalidations.
            let st = oracle.stats;
            assert!(st.hits.get() > 0 && st.misses.get() > 0, "{st:?}");
            assert!(overwrites > 0, "no insert overwrote a resident line");
            assert!(
                st.dirty_evictions.get() > 0 && st.invalidations.get() > 0,
                "{st:?}"
            );
        }
    }
}
