//! The multi-core, 4-level cache hierarchy.
//!
//! Geometry defaults to, and latencies are fixed at, Table 1: per-core
//! L1 (64 KiB, 2 cyc) and L2 (512 KiB, 8 cyc), shared L3 (8 MiB, 25 cyc)
//! and L4 (64 MiB, 35 cyc), all 8-way with 64 B lines. Probing is
//! cumulative: a hit at L3 costs `lat(L1)+lat(L2)+lat(L3)`.
//!
//! Coherence is a MESI-style invalidate protocol between the cores'
//! private levels, implemented with a sharer directory:
//!
//! * a **write** invalidates every other core's copy (taking over any
//!   dirty data);
//! * a **read** that finds a remote dirty copy forwards the data, parks
//!   the latest version in the shared L3 and downgrades the owner to
//!   clean;
//! * dirty evictions cascade down (L1→L2→L3→L4→memory) so the newest
//!   committed version is never dropped.
//!
//! [`Hierarchy::invalidate_page`] implements the bulk invalidation a
//! shred command or a non-temporal zeroing pass sends (Fig. 6, step 2).

use std::collections::BTreeMap;

use ss_common::{BlockAddr, Cycles, PageId, Result, BLOCKS_PER_PAGE, LINE_SIZE};

use crate::set_assoc::{CacheConfig, CacheStats, SetAssocCache};

/// A 64-byte cache line payload.
pub type Line = [u8; LINE_SIZE];

/// The four data-cache levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Level {
    /// Private per-core L1.
    L1,
    /// Private per-core L2.
    L2,
    /// Shared L3.
    L3,
    /// Shared L4 (the LLC).
    L4,
}

/// What kind of demand access is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store that overwrites the whole line (no fetch needed on miss).
    WriteLineNoFetch,
    /// A store to part of a line (read-for-ownership on miss).
    WritePartial,
}

/// Outcome of a demand access against the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycles spent probing (and possibly snooping). Excludes any memory
    /// fetch, which the caller performs and adds.
    pub latency: Cycles,
    /// Which level hit, if any.
    pub hit_level: Option<Level>,
    /// Data observed (valid for reads that hit; `None` when a fetch is
    /// required).
    pub data: Option<Line>,
    /// `true` when the caller must fetch the line from the memory
    /// controller and complete the access with [`Hierarchy::fill`].
    pub needs_fetch: bool,
    /// Dirty lines pushed out to main memory by this access.
    pub writebacks: Vec<(BlockAddr, Line)>,
}

/// Per-level aggregate statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelStats {
    /// Combined counters across the caches of the level.
    pub cache: CacheStats,
}

/// Geometry configuration for the hierarchy; the latencies are the
/// fixed [`LATENCIES`] plus a fixed cross-core snoop penalty.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HierarchyConfig {
    /// Number of cores (Table 1: 8).
    pub cores: usize,
    /// L1 size in bytes (64 KiB).
    pub l1_size: usize,
    /// L2 size in bytes (512 KiB).
    pub l2_size: usize,
    /// L3 size in bytes (8 MiB).
    pub l3_size: usize,
    /// L4 size in bytes (64 MiB).
    pub l4_size: usize,
    /// Associativity for all levels (8).
    pub ways: usize,
}

/// L1/L2/L3/L4 access latencies (Table 1: 2/8/25/35 cycles).
pub const LATENCIES: [Cycles; 4] = [
    Cycles::new(2),
    Cycles::new(8),
    Cycles::new(25),
    Cycles::new(35),
];

/// Extra cycles for a cross-core snoop hit (the old configurable
/// default).
const SNOOP_PENALTY: Cycles = Cycles::new(30);

impl Default for HierarchyConfig {
    fn default() -> Self {
        HierarchyConfig {
            cores: 8,
            l1_size: 64 << 10,
            l2_size: 512 << 10,
            l3_size: 8 << 20,
            l4_size: 64 << 20,
            ways: 8,
        }
    }
}

impl HierarchyConfig {
    /// A scaled-down configuration for fast tests and benches: same shape,
    /// `shrink`× smaller caches.
    pub fn scaled_down(shrink: usize) -> Self {
        let d = HierarchyConfig::default();
        HierarchyConfig {
            l1_size: (d.l1_size / shrink).max(8 * LINE_SIZE * 8),
            l2_size: (d.l2_size / shrink).max(16 * LINE_SIZE * 8),
            l3_size: (d.l3_size / shrink).max(32 * LINE_SIZE * 8),
            l4_size: (d.l4_size / shrink).max(64 * LINE_SIZE * 8),
            ..d
        }
    }
}

/// The hierarchy proper.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    l1: Vec<SetAssocCache<Line>>,
    l2: Vec<SetAssocCache<Line>>,
    l3: SetAssocCache<Line>,
    l4: SetAssocCache<Line>,
    /// Which cores hold each line in a private cache (bitmask).
    directory: BTreeMap<u64, u16>,
    cores: usize,
}

impl Hierarchy {
    /// Builds the hierarchy from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`ss_common::Error::InvalidConfig`] if any level's geometry
    /// is invalid or `cores == 0` or `cores > 16`.
    pub fn new(config: &HierarchyConfig) -> Result<Self> {
        if config.cores == 0 || config.cores > 16 {
            return Err(ss_common::Error::InvalidConfig {
                detail: format!("core count {} not in 1..=16", config.cores),
            });
        }
        let mut l1 = Vec::new();
        let mut l2 = Vec::new();
        for c in 0..config.cores {
            l1.push(SetAssocCache::new(CacheConfig::new(
                format!("L1-{c}"),
                config.l1_size,
                config.ways,
                LATENCIES[0],
            )?));
            l2.push(SetAssocCache::new(CacheConfig::new(
                format!("L2-{c}"),
                config.l2_size,
                config.ways,
                LATENCIES[1],
            )?));
        }
        Ok(Hierarchy {
            l1,
            l2,
            l3: SetAssocCache::new(CacheConfig::new(
                "L3",
                config.l3_size,
                config.ways,
                LATENCIES[2],
            )?),
            l4: SetAssocCache::new(CacheConfig::new(
                "L4",
                config.l4_size,
                config.ways,
                LATENCIES[3],
            )?),
            directory: BTreeMap::new(),
            cores: config.cores,
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.cores
    }

    fn dir_set(&mut self, addr: BlockAddr, core: usize) {
        *self.directory.entry(addr.raw()).or_insert(0) |= 1 << core;
    }

    fn dir_clear_if_absent(&mut self, addr: BlockAddr, core: usize) {
        if !self.l1[core].contains(addr) && !self.l2[core].contains(addr) {
            if let Some(mask) = self.directory.get_mut(&addr.raw()) {
                *mask &= !(1 << core);
                if *mask == 0 {
                    self.directory.remove(&addr.raw());
                }
            }
        }
    }

    fn other_sharers(&self, addr: BlockAddr, core: usize) -> u16 {
        self.directory.get(&addr.raw()).copied().unwrap_or(0) & !(1 << core)
    }

    /// Inserts into a private level, cascading the victim downwards.
    /// Dirty L4 victims are appended to `writebacks`.
    fn insert_private(
        &mut self,
        core: usize,
        level: Level,
        addr: BlockAddr,
        data: Line,
        dirty: bool,
        writebacks: &mut Vec<(BlockAddr, Line)>,
    ) {
        let victim = match level {
            Level::L1 => {
                let v = self.l1[core].insert(addr, data, dirty);
                self.dir_set(addr, core);
                v
            }
            Level::L2 => {
                let v = self.l2[core].insert(addr, data, dirty);
                self.dir_set(addr, core);
                v
            }
            _ => unreachable!("insert_private is only for private levels"),
        };
        if let Some(v) = victim {
            match level {
                Level::L1 => {
                    // L1 victim falls into same-core L2 (only if dirty —
                    // clean victims are already duplicated below or stale).
                    if v.dirty {
                        self.insert_private(core, Level::L2, v.addr, v.value, true, writebacks);
                    } else {
                        self.dir_clear_if_absent(v.addr, core);
                    }
                }
                Level::L2 => {
                    self.dir_clear_if_absent(v.addr, core);
                    if v.dirty {
                        self.insert_shared(Level::L3, v.addr, v.value, true, writebacks);
                    }
                }
                _ => unreachable!(),
            }
        }
    }

    /// Inserts into a shared level, cascading the victim downwards.
    fn insert_shared(
        &mut self,
        level: Level,
        addr: BlockAddr,
        data: Line,
        dirty: bool,
        writebacks: &mut Vec<(BlockAddr, Line)>,
    ) {
        match level {
            Level::L3 => {
                if let Some(v) = self.l3.insert(addr, data, dirty) {
                    if v.dirty {
                        self.insert_shared(Level::L4, v.addr, v.value, true, writebacks);
                    }
                }
            }
            Level::L4 => {
                if let Some(v) = self.l4.insert(addr, data, dirty) {
                    if v.dirty {
                        writebacks.push((v.addr, v.value));
                    }
                }
            }
            _ => unreachable!("insert_shared is only for shared levels"),
        }
    }

    /// Probes every remote private cache for `addr`. If a dirty copy is
    /// found, removes it (write intent) or downgrades it to clean (read
    /// intent) and returns its data.
    fn snoop(&mut self, core: usize, addr: BlockAddr, invalidate: bool) -> Option<Line> {
        let sharers = self.other_sharers(addr, core);
        if sharers == 0 {
            return None;
        }
        let mut dirty_data = None;
        for other in 0..self.cores {
            if other == core || sharers & (1 << other) == 0 {
                continue;
            }
            // Probe L1 before L2: when both hold dirty copies, the L1
            // copy is the newer one and must win.
            for cache in [&mut self.l1[other], &mut self.l2[other]] {
                if invalidate {
                    if let Some(e) = cache.invalidate(addr) {
                        if e.dirty && dirty_data.is_none() {
                            dirty_data = Some(e.value);
                        }
                    }
                } else if dirty_data.is_none() {
                    if let Some(e) = cache.peek(addr).filter(|e| e.dirty) {
                        dirty_data = Some(e.value);
                    }
                }
            }
            if !invalidate && dirty_data.is_some() {
                // Downgrade the owner's copies to clean.
                for cache in [&mut self.l1[other], &mut self.l2[other]] {
                    if let Some(e) = cache.get(addr) {
                        e.dirty = false;
                    }
                }
            }
            if invalidate {
                self.dir_clear_if_absent(addr, other);
            }
        }
        dirty_data
    }

    /// Performs a demand access for `core`.
    ///
    /// * `AccessKind::Read` — returns data on a hit; otherwise
    ///   `needs_fetch` and the caller must call [`Hierarchy::fill`].
    /// * `AccessKind::WriteLineNoFetch` — installs `write_data` dirty into
    ///   L1 without fetching (full-line store, e.g. kernel zeroing).
    /// * `AccessKind::WritePartial` — like a read (RFO) but marks the line
    ///   dirty; on a miss the caller fetches and calls `fill` with
    ///   `dirty = true`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range or `write_data` is missing for a
    /// `WriteLineNoFetch` access.
    pub fn access(
        &mut self,
        core: usize,
        kind: AccessKind,
        addr: BlockAddr,
        write_data: Option<Line>,
    ) -> AccessResult {
        assert!(core < self.cores, "core {core} out of range");
        let mut latency = Cycles::ZERO;
        let mut writebacks = Vec::new();

        match kind {
            AccessKind::Read => {
                // A remote dirty copy must be forwarded first.
                if let Some(fwd) = self.snoop(core, addr, false) {
                    latency += SNOOP_PENALTY;
                    // Park the latest version in shared L3 so it is never
                    // lost, then treat as an L3 hit for the requester.
                    self.insert_shared(Level::L3, addr, fwd, true, &mut writebacks);
                }
                latency += LATENCIES[0];
                if let Some(e) = self.l1[core].get(addr) {
                    let data = e.value;
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L1),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[1];
                if let Some(e) = self.l2[core].get(addr) {
                    let (data, dirty) = (e.value, e.dirty);
                    self.insert_private(core, Level::L1, addr, data, dirty, &mut writebacks);
                    // The L2 copy stays; ownership of dirtiness moved up.
                    if dirty {
                        if let Some(e2) = self.l2[core].get(addr) {
                            e2.dirty = false;
                        }
                    }
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L2),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[2];
                if let Some(e) = self.l3.get(addr) {
                    let data = e.value;
                    self.insert_private(core, Level::L1, addr, data, false, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L3),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[3];
                if let Some(e) = self.l4.get(addr) {
                    let data = e.value;
                    self.insert_private(core, Level::L1, addr, data, false, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L4),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                AccessResult {
                    latency,
                    hit_level: None,
                    data: None,
                    needs_fetch: true,
                    writebacks,
                }
            }
            AccessKind::WriteLineNoFetch => {
                let data = write_data.expect("full-line write requires data");
                // Writing invalidates every other copy.
                let _ = self.snoop(core, addr, true);
                // Stale copies elsewhere — including this core's own L2 —
                // must go, or a later probe could observe old data.
                self.l2[core].invalidate(addr);
                self.l3.invalidate(addr);
                self.l4.invalidate(addr);
                latency += LATENCIES[0];
                // Write-allocating a non-resident line consumes fill
                // bandwidth and displaces a victim; charge a small
                // allocate penalty (streaming stores run slower than
                // L1-resident rewrites).
                if !self.l1[core].contains(addr) {
                    latency += Cycles::new(4);
                }
                self.insert_private(core, Level::L1, addr, data, true, &mut writebacks);
                AccessResult {
                    latency,
                    hit_level: Some(Level::L1),
                    data: None,
                    needs_fetch: false,
                    writebacks,
                }
            }
            AccessKind::WritePartial => {
                if let Some(fwd) = self.snoop(core, addr, true) {
                    // Remote dirty copy taken over: install and dirty it.
                    latency += SNOOP_PENALTY + LATENCIES[0];
                    self.l3.invalidate(addr);
                    self.l4.invalidate(addr);
                    self.insert_private(core, Level::L1, addr, fwd, true, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L1),
                        data: Some(fwd),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[0];
                if let Some(e) = self.l1[core].get(addr) {
                    e.dirty = true;
                    let data = e.value;
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L1),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[1];
                if let Some(e) = self.l2[core].get(addr) {
                    let data = e.value;
                    // Promote to L1 dirty; L2 copy downgraded to clean.
                    if let Some(e2) = self.l2[core].get(addr) {
                        e2.dirty = false;
                    }
                    self.insert_private(core, Level::L1, addr, data, true, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L2),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[2];
                if let Some(e) = self.l3.get(addr) {
                    let data = e.value;
                    self.l3.invalidate(addr);
                    self.insert_private(core, Level::L1, addr, data, true, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L3),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                latency += LATENCIES[3];
                if let Some(e) = self.l4.get(addr) {
                    let data = e.value;
                    self.l4.invalidate(addr);
                    self.insert_private(core, Level::L1, addr, data, true, &mut writebacks);
                    return AccessResult {
                        latency,
                        hit_level: Some(Level::L4),
                        data: Some(data),
                        needs_fetch: false,
                        writebacks,
                    };
                }
                AccessResult {
                    latency,
                    hit_level: None,
                    data: None,
                    needs_fetch: true,
                    writebacks,
                }
            }
        }
    }

    /// Completes a missed access by installing the fetched line into the
    /// requester's caches (`dirty = true` for a `WritePartial` miss).
    /// Returns dirty lines displaced all the way to memory.
    pub fn fill(
        &mut self,
        core: usize,
        addr: BlockAddr,
        data: Line,
        dirty: bool,
    ) -> Vec<(BlockAddr, Line)> {
        let mut writebacks = Vec::new();
        // Install in shared levels (clean — memory already has this data
        // unless the requester dirties it privately).
        self.insert_shared(Level::L4, addr, data, false, &mut writebacks);
        self.insert_shared(Level::L3, addr, data, false, &mut writebacks);
        self.insert_private(core, Level::L1, addr, data, dirty, &mut writebacks);
        writebacks
    }

    /// Removes `addr` from every cache. Returns the most recent data and
    /// whether any removed copy was dirty.
    pub fn invalidate_line(&mut self, addr: BlockAddr) -> Option<(Line, bool)> {
        let mut newest: Option<Line> = None;
        let mut any_dirty = false;
        let mut any = false;
        // Private caches hold the newest versions; probe them first.
        for core in 0..self.cores {
            // L1 before L2: the L1 copy is newer when both are dirty.
            for cache in [&mut self.l1[core], &mut self.l2[core]] {
                if let Some(e) = cache.invalidate(addr) {
                    any = true;
                    if e.dirty && !any_dirty {
                        any_dirty = true;
                        newest = Some(e.value);
                    } else if newest.is_none() {
                        newest = Some(e.value);
                    }
                }
            }
            self.dir_clear_if_absent(addr, core);
        }
        for cache in [&mut self.l3, &mut self.l4] {
            if let Some(e) = cache.invalidate(addr) {
                any = true;
                if e.dirty && !any_dirty {
                    any_dirty = true;
                    newest = Some(e.value);
                } else if newest.is_none() {
                    newest = Some(e.value);
                }
            }
        }
        if any {
            Some((newest.expect("any implies a copy existed"), any_dirty))
        } else {
            None
        }
    }

    /// Invalidates every line of `page` in every cache (the bulk
    /// invalidation of a shred command or non-temporal zeroing pass).
    /// Returns the dirty lines found, with their data.
    pub fn invalidate_page(&mut self, page: PageId) -> Vec<(BlockAddr, Line)> {
        let mut dirty = Vec::new();
        for b in 0..BLOCKS_PER_PAGE {
            let addr = page.block_addr(b);
            if let Some((data, was_dirty)) = self.invalidate_line(addr) {
                if was_dirty {
                    dirty.push((addr, data));
                }
            }
        }
        dirty
    }

    /// Flushes every dirty line out of the hierarchy (crash/shutdown).
    /// Returns the lines to write back, deepest copies last.
    pub fn flush_all(&mut self) -> Vec<(BlockAddr, Line)> {
        let mut out = Vec::new();
        for core in 0..self.cores {
            for cache in [&mut self.l1[core], &mut self.l2[core]] {
                for e in cache.drain() {
                    if e.dirty {
                        out.push((e.addr, e.value));
                    }
                }
            }
        }
        for cache in [&mut self.l3, &mut self.l4] {
            for e in cache.drain() {
                if e.dirty {
                    out.push((e.addr, e.value));
                }
            }
        }
        self.directory.clear();
        out
    }

    /// Aggregate stats for one level (summed over cores for L1/L2).
    pub fn level_stats(&self, level: Level) -> LevelStats {
        let mut agg = CacheStats::default();
        let caches: Vec<&CacheStats> = match level {
            Level::L1 => self.l1.iter().map(|c| c.stats()).collect(),
            Level::L2 => self.l2.iter().map(|c| c.stats()).collect(),
            Level::L3 => vec![self.l3.stats()],
            Level::L4 => vec![self.l4.stats()],
        };
        for s in caches {
            agg.hits.add(s.hits.get());
            agg.misses.add(s.misses.get());
            agg.evictions.add(s.evictions.get());
            agg.dirty_evictions.add(s.dirty_evictions.get());
            agg.invalidations.add(s.invalidations.get());
        }
        LevelStats { cache: agg }
    }

    /// Resets all per-level statistics.
    pub fn reset_stats(&mut self) {
        for c in &mut self.l1 {
            c.reset_stats();
        }
        for c in &mut self.l2 {
            c.reset_stats();
        }
        self.l3.reset_stats();
        self.l4.reset_stats();
    }

    /// Whether any cache holds `addr` (for tests).
    pub fn holds(&self, addr: BlockAddr) -> bool {
        self.l3.contains(addr)
            || self.l4.contains(addr)
            || (0..self.cores).any(|c| self.l1[c].contains(addr) || self.l2[c].contains(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Hierarchy {
        Hierarchy::new(&HierarchyConfig {
            cores: 2,
            l1_size: 4 * LINE_SIZE * 2,
            l2_size: 8 * LINE_SIZE * 2,
            l3_size: 16 * LINE_SIZE * 2,
            l4_size: 32 * LINE_SIZE * 2,
            ways: 2,
        })
        .unwrap()
    }

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n * LINE_SIZE as u64)
    }

    fn line(v: u8) -> Line {
        [v; LINE_SIZE]
    }

    #[test]
    fn read_miss_then_hit() {
        let mut h = small();
        let r = h.access(0, AccessKind::Read, a(0), None);
        assert!(r.needs_fetch);
        assert_eq!(r.latency, Cycles::new(2 + 8 + 25 + 35));
        let wb = h.fill(0, a(0), line(7), false);
        assert!(wb.is_empty());
        let r2 = h.access(0, AccessKind::Read, a(0), None);
        assert_eq!(r2.hit_level, Some(Level::L1));
        assert_eq!(r2.data, Some(line(7)));
        assert_eq!(r2.latency, Cycles::new(2));
    }

    #[test]
    fn full_line_write_needs_no_fetch() {
        let mut h = small();
        let r = h.access(0, AccessKind::WriteLineNoFetch, a(1), Some(line(9)));
        assert!(!r.needs_fetch);
        let rd = h.access(0, AccessKind::Read, a(1), None);
        assert_eq!(rd.data, Some(line(9)));
    }

    #[test]
    fn partial_write_miss_requires_rfo() {
        let mut h = small();
        let r = h.access(0, AccessKind::WritePartial, a(2), None);
        assert!(r.needs_fetch);
        let _ = h.fill(0, a(2), line(3), true);
        // Now resident and dirty in L1; a read hits.
        let rd = h.access(0, AccessKind::Read, a(2), None);
        assert_eq!(rd.hit_level, Some(Level::L1));
    }

    #[test]
    fn cross_core_read_sees_remote_dirty_data() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch, a(3), Some(line(0xAA)));
        let rd = h.access(1, AccessKind::Read, a(3), None);
        assert_eq!(rd.data, Some(line(0xAA)), "stale data forwarded");
        assert!(!rd.needs_fetch);
    }

    #[test]
    fn cross_core_write_invalidates_sharers() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch, a(4), Some(line(1)));
        // Core 1 takes the line over with a new value.
        h.access(1, AccessKind::WriteLineNoFetch, a(4), Some(line(2)));
        // Core 0 must observe core 1's value.
        let rd = h.access(0, AccessKind::Read, a(4), None);
        assert_eq!(rd.data, Some(line(2)));
    }

    #[test]
    fn invalidate_line_returns_newest_dirty() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch, a(5), Some(line(5)));
        let (data, dirty) = h.invalidate_line(a(5)).unwrap();
        assert!(dirty);
        assert_eq!(data, line(5));
        assert!(!h.holds(a(5)));
        assert!(h.invalidate_line(a(5)).is_none());
    }

    #[test]
    fn invalidate_page_collects_dirty_lines() {
        let mut h = small();
        let page = PageId::new(1);
        h.access(
            0,
            AccessKind::WriteLineNoFetch,
            page.block_addr(0),
            Some(line(1)),
        );
        h.access(
            0,
            AccessKind::WriteLineNoFetch,
            page.block_addr(5),
            Some(line(2)),
        );
        // A clean fill too.
        h.fill(0, page.block_addr(9), line(3), false);
        let dirty = h.invalidate_page(page);
        assert_eq!(dirty.len(), 2);
        assert!(!h.holds(page.block_addr(9)));
    }

    #[test]
    fn dirty_data_survives_eviction_cascade() {
        // Write many conflicting lines; the dirty data must eventually
        // appear in writebacks, never silently vanish.
        let mut h = small();
        let mut written = Vec::new();
        let mut writebacks = Vec::new();
        for i in 0..200u64 {
            let r = h.access(0, AccessKind::WriteLineNoFetch, a(i), Some(line(i as u8)));
            writebacks.extend(r.writebacks);
            written.push(a(i));
        }
        writebacks.extend(h.flush_all());
        // Every written line is either still cached (it is not, we flushed)
        // or appeared in a writeback with the right data.
        for (i, addr) in written.iter().enumerate() {
            let wb = writebacks.iter().rev().find(|(a2, _)| a2 == addr);
            let (_, data) = wb.unwrap_or_else(|| panic!("line {i} lost"));
            assert_eq!(data, &line(i as u8), "line {i} corrupted");
        }
    }

    #[test]
    fn flush_all_returns_only_dirty() {
        let mut h = small();
        h.fill(0, a(0), line(1), false);
        h.access(0, AccessKind::WriteLineNoFetch, a(1), Some(line(2)));
        let flushed = h.flush_all();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, a(1));
    }

    #[test]
    fn level_stats_aggregate() {
        let mut h = small();
        h.access(0, AccessKind::Read, a(0), None);
        h.fill(0, a(0), line(0), false);
        h.access(0, AccessKind::Read, a(0), None);
        let l1 = h.level_stats(Level::L1);
        assert_eq!(l1.cache.hits.get(), 1);
        assert_eq!(l1.cache.misses.get(), 1);
        h.reset_stats();
        assert_eq!(h.level_stats(Level::L1).cache.hits.get(), 0);
    }

    #[test]
    fn core_out_of_range_panics() {
        let mut h = small();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            h.access(9, AccessKind::Read, a(0), None)
        }));
        assert!(result.is_err());
    }

    #[test]
    fn stale_own_l2_copy_never_wins() {
        // Regression: a full-line write must not leave a stale dirty copy
        // in the writer's own L2; and when L1 and L2 both hold dirty
        // copies, snoops must prefer L1 (the newer one).
        let mut h = small();
        // Fill one L1 set so line 24 gets demoted to L2 dirty.
        h.access(0, AccessKind::WriteLineNoFetch, a(24), Some(line(1)));
        h.access(0, AccessKind::WriteLineNoFetch, a(8), Some(line(2)));
        h.access(0, AccessKind::WriteLineNoFetch, a(4), Some(line(3)));
        // Rewrite line 24: newest value must win everywhere.
        h.access(0, AccessKind::WriteLineNoFetch, a(24), Some(line(9)));
        let r = h.access(1, AccessKind::Read, a(24), None);
        assert_eq!(r.data, Some(line(9)), "stale L2 copy observed");
        // And invalidation returns the newest version too.
        h.access(0, AccessKind::WriteLineNoFetch, a(24), Some(line(11)));
        let (data, dirty) = h.invalidate_line(a(24)).unwrap();
        assert!(dirty);
        assert_eq!(data, line(11));
    }

    #[test]
    fn config_rejects_zero_cores() {
        assert!(Hierarchy::new(&HierarchyConfig {
            cores: 0,
            ..HierarchyConfig::default()
        })
        .is_err());
    }
}
