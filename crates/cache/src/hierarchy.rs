//! The multi-core, 4-level cache hierarchy.
//!
//! Geometry defaults to, and latencies are fixed at, Table 1: per-core
//! L1 (64 KiB, 2 cyc) and L2 (512 KiB, 8 cyc), shared L3 (8 MiB, 25 cyc)
//! and L4 (64 MiB, 35 cyc), all 8-way with 64 B lines. Probing is
//! cumulative: a hit at L3 costs `lat(L1)+lat(L2)+lat(L3)`.
//!
//! The levels are indexed in probe order, 0 (L1) to 3 (L4): each core
//! owns `[L1, L2]` and the cores share `[L3, L4]`. A load or partial
//! store walks them in one probe loop, where a hit differs only by
//! level:
//!
//! * at L1 a store marks the line dirty;
//! * at L2 the line moves up to L1 with its dirtiness (a store dirties
//!   it either way), and the L2 copy is left clean;
//! * at L3/L4 a load copies the line into L1, a store moves it there
//!   dirty.
//!
//! Every install goes through one cascade: a dirty victim falls one
//! level down (L1→L2→L3→L4→memory) so the newest committed version is
//! never dropped.
//!
//! Coherence is a MESI-style invalidate protocol between the cores'
//! private levels. A core shares a line exactly when its L1 or L2 holds
//! it. An exact snoop filter counts, per 4 KiB page and core, the page's
//! lines in the core's L1 and L2, and a snoop reads the L1/L2 tags of
//! only the other cores whose count for the line's page is nonzero:
//!
//! * a **write** invalidates every other core's copy (taking over any
//!   dirty data);
//! * a **read** that finds a remote dirty copy forwards the data, parks
//!   the latest version in the shared L3 and downgrades the owner to
//!   clean.
//!
//! [`Hierarchy::invalidate_page`] implements the bulk invalidation a
//! shred command or a non-temporal zeroing pass sends (Fig. 6, step 2).

use ss_common::{BlockAddr, Cycles, PageId, Result, BLOCKS_PER_PAGE, LINE_SIZE};

use crate::set_assoc::{CacheConfig, CacheStats, Entry, SetAssocCache};

/// A 64-byte cache line payload.
pub type Line = [u8; LINE_SIZE];

/// The four data-cache levels, in probe order.
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

impl Level {
    /// Every level; a level's index here is its index in the hierarchy.
    const ALL: [Level; 4] = [Level::L1, Level::L2, Level::L3, Level::L4];
}

/// What kind of demand access is being made.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Read,
    /// A store that overwrites the whole line with the given data (no
    /// fetch needed on miss).
    WriteLineNoFetch(Line),
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

impl AccessResult {
    fn hit(
        latency: Cycles,
        level: Level,
        data: Option<Line>,
        writebacks: Vec<(BlockAddr, Line)>,
    ) -> Self {
        AccessResult {
            latency,
            hit_level: Some(level),
            data,
            needs_fetch: false,
            writebacks,
        }
    }
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

/// Extra cycles when a snoop forwards a dirty line from another core's
/// private caches.
const SNOOP_PENALTY: Cycles = Cycles::new(30);

/// Private levels per core (L1, L2); the shared levels follow them.
const PRIVATE: usize = 2;

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

/// Pages whose counts share one block of the [`SnoopFilter`].
const FILTER_PAGES: u64 = 512;

/// Per 4 KiB page and core, how many of the page's lines the core's L1
/// and L2 hold. A line in both levels counts twice, so a count is at
/// most `2 × BLOCKS_PER_PAGE` = 128. A core whose count for a page is
/// zero holds none of its lines, and probing it would change nothing.
///
/// The counts live in zero-filled blocks of `FILTER_PAGES × cores`
/// bytes, page-major, each allocated at the first install into one of
/// its pages and kept, at its size, as long as the hierarchy. The
/// directory grows to cover the highest such block.
#[derive(Debug, Clone)]
struct SnoopFilter {
    /// Counts per page, one per core.
    cores: usize,
    /// Block `i` holds pages `i·FILTER_PAGES ..`; page `p`'s count for
    /// core `c` is at `(p mod FILTER_PAGES)·cores + c`.
    blocks: Vec<Option<Box<[u8]>>>,
}

impl SnoopFilter {
    /// The block of `addr`'s page, and the position of the page's counts
    /// in it.
    fn locate(&self, addr: BlockAddr) -> (usize, usize) {
        let page = addr.page().raw();
        let block = (page / FILTER_PAGES) as usize;
        (block, (page % FILTER_PAGES) as usize * self.cores)
    }

    /// The counts of `addr`'s page, one per core; `None` when no line of
    /// any page of its block was ever installed.
    fn counts(&self, addr: BlockAddr) -> Option<&[u8]> {
        let (block, at) = self.locate(addr);
        let counts = self.blocks.get(block)?.as_deref()?;
        Some(&counts[at..at + self.cores])
    }

    /// The cores that hold a line of `addr`'s page, one bit per core
    /// (`Hierarchy::new` allows at most 16).
    fn holders(&self, addr: BlockAddr) -> u16 {
        let counts = self.counts(addr).unwrap_or_default();
        let held = counts.iter().enumerate();
        held.fold(0, |mask, (core, &n)| mask | u16::from(n != 0) << core)
    }

    /// Counts a line of `addr`'s page that `core`'s L1 or L2 took in.
    fn add(&mut self, core: usize, addr: BlockAddr) {
        let (block, at) = self.locate(addr);
        if block >= self.blocks.len() {
            self.blocks.resize_with(block + 1, || None);
        }
        let size = FILTER_PAGES as usize * self.cores;
        let counts = self.blocks[block].get_or_insert_with(|| vec![0; size].into_boxed_slice());
        counts[at + core] += 1;
    }

    /// Uncounts a line of `addr`'s page that left `core`'s L1 or L2.
    fn remove(&mut self, core: usize, addr: BlockAddr) {
        let (block, at) = self.locate(addr);
        if let Some(Some(counts)) = self.blocks.get_mut(block) {
            counts[at + core] -= 1;
        }
    }

    /// Zeroes every count, keeping the blocks (the caches were drained).
    fn clear(&mut self) {
        for counts in self.blocks.iter_mut().flatten() {
            counts.fill(0);
        }
    }
}

/// The cores whose bits are set in `mask`, in ascending order.
fn cores_in(mut mask: u16) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (mask != 0).then(|| {
            let core = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            core
        })
    })
}

/// The hierarchy proper.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    /// Each core's `[L1, L2]`.
    private: Vec<[SetAssocCache<Line>; PRIVATE]>,
    /// The shared `[L3, L4]`.
    shared: [SetAssocCache<Line>; 2],
    /// Which cores' private levels hold a line of each page.
    filter: SnoopFilter,
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
        let sizes = [
            config.l1_size,
            config.l2_size,
            config.l3_size,
            config.l4_size,
        ];
        let cache = |level: usize, name: String| -> Result<SetAssocCache<Line>> {
            let geometry = CacheConfig::new(name, sizes[level], config.ways, LATENCIES[level])?;
            Ok(SetAssocCache::new(geometry))
        };
        let private = (0..config.cores)
            .map(|c| Ok([cache(0, format!("L1-{c}"))?, cache(1, format!("L2-{c}"))?]))
            .collect::<Result<_>>()?;
        Ok(Hierarchy {
            private,
            shared: [cache(2, "L3".into())?, cache(3, "L4".into())?],
            filter: SnoopFilter {
                cores: config.cores,
                blocks: Vec::new(),
            },
        })
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.private.len()
    }

    /// The cache at `level` (0 = L1 … 3 = L4) as `core` sees it.
    fn cache(&mut self, core: usize, level: usize) -> &mut SetAssocCache<Line> {
        if level < PRIVATE {
            &mut self.private[core][level]
        } else {
            &mut self.shared[level - PRIVATE]
        }
    }

    /// Installs `addr` at `level` for `core` and cascades the victim: a
    /// dirty one falls a level down, and a dirty L4 victim is appended
    /// to `writebacks`.
    fn install(
        &mut self,
        core: usize,
        level: usize,
        addr: BlockAddr,
        data: Line,
        dirty: bool,
        writebacks: &mut Vec<(BlockAddr, Line)>,
    ) {
        let inserted = self.cache(core, level).insert(addr, data, dirty);
        if level < PRIVATE {
            if inserted.new {
                self.filter.add(core, addr);
            }
            if let Some(v) = &inserted.victim {
                self.filter.remove(core, v.addr);
            }
        }
        let Some(v) = inserted.victim else {
            return;
        };
        if v.dirty {
            if level + 1 < LATENCIES.len() {
                self.install(core, level + 1, v.addr, v.value, true, writebacks);
            } else {
                writebacks.push((v.addr, v.value));
            }
        }
    }

    /// Removes `addr` from `core`'s private `level`, uncounting it in
    /// the filter.
    fn invalidate_private(
        &mut self,
        core: usize,
        level: usize,
        addr: BlockAddr,
    ) -> Option<Entry<Line>> {
        let e = self.private[core][level].invalidate(addr)?;
        self.filter.remove(core, addr);
        Some(e)
    }

    /// Probes the private caches of the other cores that hold a line of
    /// `addr`'s page: a core shares the line exactly when they hold it,
    /// and probing one that holds nothing of the page would change
    /// nothing. If a dirty copy is found, removes it (write intent) or
    /// downgrades it to clean (read intent) and returns its data.
    ///
    /// A line dirty in one core's private caches is in no other core's
    /// (every store invalidates the other copies, and a read downgrades
    /// the owner's), so a read-intent snoop stops at the owner.
    fn snoop(&mut self, core: usize, addr: BlockAddr, invalidate: bool) -> Option<Line> {
        let mut dirty_data = None;
        for other in cores_in(self.filter.holders(addr) & !(1 << core)) {
            // Probe L1 before L2: when both hold dirty copies, the L1
            // copy is the newer one and must win.
            let caches = &mut self.private[other];
            if invalidate {
                for level in 0..PRIVATE {
                    if let Some(e) = self.invalidate_private(other, level, addr) {
                        if e.dirty && dirty_data.is_none() {
                            dirty_data = Some(e.value);
                        }
                    }
                }
            } else if let Some(data) = caches
                .iter()
                .find_map(|cache| cache.peek(addr).filter(|e| e.dirty).map(|e| e.value))
            {
                // Downgrade the owner's copies to clean. The snoop is no
                // demand access of the owner's, so it counts nothing.
                for cache in caches {
                    if let Some(e) = cache.touch(addr) {
                        e.dirty = false;
                    }
                }
                return Some(data);
            }
        }
        dirty_data
    }

    /// Performs a demand access for `core`.
    ///
    /// * `AccessKind::Read` — returns data on a hit; otherwise
    ///   `needs_fetch` and the caller must call [`Hierarchy::fill`].
    /// * `AccessKind::WriteLineNoFetch` — installs its line dirty into L1
    ///   without fetching (full-line store, e.g. kernel zeroing).
    /// * `AccessKind::WritePartial` — like a read (RFO) but marks the line
    ///   dirty; on a miss the caller fetches and calls `fill` with
    ///   `dirty = true`.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn access(&mut self, core: usize, kind: AccessKind, addr: BlockAddr) -> AccessResult {
        assert!(core < self.cores(), "core {core} out of range");
        let mut latency = Cycles::ZERO;
        let mut writebacks = Vec::new();
        let store = match kind {
            AccessKind::Read => false,
            AccessKind::WritePartial => true,
            AccessKind::WriteLineNoFetch(data) => {
                // Writing invalidates every other copy. Stale copies
                // elsewhere — including this core's own L2 — must go, or
                // a later probe could observe old data.
                let _ = self.snoop(core, addr, true);
                self.invalidate_private(core, 1, addr);
                for cache in &mut self.shared {
                    cache.invalidate(addr);
                }
                latency += LATENCIES[0];
                // Write-allocating a non-resident line consumes fill
                // bandwidth and displaces a victim; charge a small
                // allocate penalty (streaming stores run slower than
                // L1-resident rewrites).
                if !self.private[core][0].contains(addr) {
                    latency += Cycles::new(4);
                }
                self.install(core, 0, addr, data, true, &mut writebacks);
                return AccessResult::hit(latency, Level::L1, None, writebacks);
            }
        };
        if let Some(fwd) = self.snoop(core, addr, store) {
            latency += SNOOP_PENALTY;
            if store {
                // Remote dirty copy taken over: install and dirty it.
                latency += LATENCIES[0];
                for cache in &mut self.shared {
                    cache.invalidate(addr);
                }
                self.install(core, 0, addr, fwd, true, &mut writebacks);
                return AccessResult::hit(latency, Level::L1, Some(fwd), writebacks);
            }
            // Park the latest version in shared L3 so it is never lost,
            // then treat as an L3 hit for the requester.
            self.install(core, PRIVATE, addr, fwd, true, &mut writebacks);
        }
        for (level, hit_level) in Level::ALL.into_iter().enumerate() {
            latency += LATENCIES[level];
            let Some(e) = self.cache(core, level).get(addr) else {
                continue;
            };
            let (data, dirty) = (e.value, e.dirty);
            match level {
                // L1: a store dirties the line in place.
                0 => e.dirty |= store,
                // L2: L1 takes the line and its dirtiness, and the L2
                // copy is cleaned, before the install for a store and
                // after it for a load. Cleaning promotes the L2 copy
                // again without counting a second hit.
                1 => {
                    if store {
                        self.clean_l2(core, addr);
                    }
                    self.install(core, 0, addr, data, dirty || store, &mut writebacks);
                    if dirty && !store {
                        self.clean_l2(core, addr);
                    }
                }
                // L3/L4: a load copies the line into L1, a store moves
                // it there.
                _ => {
                    if store {
                        self.cache(core, level).invalidate(addr);
                    }
                    self.install(core, 0, addr, data, store, &mut writebacks);
                }
            }
            return AccessResult::hit(latency, hit_level, Some(data), writebacks);
        }
        AccessResult {
            latency,
            hit_level: None,
            data: None,
            needs_fetch: true,
            writebacks,
        }
    }

    /// Marks `core`'s L2 copy of `addr` clean once L1 owns the line.
    fn clean_l2(&mut self, core: usize, addr: BlockAddr) {
        if let Some(e) = self.private[core][1].touch(addr) {
            e.dirty = false;
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
        // L4, L3, then L1. The shared copies are clean: memory already
        // has this data unless the requester dirties it privately.
        for (level, dirty) in [(3, false), (2, false), (0, dirty)] {
            self.install(core, level, addr, data, dirty, &mut writebacks);
        }
        writebacks
    }

    /// Removes `addr` from every cache. Returns the most recent data and
    /// whether any removed copy was dirty.
    pub fn invalidate_line(&mut self, addr: BlockAddr) -> Option<(Line, bool)> {
        // The first dirty copy is the newest, else the first copy. The
        // private caches hold the newest versions (L1 before L2, as L1
        // is newer when both are dirty), so they are probed first, and
        // only those of the cores that hold a line of the page.
        let mut newest: Option<(Line, bool)> = None;
        let mut keep = |removed: Option<Entry<Line>>| {
            if let Some(e) = removed {
                if newest.is_none_or(|(_, dirty)| !dirty && e.dirty) {
                    newest = Some((e.value, e.dirty));
                }
            }
        };
        for core in cores_in(self.filter.holders(addr)) {
            for level in 0..PRIVATE {
                keep(self.invalidate_private(core, level, addr));
            }
        }
        for cache in &mut self.shared {
            keep(cache.invalidate(addr));
        }
        newest
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
        self.filter.clear();
        let caches = self.private.iter_mut().flatten().chain(&mut self.shared);
        caches
            .flat_map(|cache| cache.drain())
            .filter(|e| e.dirty)
            .map(|e| (e.addr, e.value))
            .collect()
    }

    /// Aggregate stats for one level (summed over cores for L1/L2).
    pub fn level_stats(&self, level: Level) -> LevelStats {
        let level = level as usize;
        let caches: Vec<&SetAssocCache<Line>> = if level < PRIVATE {
            self.private.iter().map(|p| &p[level]).collect()
        } else {
            vec![&self.shared[level - PRIVATE]]
        };
        let mut agg = CacheStats::default();
        for s in caches.into_iter().map(SetAssocCache::stats) {
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
        for cache in self.private.iter_mut().flatten().chain(&mut self.shared) {
            cache.reset_stats();
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

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
        let r = h.access(0, AccessKind::Read, a(0));
        assert!(r.needs_fetch);
        assert_eq!(r.latency, Cycles::new(2 + 8 + 25 + 35));
        let wb = h.fill(0, a(0), line(7), false);
        assert!(wb.is_empty());
        let r2 = h.access(0, AccessKind::Read, a(0));
        assert_eq!(r2.hit_level, Some(Level::L1));
        assert_eq!(r2.data, Some(line(7)));
        assert_eq!(r2.latency, Cycles::new(2));
    }

    #[test]
    fn full_line_write_needs_no_fetch() {
        let mut h = small();
        let r = h.access(0, AccessKind::WriteLineNoFetch(line(9)), a(1));
        assert!(!r.needs_fetch);
        let rd = h.access(0, AccessKind::Read, a(1));
        assert_eq!(rd.data, Some(line(9)));
    }

    #[test]
    fn partial_write_miss_requires_rfo() {
        let mut h = small();
        let r = h.access(0, AccessKind::WritePartial, a(2));
        assert!(r.needs_fetch);
        let _ = h.fill(0, a(2), line(3), true);
        // Now resident and dirty in L1; a read hits.
        let rd = h.access(0, AccessKind::Read, a(2));
        assert_eq!(rd.hit_level, Some(Level::L1));
    }

    #[test]
    fn cross_core_read_sees_remote_dirty_data() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch(line(0xAA)), a(3));
        let rd = h.access(1, AccessKind::Read, a(3));
        assert_eq!(rd.data, Some(line(0xAA)), "stale data forwarded");
        assert!(!rd.needs_fetch);
    }

    #[test]
    fn cross_core_write_invalidates_sharers() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch(line(1)), a(4));
        // Core 1 takes the line over with a new value.
        h.access(1, AccessKind::WriteLineNoFetch(line(2)), a(4));
        // Core 0 must observe core 1's value.
        let rd = h.access(0, AccessKind::Read, a(4));
        assert_eq!(rd.data, Some(line(2)));
    }

    #[test]
    fn invalidate_line_returns_newest_dirty() {
        let mut h = small();
        h.access(0, AccessKind::WriteLineNoFetch(line(5)), a(5));
        let (data, dirty) = h.invalidate_line(a(5)).unwrap();
        assert!(dirty);
        assert_eq!(data, line(5));
        assert_eq!(lines_held(&h, a(5).page()), [0, 0]);
        assert!(h.invalidate_line(a(5)).is_none());
    }

    #[test]
    fn invalidate_page_collects_dirty_lines() {
        let mut h = small();
        let page = PageId::new(1);
        h.access(0, AccessKind::WriteLineNoFetch(line(1)), page.block_addr(0));
        h.access(0, AccessKind::WriteLineNoFetch(line(2)), page.block_addr(5));
        // A clean fill too.
        h.fill(0, page.block_addr(9), line(3), false);
        let dirty = h.invalidate_page(page);
        assert_eq!(dirty.len(), 2);
        assert_eq!(lines_held(&h, page), [0, 0]);
        assert!(h.invalidate_line(page.block_addr(9)).is_none());
    }

    #[test]
    fn dirty_data_survives_eviction_cascade() {
        // Write many conflicting lines; the dirty data must eventually
        // appear in writebacks, never silently vanish.
        let mut h = small();
        let mut written = Vec::new();
        let mut writebacks = Vec::new();
        for i in 0..200u64 {
            let r = h.access(0, AccessKind::WriteLineNoFetch(line(i as u8)), a(i));
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
        h.access(0, AccessKind::WriteLineNoFetch(line(2)), a(1));
        let flushed = h.flush_all();
        assert_eq!(flushed.len(), 1);
        assert_eq!(flushed[0].0, a(1));
    }

    #[test]
    fn level_stats_aggregate() {
        let mut h = small();
        h.access(0, AccessKind::Read, a(0));
        h.fill(0, a(0), line(0), false);
        h.access(0, AccessKind::Read, a(0));
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
            h.access(9, AccessKind::Read, a(0))
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
        h.access(0, AccessKind::WriteLineNoFetch(line(1)), a(24));
        h.access(0, AccessKind::WriteLineNoFetch(line(2)), a(8));
        h.access(0, AccessKind::WriteLineNoFetch(line(3)), a(4));
        // Rewrite line 24: newest value must win everywhere.
        h.access(0, AccessKind::WriteLineNoFetch(line(9)), a(24));
        let r = h.access(1, AccessKind::Read, a(24));
        assert_eq!(r.data, Some(line(9)), "stale L2 copy observed");
        // And invalidation returns the newest version too.
        h.access(0, AccessKind::WriteLineNoFetch(line(11)), a(24));
        let (data, dirty) = h.invalidate_line(a(24)).unwrap();
        assert!(dirty);
        assert_eq!(data, line(11));
    }

    /// FNV-1a over the ordered writeback stream: addresses and bytes.
    fn fold(stream: &[(BlockAddr, Line)]) -> u64 {
        let mut h = 0xCBF2_9CE4_8422_2325u64;
        for (addr, data) in stream {
            for b in addr.raw().to_le_bytes().iter().chain(data) {
                h = (h ^ u64::from(*b)).wrapping_mul(0x0100_0000_01B3);
            }
        }
        h
    }

    /// Each core's count of `page`'s lines in its L1 and L2, recomputed
    /// from their tags: what the snoop filter must hold.
    fn lines_held(h: &Hierarchy, page: PageId) -> Vec<u8> {
        let held = |c: &SetAssocCache<Line>| page.blocks().filter(|&a| c.contains(a)).count();
        let per_core = h.private.iter().map(|caches| caches.iter().map(held).sum());
        per_core.map(|n: usize| n as u8).collect()
    }

    /// The snoop filter is exact: every core's count for each of `pages`
    /// equals the lines of the page its L1 and L2 hold.
    fn assert_filter_exact(h: &Hierarchy, pages: impl IntoIterator<Item = PageId>) {
        for page in pages {
            let counts = h.filter.counts(page.block_addr(0));
            let counts = counts.map_or_else(|| vec![0; h.cores()], <[u8]>::to_vec);
            assert_eq!(counts, lines_held(h, page), "filter counts of {page:?}");
        }
    }

    /// The single-writer invariant `snoop` relies on: for each of the
    /// lines `0..lines`, when one core's L1 or L2 holds it dirty, no
    /// other core's L1 or L2 holds it at all.
    fn assert_single_writer(h: &Hierarchy, lines: u64) {
        for addr in (0..lines).map(a) {
            let holds = |caches: &[SetAssocCache<Line>; PRIVATE], dirty_only: bool| {
                caches
                    .iter()
                    .any(|c| c.peek(addr).is_some_and(|e| e.dirty || !dirty_only))
            };
            let Some(owner) = h.private.iter().position(|p| holds(p, true)) else {
                continue;
            };
            for (core, caches) in h.private.iter().enumerate() {
                assert!(
                    core == owner || !holds(caches, false),
                    "{addr:?} is dirty in core {owner} and also held by core {core}"
                );
            }
        }
    }

    /// Pins the hierarchy's exact behaviour. A seeded mix of loads,
    /// partial stores (RFO and a dirty fill on a miss, then mostly the
    /// full-line write, as the full system issues them), full-line
    /// stores, line and page invalidations and flushes on four cores
    /// must reproduce every level's statistics, the summed probe latency
    /// and the ordered stream of lines written back to memory. LRU
    /// order, a hit rule or the victim cascade cannot change without
    /// moving one of these numbers.
    #[test]
    fn seeded_mix_pins_stats_and_writeback_stream() {
        let mut h = Hierarchy::new(&HierarchyConfig {
            cores: 4,
            l1_size: 4 * LINE_SIZE * 2,
            l2_size: 8 * LINE_SIZE * 2,
            l3_size: 16 * LINE_SIZE * 2,
            l4_size: 32 * LINE_SIZE * 2,
            ways: 2,
        })
        .unwrap();
        let mut rng = ss_common::DetRng::new(0x4C_E5E1);
        let mut memory: BTreeMap<u64, Line> = BTreeMap::new();
        let mut stream: Vec<(BlockAddr, Line)> = Vec::new();
        let mut latency = 0u64;
        for _ in 0..50_000 {
            let core = rng.below(4) as usize;
            // Half the accesses go to a hot 24-line window, half to four
            // pages (four times the L4), so every level hits and evicts.
            let span = if rng.below(2) == 0 { 24 } else { 256 };
            let addr = a(rng.below(span));
            let value = rng.next_u64() as u8;
            let first = stream.len();
            match rng.below(1000) {
                0..=399 => {
                    let r = h.access(core, AccessKind::Read, addr);
                    latency += r.latency.raw();
                    stream.extend(r.writebacks);
                    if r.needs_fetch {
                        let d = memory.get(&addr.raw()).copied().unwrap_or([0; LINE_SIZE]);
                        stream.extend(h.fill(core, addr, d, false));
                    }
                }
                400..=649 => {
                    let r = h.access(core, AccessKind::WritePartial, addr);
                    latency += r.latency.raw();
                    stream.extend(r.writebacks);
                    let mut d = match r.data {
                        Some(d) => d,
                        None => {
                            let d = memory.get(&addr.raw()).copied().unwrap_or([0; LINE_SIZE]);
                            stream.extend(h.fill(core, addr, d, true));
                            d
                        }
                    };
                    // One in three partial stores leaves the line as the
                    // RFO made it, so the hit rules run without the
                    // full-line write's invalidations behind them.
                    if !value.is_multiple_of(3) {
                        d[usize::from(value) % LINE_SIZE] = value;
                        let w = h.access(core, AccessKind::WriteLineNoFetch(d), addr);
                        latency += w.latency.raw();
                        stream.extend(w.writebacks);
                    }
                }
                650..=929 => {
                    let r = h.access(core, AccessKind::WriteLineNoFetch(line(value)), addr);
                    latency += r.latency.raw();
                    stream.extend(r.writebacks);
                }
                930..=979 => {
                    if let Some((d, true)) = h.invalidate_line(addr) {
                        stream.push((addr, d));
                    }
                }
                980..=994 => stream.extend(h.invalidate_page(addr.page())),
                _ => stream.extend(h.flush_all()),
            }
            for (a, d) in &stream[first..] {
                memory.insert(a.raw(), *d);
            }
            assert_single_writer(&h, 256);
            assert_filter_exact(&h, (0..4).map(PageId::new));
        }
        let stats = [Level::L1, Level::L2, Level::L3, Level::L4].map(|level| {
            let s = h.level_stats(level).cache;
            [
                s.hits.get(),
                s.misses.get(),
                s.evictions.get(),
                s.dirty_evictions.get(),
                s.invalidations.get(),
            ]
        });
        assert_eq!(
            stats,
            [
                [2095, 28346, 25243, 13901, 12566],
                [886, 27460, 2573, 2384, 6713],
                [6820, 20640, 7764, 2107, 13250],
                [1039, 19601, 3050, 484, 13114],
            ]
        );
        assert_eq!(latency, 1_966_496);
        assert_eq!(
            (stream.len(), fold(&stream)),
            (18_653, 0x82A7_4A68_1F0A_1397)
        );
    }

    /// The snoop filter stays exact on 16 cores, over a seeded mix shaped
    /// like `hierarchy_coherence`'s 16-core case. The 16 lines straddle
    /// the last two pages of a filter block, so core 15's count of the
    /// second is the block's last byte and a count at the wrong stride
    /// lands on the other page's. Half the runs use the second block,
    /// behind an unallocated first one.
    #[test]
    fn snoop_filter_stays_exact_on_16_cores() {
        for seed in 0..32 {
            let mut h = Hierarchy::new(&HierarchyConfig {
                cores: 16,
                l1_size: 4 * LINE_SIZE * 2,
                l2_size: 8 * LINE_SIZE * 2,
                l3_size: 16 * LINE_SIZE * 2,
                l4_size: 32 * LINE_SIZE * 2,
                ways: 2,
            })
            .unwrap();
            let first = PageId::new((1 + seed % 2) * FILTER_PAGES - 2);
            let pages = [first, PageId::new(first.raw() + 1)];
            let lines: Vec<BlockAddr> = (56..64)
                .map(|b| pages[0].block_addr(b))
                .chain((0..8).map(|b| pages[1].block_addr(b)))
                .collect();
            let mut rng = ss_common::DetRng::new(0x5F_11E0 + seed);
            for _ in 0..240 {
                let core = rng.below(16) as usize;
                let addr = lines[rng.below(16) as usize];
                // Full-line writes, reads, partial stores, then rarer
                // line invalidations and flushes.
                match [0, 0, 0, 0, 1, 1, 1, 1, 1, 2, 2, 2, 2, 3, 3, 4][rng.below(16) as usize] {
                    0 => {
                        h.access(core, AccessKind::WriteLineNoFetch(line(1)), addr);
                    }
                    op @ (1 | 2) => {
                        let kind = [AccessKind::Read, AccessKind::WritePartial][op - 1];
                        if h.access(core, kind, addr).needs_fetch {
                            h.fill(core, addr, line(0), op == 2);
                        }
                    }
                    3 => {
                        h.invalidate_line(addr);
                    }
                    _ => {
                        h.flush_all();
                    }
                }
                assert_filter_exact(&h, pages);
            }
        }
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
