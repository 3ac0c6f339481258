//! The hardware stack below the kernel: cache hierarchy + controller.
//!
//! [`Hardware`] implements [`ss_os::machine::MachineOps`], so the
//! simulated kernel drives real caches and a real Silent Shredder
//! controller rather than the mock used in OS unit tests.

use ss_cache::{AccessKind, Hierarchy, Level};
use ss_common::{BlockAddr, Cycles, PageId, Result, LINE_SIZE};
use ss_core::MemoryController;
use ss_os::machine::MachineOps;
use ss_os::ZeroStrategy;

/// A 64-byte line.
pub type Line = [u8; LINE_SIZE];

/// The cache hierarchy plus the memory controller.
#[derive(Debug)]
pub struct Hardware {
    /// The 4-level coherent cache hierarchy.
    pub hierarchy: Hierarchy,
    /// The secure NVMM controller.
    pub controller: MemoryController,
}

impl Hardware {
    /// Creates the stack.
    pub fn new(hierarchy: Hierarchy, controller: MemoryController) -> Self {
        Hardware {
            hierarchy,
            controller,
        }
    }

    fn drain_writebacks(&mut self, writebacks: Vec<(BlockAddr, Line)>, now: Cycles) -> Result<()> {
        for (addr, data) in writebacks {
            self.controller.write_block(addr, &data, false, now)?;
        }
        Ok(())
    }

    /// Probes the hierarchy for a load or partial store and, on an LLC
    /// miss, fetches the line from the controller and fills it (dirty for
    /// a store). Returns the line and the latency.
    fn fetch(
        &mut self,
        core: usize,
        kind: AccessKind,
        addr: BlockAddr,
        now: Cycles,
    ) -> Result<(Line, Cycles)> {
        let probe = self.hierarchy.access(core, kind, addr);
        let mut latency = probe.latency;
        self.drain_writebacks(probe.writebacks, now)?;
        if let Some(data) = probe.data {
            return Ok((data, latency));
        }
        debug_assert!(probe.needs_fetch);
        let fetched = self.controller.read_block(addr, now + latency)?;
        latency += fetched.latency;
        let dirty = kind == AccessKind::WritePartial;
        let wbs = self.hierarchy.fill(core, addr, fetched.data, dirty);
        self.drain_writebacks(wbs, now + latency)?;
        Ok((fetched.data, latency))
    }

    /// A demand read through the hierarchy, fetching from the controller
    /// on an LLC miss. Returns the data and total latency.
    ///
    /// # Errors
    ///
    /// Controller errors (integrity, range, counter loss).
    pub fn read_access(
        &mut self,
        core: usize,
        addr: BlockAddr,
        now: Cycles,
    ) -> Result<(Line, Cycles)> {
        self.fetch(core, AccessKind::Read, addr, now)
    }

    /// A partial-line store (read-for-ownership on miss).
    ///
    /// # Errors
    ///
    /// Controller errors on the RFO fetch or displaced writebacks.
    pub fn write_partial_access(
        &mut self,
        core: usize,
        addr: BlockAddr,
        mutate: impl FnOnce(&mut Line),
        now: Cycles,
    ) -> Result<Cycles> {
        let (mut line, latency) = self.fetch(core, AccessKind::WritePartial, addr, now)?;
        mutate(&mut line);
        // Install the mutated bytes (hits L1, which now owns the line).
        let probe = self
            .hierarchy
            .access(core, AccessKind::WriteLineNoFetch(line), addr);
        self.drain_writebacks(probe.writebacks, now + latency)?;
        Ok(latency)
    }

    /// A full-line store through the caches.
    ///
    /// # Errors
    ///
    /// Controller errors on displaced writebacks.
    pub fn write_line_access(
        &mut self,
        core: usize,
        addr: BlockAddr,
        data: &Line,
        now: Cycles,
    ) -> Result<Cycles> {
        let probe = self
            .hierarchy
            .access(core, AccessKind::WriteLineNoFetch(*data), addr);
        self.drain_writebacks(probe.writebacks, now)?;
        Ok(probe.latency)
    }

    /// Level stats passthrough (for reports).
    pub fn level_stats(&self, level: Level) -> ss_cache::LevelStats {
        self.hierarchy.level_stats(level)
    }
}

impl MachineOps for Hardware {
    fn write_line_temporal(
        &mut self,
        core: usize,
        addr: BlockAddr,
        data: &Line,
        _zeroing: bool,
        now: Cycles,
    ) -> Cycles {
        // Zeroing attribution for temporal stores is measured
        // differentially (no-zeroing run vs zeroing run), exactly as the
        // paper does for Fig. 5 — the eventual evictions cannot carry a
        // tag through the hierarchy.
        self.write_line_access(core, addr, data, now)
            .expect("kernel temporal store failed")
    }

    fn write_line_nt(
        &mut self,
        core: usize,
        addr: BlockAddr,
        data: &Line,
        zeroing: bool,
        now: Cycles,
    ) -> Cycles {
        let _ = core;
        // Non-temporal: invalidate any cached copy (stale by definition),
        // then write memory directly.
        self.hierarchy.invalidate_line(addr);
        self.controller
            .write_block(addr, data, zeroing, now)
            .expect("non-temporal store failed")
    }

    fn read_line(&mut self, core: usize, addr: BlockAddr, now: Cycles) -> (Line, Cycles) {
        self.read_access(core, addr, now)
            .expect("kernel read failed")
    }

    fn invalidate_page(&mut self, page: PageId, writeback: bool, now: Cycles) -> Cycles {
        let dirty = self.hierarchy.invalidate_page(page);
        if writeback {
            for (addr, data) in dirty {
                self.controller
                    .write_block(addr, &data, false, now)
                    .expect("invalidation writeback failed");
            }
        }
        // Walking 64 tags across the hierarchy; directory-assisted.
        Cycles::new(64)
    }

    fn mmio_shred(&mut self, _core: usize, page: PageId, now: Cycles) -> Result<Cycles> {
        self.controller
            .mmio_write(ss_core::SHRED_REG, page.base_addr().raw(), true, now)
    }

    fn dma_zero_page(&mut self, page: PageId, zeroing: bool, now: Cycles) -> Cycles {
        // The DMA engine performs the 64 zero writes in the background
        // (their bandwidth occupancy still delays later accesses); the
        // CPU pays only the descriptor-issue cost [21].
        let zero = [0u8; LINE_SIZE];
        for addr in page.blocks() {
            self.controller
                .write_block(addr, &zero, zeroing, now)
                .expect("dma zero write failed");
        }
        Cycles::new(40)
    }

    fn rowclone_zero_page(&mut self, page: PageId, _zeroing: bool, now: Cycles) -> Cycles {
        // In-memory zeroing: cells written, no bus traffic, CPU pays only
        // the command issue; the device-side latency is hidden.
        self.controller
            .zero_page_in_place(page, now)
            .expect("rowclone zero failed");
        Cycles::new(20)
    }

    fn fence(&mut self, _core: usize, now: Cycles) -> Cycles {
        self.controller.fence(now)
    }
}

/// Whether a zero strategy is compatible with a controller configuration
/// (the shred command needs the shredder enabled).
pub fn strategy_supported(strategy: ZeroStrategy, controller: &ss_core::ControllerConfig) -> bool {
    match strategy {
        ZeroStrategy::ShredCommand => controller.shredder,
        _ => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_cache::HierarchyConfig;
    use ss_core::ControllerConfig;

    fn hw() -> Hardware {
        let hierarchy = Hierarchy::new(&HierarchyConfig {
            cores: 2,
            ..HierarchyConfig::scaled_down(64)
        })
        .unwrap();
        let controller = MemoryController::new(ControllerConfig::small_test()).unwrap();
        Hardware::new(hierarchy, controller)
    }

    #[test]
    fn read_after_write_through_cache() {
        let mut h = hw();
        let addr = PageId::new(1).block_addr(0);
        h.write_line_access(0, addr, &[9; 64], Cycles::ZERO)
            .unwrap();
        let (data, lat) = h.read_access(0, addr, Cycles::ZERO).unwrap();
        assert_eq!(data, [9; 64]);
        assert_eq!(lat, Cycles::new(2), "should be an L1 hit");
    }

    #[test]
    fn dirty_eviction_reaches_encrypted_nvm() {
        let hierarchy = Hierarchy::new(&HierarchyConfig {
            cores: 2,
            ..HierarchyConfig::scaled_down(64)
        })
        .unwrap();
        let controller = MemoryController::new(
            ControllerConfig::builder()
                .data_capacity(8 << 20)
                .counter_cache_bytes(16 << 10)
                .build()
                .unwrap(),
        )
        .unwrap();
        let mut h = Hardware::new(hierarchy, controller);
        // Write more lines than the whole hierarchy holds to force
        // evictions to memory.
        for page in 0..2000u64 {
            for b in [0usize, 8] {
                let addr = PageId::new(page).block_addr(b);
                h.write_line_access(0, addr, &[page as u8 | 1; 64], Cycles::ZERO)
                    .unwrap();
            }
        }
        assert!(
            h.controller.inspect().stats().mem.writes.get() > 0,
            "nothing reached NVM"
        );
        // And whatever reached NVM is ciphertext, not the plaintext.
        let written = h.controller.faults().cold_scan_data();
        assert!(!written.is_empty());
        for (addr, raw) in written {
            let page = addr.page().raw() as u8 | 1;
            assert_ne!(raw, [page; 64], "plaintext leaked at {addr}");
        }
    }

    #[test]
    fn partial_write_miss_fetches() {
        let mut h = hw();
        let addr = PageId::new(2).block_addr(3);
        h.write_line_nt(0, addr, &[7; 64], false, Cycles::ZERO);
        let lat = h
            .write_partial_access(0, addr, |line| line[0] = 1, Cycles::ZERO)
            .unwrap();
        assert!(lat > Cycles::new(10), "RFO should reach memory: {lat}");
        let (data, _) = h.read_access(0, addr, Cycles::ZERO).unwrap();
        assert_eq!(data[0], 1);
        assert_eq!(data[1], 7);
    }

    #[test]
    fn shred_through_machine_ops_zero_fills() {
        let mut h = hw();
        let page = PageId::new(3);
        h.write_line_access(0, page.block_addr(0), &[5; 64], Cycles::ZERO)
            .unwrap();
        ss_os::zeroing::shred_page(&mut h, ZeroStrategy::ShredCommand, 0, page, Cycles::ZERO)
            .unwrap();
        let (data, _) = h.read_access(0, page.block_addr(0), Cycles::ZERO).unwrap();
        assert_eq!(data, [0u8; 64]);
        assert_eq!(h.controller.inspect().stats().mem.zeroing_writes.get(), 0);
        assert_eq!(h.controller.inspect().stats().shreds.get(), 1);
    }

    #[test]
    fn nt_zeroing_writes_64_lines() {
        let mut h = hw();
        let page = PageId::new(4);
        ss_os::zeroing::shred_page(&mut h, ZeroStrategy::NonTemporal, 0, page, Cycles::ZERO)
            .unwrap();
        assert_eq!(h.controller.inspect().stats().mem.zeroing_writes.get(), 64);
    }

    #[test]
    fn rowclone_writes_cells_without_bus() {
        let mut h = hw();
        let page = PageId::new(5);
        ss_os::zeroing::shred_page(&mut h, ZeroStrategy::RowClone, 0, page, Cycles::ZERO).unwrap();
        assert_eq!(h.controller.inspect().stats().mem.zeroing_writes.get(), 64);
        // Functional: page reads zero afterwards.
        let (data, _) = h.read_access(0, page.block_addr(9), Cycles::ZERO).unwrap();
        assert_eq!(data, [0u8; 64]);
    }

    #[test]
    fn strategy_support_matrix() {
        let shredder = ControllerConfig::default();
        let baseline = ControllerConfig::encrypted_baseline();
        assert!(strategy_supported(ZeroStrategy::ShredCommand, &shredder));
        assert!(!strategy_supported(ZeroStrategy::ShredCommand, &baseline));
        assert!(strategy_supported(ZeroStrategy::NonTemporal, &baseline));
    }
}
