//! `clear_page` strategies (§2.3, Table 2, Fig. 5).
//!
//! Each strategy renders a reused frame safe to map, with very different
//! hardware costs. [`shred_page`] executes one on a [`MachineOps`]
//! implementation and returns the kernel-visible latency; the hardware
//! cost (memory writes, pollution, bandwidth) lands in the machine's own
//! statistics and is what the `repro` experiments measure.

use ss_common::{Cycles, PageId, Result, LINE_SIZE};

use crate::machine::MachineOps;

/// How the kernel clears a page before reuse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ZeroStrategy {
    /// `movq`-style temporal stores: every line is brought into the cache
    /// and written with zeros (cache pollution, deferred NVM writes).
    Temporal,
    /// `movntq`-style non-temporal stores: lines bypass the caches and go
    /// straight to NVM, followed by an `sfence`. The paper's baseline.
    #[default]
    NonTemporal,
    /// Offload to a DMA zeroing engine near the controller \[21\]: memory
    /// writes still happen but the CPU is free.
    DmaEngine,
    /// RowClone-style in-memory zeroing \[34\]: cells written inside the
    /// device, no memory-bus traffic (and DRAM-specific in the paper).
    RowClone,
    /// The Silent Shredder shred command: no data writes at all.
    ShredCommand,
    /// No shredding (insecure; the "No-Zeroing" bar of Fig. 5).
    None,
}

impl ZeroStrategy {
    /// Whether the strategy leaves previous data readable (insecure).
    pub fn is_secure(self) -> bool {
        self != ZeroStrategy::None
    }
}

/// Executes a page shred under `strategy` on core `core` at time `now`.
/// Returns the cycles the kernel stalls for.
///
/// # Errors
///
/// Propagates controller errors from the shred-command path.
pub fn shred_page<M: MachineOps + ?Sized>(
    machine: &mut M,
    strategy: ZeroStrategy,
    core: usize,
    page: PageId,
    now: Cycles,
) -> Result<Cycles> {
    let zero = [0u8; LINE_SIZE];
    let mut elapsed = Cycles::ZERO;
    match strategy {
        ZeroStrategy::Temporal => {
            // The stores themselves; dirty zero lines reach NVM later via
            // eviction (§2.3's "not persistent right away" caveat).
            for addr in page.blocks() {
                elapsed += machine.write_line_temporal(core, addr, &zero, true, now + elapsed);
            }
        }
        ZeroStrategy::NonTemporal => {
            // Bulk zeroing bypassing the caches must invalidate stale
            // copies first (§4.3), then fence.
            elapsed += machine.invalidate_page(page, false, now);
            for addr in page.blocks() {
                elapsed += machine.write_line_nt(core, addr, &zero, true, now + elapsed);
            }
            elapsed += machine.fence(core, now + elapsed);
        }
        ZeroStrategy::DmaEngine => {
            elapsed += machine.invalidate_page(page, false, now);
            elapsed += machine.dma_zero_page(page, true, now + elapsed);
        }
        ZeroStrategy::RowClone => {
            elapsed += machine.invalidate_page(page, false, now);
            elapsed += machine.rowclone_zero_page(page, true, now + elapsed);
        }
        ZeroStrategy::ShredCommand => {
            // Fig. 6: hint the controller (step 1); it invalidates (2),
            // flips counters (3) and acks (4–5). The invalidation is
            // modelled explicitly since the machine owns the caches.
            elapsed += machine.invalidate_page(page, false, now);
            elapsed += machine.mmio_shred(core, page, now + elapsed)?;
        }
        ZeroStrategy::None => {}
    }
    Ok(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MockMachine;

    #[test]
    fn temporal_writes_every_line() {
        let mut m = MockMachine::new(8);
        let page = PageId::new(2);
        m.write_line_temporal(0, page.block_addr(0), &[9; 64], false, Cycles::ZERO);
        shred_page(&mut m, ZeroStrategy::Temporal, 0, page, Cycles::ZERO).unwrap();
        assert_eq!(m.zeroing_writes, 64);
        assert_eq!(m.peek(page.block_addr(0)), [0; 64]);
    }

    #[test]
    fn non_temporal_fences() {
        let mut m = MockMachine::new(8);
        let lat = shred_page(
            &mut m,
            ZeroStrategy::NonTemporal,
            0,
            PageId::new(1),
            Cycles::ZERO,
        )
        .unwrap();
        assert_eq!(m.zeroing_writes, 64);
        // 64 NT stores (4 cyc) + invalidate (10) + fence (1).
        assert_eq!(lat, Cycles::new(64 * 4 + 10 + 1));
    }

    #[test]
    fn shred_command_writes_nothing() {
        let mut m = MockMachine::new(8);
        let page = PageId::new(3);
        m.write_line_temporal(0, page.block_addr(7), &[5; 64], false, Cycles::ZERO);
        m.zeroing_writes = 0;
        shred_page(&mut m, ZeroStrategy::ShredCommand, 0, page, Cycles::ZERO).unwrap();
        assert_eq!(m.zeroing_writes, 0, "shred command caused data writes");
        assert_eq!(m.shredded, vec![page]);
        assert_eq!(m.peek(page.block_addr(7)), [0; 64]);
    }

    #[test]
    fn none_strategy_leaves_data() {
        let mut m = MockMachine::new(8);
        let page = PageId::new(4);
        m.write_line_temporal(0, page.block_addr(0), &[0xAB; 64], false, Cycles::ZERO);
        let lat = shred_page(&mut m, ZeroStrategy::None, 0, page, Cycles::ZERO).unwrap();
        assert_eq!(lat, Cycles::ZERO);
        assert_eq!(m.peek(page.block_addr(0)), [0xAB; 64], "data should leak");
    }

    #[test]
    fn strategy_properties() {
        assert!(!ZeroStrategy::None.is_secure());
        assert!(ZeroStrategy::ShredCommand.is_secure());
    }

    #[test]
    fn dma_and_rowclone_zero_functionally() {
        for strategy in [ZeroStrategy::DmaEngine, ZeroStrategy::RowClone] {
            let mut m = MockMachine::new(8);
            let page = PageId::new(5);
            m.write_line_temporal(0, page.block_addr(1), &[1; 64], false, Cycles::ZERO);
            shred_page(&mut m, strategy, 0, page, Cycles::ZERO).unwrap();
            assert_eq!(m.peek(page.block_addr(1)), [0; 64]);
        }
    }
}
