//! Multi-channel sharded controller with a batched shred pipeline.
//!
//! Server consolidation is the paper's headline use case (§1, §6): a
//! hypervisor tearing down a VM must shred *gigabytes* of pages at once.
//! A single controller serialises those shreds behind one channel; this
//! module shards the controller into `n` independent channels — each
//! with its own counter state, write queue, spare pool and Merkle
//! subtree — behind one facade, and adds an MMIO shred *command queue*
//! so the kernel can post thousands of shreds and drain them in one
//! batch:
//!
//! * pages are spread across shards by the deterministic round-robin
//!   [`Interleave`] (page `p` → shard `p mod n`), so a contiguous free
//!   run parallelises across every channel;
//! * duplicate pages within a drain window are **coalesced** (one shred
//!   each) whenever the strategy permits
//!   ([`CounterBlock::shred_coalesces`]);
//! * per-shard work executes on independent channels, so batch latency
//!   is the *maximum* over shards, not the sum — the
//!   [`DrainReport`] exposes both so the scaling bench can report the
//!   speed-up directly.
//!
//! A 1-shard instance is the identity interleaving over an unmodified
//! base configuration, and therefore behaves — metric for metric, byte
//! for byte — like the plain [`MemoryController`]
//! (`tests/sharding.rs`).

use std::collections::{BTreeSet, VecDeque};

use ss_common::{BlockAddr, Counter, Cycles, Error, PageId, PhysAddr, Result};
use ss_crypto::Line;
use ss_trace::MetricsRegistry;

use crate::config::ShardedConfig;
use crate::controller::{MemoryController, ReadResult};
use crate::counters::CounterBlock;
use crate::interleave::Interleave;
use crate::mmio;
use crate::persist::RecoveryReport;

/// Per-shard outcomes of a fleet-wide operation (power loss, recovery).
///
/// One bad channel must not mask another's corruption: every shard runs
/// to completion and reports its own result, instead of the sweep
/// stopping at the first error. [`PerShard::ok`] collapses back to the
/// legacy first-error view for callers that only need pass/fail.
#[derive(Debug)]
pub struct PerShard<T> {
    results: Vec<(u32, Result<T>)>,
}

impl<T> PerShard<T> {
    /// Every shard's result, in shard order.
    pub fn results(&self) -> &[(u32, Result<T>)] {
        &self.results
    }

    /// Consumes the outcome, yielding every shard's result.
    pub fn into_results(self) -> Vec<(u32, Result<T>)> {
        self.results
    }

    /// Whether every shard succeeded.
    pub fn is_ok(&self) -> bool {
        self.results.iter().all(|(_, r)| r.is_ok())
    }

    /// Collapses to the first error (legacy single-error view); `Ok`
    /// when every shard succeeded.
    ///
    /// # Errors
    ///
    /// The lowest-numbered failing shard's error.
    pub fn ok(&self) -> Result<()> {
        for (_, r) in &self.results {
            if let Err(e) = r {
                return Err(e.clone());
            }
        }
        Ok(())
    }
}

/// Statistics of the shred command queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShredQueueStats {
    /// Pages accepted into the queue.
    pub enqueued: Counter,
    /// Duplicate pages dropped during drains (coalescing).
    pub coalesced: Counter,
    /// Shreds actually issued to shards by drains.
    pub executed: Counter,
    /// Drain doorbell rings that found work.
    pub drains: Counter,
    /// Enqueues that found the queue at or above capacity (the
    /// back-pressure signal to the kernel).
    pub backpressure: Counter,
}

/// What one batched drain did and what it cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Shreds issued to the shards.
    pub executed: u64,
    /// Duplicate pages coalesced away.
    pub coalesced: u64,
    /// Batch latency: the busiest shard's elapsed cycles. Shards are
    /// independent channels, so they run in parallel.
    pub elapsed: Cycles,
    /// The same work serialised on one channel (the sum over shards) —
    /// the baseline the sharding speed-up is measured against.
    pub serial_cycles: Cycles,
}

/// `n` independent [`MemoryController`] shards behind one facade, plus
/// the batched shred command queue.
#[derive(Debug)]
pub struct ShardedController {
    config: ShardedConfig,
    interleave: Interleave,
    shards: Vec<MemoryController>,
    shred_queue: VecDeque<PageId>,
    queue_stats: ShredQueueStats,
}

impl ShardedController {
    /// Builds the sharded controller: validates the configuration and
    /// constructs one [`MemoryController`] per shard, each owning an
    /// equal capacity slice and a decorrelated fault seed.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] from [`ShardedConfig::validate`] or from
    /// any shard's construction.
    pub fn new(config: ShardedConfig) -> Result<Self> {
        config.validate()?;
        let interleave = Interleave::new(config.shards)?;
        let shards = (0..config.shards)
            .map(|s| MemoryController::new(config.shard_config(s)))
            .collect::<Result<Vec<_>>>()?;
        Ok(ShardedController {
            config,
            interleave,
            shards,
            shred_queue: VecDeque::new(),
            queue_stats: ShredQueueStats::default(),
        })
    }

    /// The configuration.
    pub fn config(&self) -> &ShardedConfig {
        &self.config
    }

    /// The page→shard map.
    pub fn interleave(&self) -> &Interleave {
        &self.interleave
    }

    /// Number of shards.
    pub fn shards(&self) -> u32 {
        self.config.shards
    }

    /// Current depth of the shred command queue.
    pub fn shred_queue_len(&self) -> usize {
        self.shred_queue.len()
    }

    /// Shred-queue statistics.
    pub fn shred_queue_stats(&self) -> &ShredQueueStats {
        &self.queue_stats
    }

    fn shard_of_page(&mut self, page: PageId) -> (&mut MemoryController, PageId) {
        let s = self.interleave.shard_of_page(page) as usize;
        let local = self.interleave.local_page(page);
        (&mut self.shards[s], local)
    }

    /// Reads the block at the global address `addr`.
    ///
    /// # Errors
    ///
    /// The owning shard's read-path errors. Out-of-range addresses are
    /// reported against the *total* capacity.
    pub fn read_block(&mut self, addr: BlockAddr, now: Cycles) -> Result<ReadResult> {
        self.check_data_addr(addr)?;
        let s = self.interleave.shard_of_block(addr) as usize;
        let local = self.interleave.local_block(addr);
        self.shards[s].read_block(local, now)
    }

    /// Writes the block at the global address `addr`.
    ///
    /// # Errors
    ///
    /// The owning shard's write-path errors.
    pub fn write_block(
        &mut self,
        addr: BlockAddr,
        data: &Line,
        zeroing: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        self.check_data_addr(addr)?;
        let s = self.interleave.shard_of_block(addr) as usize;
        let local = self.interleave.local_block(addr);
        self.shards[s].write_block(local, data, zeroing, now)
    }

    /// Synchronous shred of one page (the legacy [`mmio::SHRED_REG`]
    /// path), routed to the owning shard.
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::shred_page_at`].
    pub fn shred_page_at(
        &mut self,
        page: PageId,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        self.check_shred_target(page, kernel_mode, mmio::SHRED_REG)?;
        let (shard, local) = self.shard_of_page(page);
        shard.shred_page_at(local, kernel_mode, now)
    }

    /// Appends `page` to the shred command queue without executing it.
    /// Returns `true` when the queue has reached its configured capacity
    /// — the back-pressure signal telling the kernel to ring the drain
    /// doorbell before posting more.
    ///
    /// # Errors
    ///
    /// [`Error::PrivilegeViolation`] for user-mode callers (counted on
    /// the owning shard, like a synchronous denial) and
    /// [`Error::AddrOutOfRange`] for pages outside data memory.
    pub fn enqueue_shred(&mut self, page: PageId, kernel_mode: bool) -> Result<bool> {
        self.check_shred_target(page, kernel_mode, mmio::SHRED_ENQ_REG)?;
        self.shred_queue.push_back(page);
        self.queue_stats.enqueued.inc();
        let full = self.shred_queue.len() >= self.config.shred_queue_capacity;
        if full {
            self.queue_stats.backpressure.inc();
        }
        Ok(full)
    }

    /// Drains the queued shreds as one batch: duplicates are coalesced
    /// per page (when [`CounterBlock::shred_coalesces`] allows), the
    /// survivors are grouped by owning shard, and each shard executes
    /// its group back to back on its own channel. The batch completes
    /// when the busiest shard does.
    ///
    /// An empty queue is a cheap no-op (one cycle, not counted as a
    /// drain).
    ///
    /// # Errors
    ///
    /// [`Error::PrivilegeViolation`] for user-mode callers; shard
    /// shred-path errors otherwise. The drain is not transactional:
    /// shreds executed before an error stick, the rest of the batch is
    /// dropped.
    pub fn drain_shreds(&mut self, kernel_mode: bool, now: Cycles) -> Result<DrainReport> {
        if !kernel_mode {
            self.shards[0].note_shred_denied();
            return Err(Error::PrivilegeViolation {
                addr: mmio::SHRED_DRAIN_REG,
            });
        }
        if self.shred_queue.is_empty() {
            return Ok(DrainReport {
                executed: 0,
                coalesced: 0,
                elapsed: Cycles::new(1),
                serial_cycles: Cycles::new(1),
            });
        }
        self.queue_stats.drains.inc();

        let coalescing = CounterBlock::shred_coalesces(self.config.base.shred_strategy);
        let mut groups: Vec<Vec<PageId>> = vec![Vec::new(); self.shards.len()];
        let mut seen = BTreeSet::new();
        let mut executed = 0u64;
        let mut coalesced = 0u64;
        while let Some(page) = self.shred_queue.pop_front() {
            if coalescing && !seen.insert(page.raw()) {
                coalesced += 1;
                continue;
            }
            executed += 1;
            groups[self.interleave.shard_of_page(page) as usize]
                .push(self.interleave.local_page(page));
        }
        self.queue_stats.coalesced.add(coalesced);
        self.queue_stats.executed.add(executed);

        let mut elapsed = Cycles::ZERO;
        let mut serial = Cycles::ZERO;
        for (s, group) in groups.into_iter().enumerate() {
            let mut shard_elapsed = Cycles::ZERO;
            for local in group {
                shard_elapsed += self.shards[s].shred_page_at(local, true, now + shard_elapsed)?;
            }
            serial += shard_elapsed;
            elapsed = elapsed.max(shard_elapsed);
        }
        Ok(DrainReport {
            executed,
            coalesced,
            elapsed,
            serial_cycles: serial,
        })
    }

    /// MMIO entry point mirroring [`MemoryController::mmio_write`], with
    /// real queue semantics for [`mmio::SHRED_ENQ_REG`] (returns one
    /// cycle: posting is the cheap half of the pipeline) and
    /// [`mmio::SHRED_DRAIN_REG`] (returns the batch latency).
    ///
    /// # Errors
    ///
    /// As for the plain controller: privilege violations for user-mode
    /// writers (unknown registers included), malformed values for
    /// kernel-mode ones; unknown registers in kernel mode complete as
    /// plain bus writes.
    pub fn mmio_write(
        &mut self,
        reg: PhysAddr,
        value: u64,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        match mmio::decode(reg, value) {
            Ok(mmio::MmioOp::Shred(pa)) => self.shred_page_at(pa.page(), kernel_mode, now),
            Ok(mmio::MmioOp::ShredEnqueue(pa)) => self
                .enqueue_shred(pa.page(), kernel_mode)
                .map(|_| Cycles::new(1)),
            Ok(mmio::MmioOp::ShredDrain) => self.drain_shreds(kernel_mode, now).map(|r| r.elapsed),
            Err(_) if !kernel_mode => {
                self.shards[0].note_shred_denied();
                Err(Error::PrivilegeViolation { addr: reg })
            }
            Err(mmio::MmioError::UnknownRegister { .. }) => Ok(Cycles::new(1)),
            Err(e @ mmio::MmioError::MalformedValue { .. }) => Err(e.into_error()),
        }
    }

    /// Cycles until every shard's channels go idle (the fence cost at
    /// `now`): the maximum over shards, since channels drain in
    /// parallel.
    pub fn fence(&self, now: Cycles) -> Cycles {
        self.shards
            .iter()
            .map(|s| s.fence(now))
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// [`MemoryController::fence_drain`] on every shard: each drains its
    /// own write queue, then the fence waits for the slowest shard's
    /// channels — the maximum over shards, as for
    /// [`ShardedController::fence`].
    ///
    /// # Errors
    ///
    /// The first failing shard's device write error from its drain.
    pub fn fence_drain(&mut self, now: Cycles) -> Result<Cycles> {
        let mut wait = Cycles::ZERO;
        for s in &mut self.shards {
            wait = wait.max(s.fence_drain(now)?);
        }
        Ok(wait)
    }

    /// Power loss across every shard (each flushes per its own
    /// persistence mode). Queued shred *commands* are volatile MMIO
    /// state and are lost — the kernel re-posts after recovery, exactly
    /// as it would re-issue an un-acked synchronous shred.
    ///
    /// Every shard runs its power-down path even when an earlier shard
    /// errors: power fails on all channels at once, and a flush failure
    /// on channel 0 must not leave channels 1..n un-cycled (or mask
    /// their own failures). Use [`PerShard::ok`] for the legacy
    /// first-error view.
    pub fn power_loss(&mut self) -> PerShard<()> {
        self.shred_queue.clear();
        let results = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (i as u32, s.power_loss()))
            .collect();
        PerShard { results }
    }

    /// Post-power-loss recovery check across every shard. All shards are
    /// checked — one shard's counter loss does not hide another's.
    pub fn recover(&self) -> PerShard<()> {
        let results = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| (i as u32, s.recover()))
            .collect();
        PerShard { results }
    }

    /// The reboot recovery protocol
    /// ([`MemoryController::recover_mut`]) on every shard. All shards
    /// recover even when one fails, so a sweep sees every channel's
    /// verdict.
    pub fn recover_mut_all(&mut self) -> PerShard<RecoveryReport> {
        let results = self
            .shards
            .iter_mut()
            .enumerate()
            .map(|(i, s)| (i as u32, s.recover_mut()))
            .collect();
        PerShard { results }
    }

    /// Clears statistics on every shard and on the queue.
    pub fn reset_stats(&mut self) {
        for s in &mut self.shards {
            s.reset_stats();
        }
        self.queue_stats = ShredQueueStats::default();
    }

    /// Merged metrics: per-shard registries summed name-by-name (the
    /// stable `ctrl.*`/`nvm.*`/... names aggregate across shards), plus
    /// the sharding layer's own `shard.*` gauges.
    pub fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        for s in &self.shards {
            reg.merge(&s.inspect().metrics());
        }
        reg.set("shard.count", u64::from(self.config.shards));
        reg.set("shard.queue.len", self.shred_queue.len() as u64);
        reg.set("shard.queue.enqueued", self.queue_stats.enqueued.get());
        reg.set("shard.queue.coalesced", self.queue_stats.coalesced.get());
        reg.set("shard.queue.executed", self.queue_stats.executed.get());
        reg.set("shard.queue.drains", self.queue_stats.drains.get());
        reg.set(
            "shard.queue.backpressure",
            self.queue_stats.backpressure.get(),
        );
        reg
    }

    /// Flushes dirty counter blocks to NVM on every shard (clean
    /// shutdown / battery-backed power-down behaviour).
    ///
    /// # Errors
    ///
    /// The first shard's NVM write error.
    pub fn flush_counters(&mut self) -> Result<()> {
        for s in &mut self.shards {
            s.flush_counters()?;
        }
        Ok(())
    }

    /// One background-scrubber step on *every* shard (each channel runs
    /// its own scrubber in idle cycles). Returns how many shards healed
    /// something this step.
    ///
    /// # Errors
    ///
    /// The first shard's remap-path error.
    pub fn scrub_step(&mut self, now: Cycles) -> Result<u64> {
        let mut healed = 0u64;
        for s in &mut self.shards {
            if s.scrub_step(now)? {
                healed += 1;
            }
        }
        Ok(healed)
    }

    /// Direct access to shard `s` (tests and the facade layer).
    pub(crate) fn shard(&self, s: usize) -> Option<&MemoryController> {
        self.shards.get(s)
    }

    /// Mutable access to shard `s` (the fault-port facade).
    pub(crate) fn shard_mut(&mut self, s: usize) -> Option<&mut MemoryController> {
        self.shards.get_mut(s)
    }

    fn check_data_addr(&self, addr: BlockAddr) -> Result<()> {
        if addr.raw() >= self.config.base.data_capacity {
            return Err(Error::AddrOutOfRange {
                addr: PhysAddr::new(addr.raw()),
                capacity: self.config.base.data_capacity,
            });
        }
        Ok(())
    }

    /// The shared privilege + range gate of the shred entry points.
    /// Denials are counted on the owning shard (shard 0 when the page is
    /// out of range) so merged `ctrl.shred_denied` matches the plain
    /// controller's accounting.
    fn check_shred_target(&mut self, page: PageId, kernel_mode: bool, reg: PhysAddr) -> Result<()> {
        if !kernel_mode {
            let s = if page.base_addr().raw() < self.config.base.data_capacity {
                self.interleave.shard_of_page(page) as usize
            } else {
                0
            };
            self.shards[s].note_shred_denied();
            return Err(Error::PrivilegeViolation { addr: reg });
        }
        if page.base_addr().raw() >= self.config.base.data_capacity {
            return Err(Error::AddrOutOfRange {
                addr: page.base_addr(),
                capacity: self.config.base.data_capacity,
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfig;

    fn sharded(n: u32) -> ShardedController {
        ShardedController::new(ShardedConfig::new(n, ControllerConfig::small_test())).unwrap()
    }

    #[test]
    fn routes_reads_and_writes_across_shards() {
        let mut sc = sharded(4);
        // One page per shard, distinct data.
        for p in 0..8u64 {
            let addr = PageId::new(p).block_addr(3);
            sc.write_block(addr, &[p as u8 + 1; 64], false, Cycles::ZERO)
                .unwrap();
        }
        for p in 0..8u64 {
            let addr = PageId::new(p).block_addr(3);
            let r = sc.read_block(addr, Cycles::ZERO).unwrap();
            assert_eq!(r.data, [p as u8 + 1; 64], "page {p} misrouted");
        }
        // Every shard saw exactly 2 of the 8 pages.
        for s in 0..4 {
            assert_eq!(sc.shard(s).unwrap().inspect().stats().mem.writes.get(), 2);
        }
    }

    #[test]
    fn batched_drain_coalesces_and_parallelises() {
        let mut sc = sharded(4);
        for p in 0..16u64 {
            let addr = PageId::new(p).block_addr(0);
            sc.write_block(addr, &[7; 64], false, Cycles::ZERO).unwrap();
        }
        for p in 0..16u64 {
            assert!(!sc.enqueue_shred(PageId::new(p), true).unwrap());
        }
        // Duplicates of already-queued pages coalesce away.
        sc.enqueue_shred(PageId::new(0), true).unwrap();
        sc.enqueue_shred(PageId::new(5), true).unwrap();

        let report = sc.drain_shreds(true, Cycles::ZERO).unwrap();
        assert_eq!(report.executed, 16);
        assert_eq!(report.coalesced, 2);
        // 4 pages per shard on 4 parallel channels: the batch costs what
        // one shard pays, a quarter of the serialised cost.
        assert_eq!(report.serial_cycles, report.elapsed * 4);
        assert_eq!(sc.shred_queue_len(), 0);

        // Every shredded page now zero-fills.
        for p in 0..16u64 {
            let r = sc
                .read_block(PageId::new(p).block_addr(0), Cycles::ZERO)
                .unwrap();
            assert!(r.zero_filled, "page {p} not shredded");
        }
    }

    #[test]
    fn mmio_queue_registers_drive_the_pipeline() {
        let mut sc = sharded(2);
        let page = PageId::new(6);
        sc.write_block(page.block_addr(1), &[9; 64], false, Cycles::ZERO)
            .unwrap();
        sc.mmio_write(
            mmio::SHRED_ENQ_REG,
            page.base_addr().raw(),
            true,
            Cycles::ZERO,
        )
        .unwrap();
        assert_eq!(sc.shred_queue_len(), 1);
        assert!(
            !sc.read_block(page.block_addr(1), Cycles::ZERO)
                .unwrap()
                .zero_filled
        );
        let elapsed = sc
            .mmio_write(mmio::SHRED_DRAIN_REG, 0, true, Cycles::ZERO)
            .unwrap();
        assert!(elapsed > Cycles::new(1));
        assert!(
            sc.read_block(page.block_addr(1), Cycles::ZERO)
                .unwrap()
                .zero_filled
        );
    }

    #[test]
    fn user_mode_is_denied_everywhere() {
        let mut sc = sharded(2);
        assert!(matches!(
            sc.enqueue_shred(PageId::new(1), false),
            Err(Error::PrivilegeViolation { .. })
        ));
        assert!(matches!(
            sc.drain_shreds(false, Cycles::ZERO),
            Err(Error::PrivilegeViolation { .. })
        ));
        assert!(matches!(
            sc.mmio_write(mmio::SHRED_DRAIN_REG, 0, false, Cycles::ZERO),
            Err(Error::PrivilegeViolation { .. })
        ));
        assert_eq!(sc.metrics().get("ctrl.shred_denied"), Some(3));
        assert_eq!(sc.shred_queue_len(), 0, "denied enqueue must not queue");
    }

    #[test]
    fn backpressure_signals_at_capacity() {
        let mut cfg = ShardedConfig::new(2, ControllerConfig::small_test());
        cfg.shred_queue_capacity = 3;
        let mut sc = ShardedController::new(cfg).unwrap();
        assert!(!sc.enqueue_shred(PageId::new(0), true).unwrap());
        assert!(!sc.enqueue_shred(PageId::new(1), true).unwrap());
        assert!(sc.enqueue_shred(PageId::new(2), true).unwrap());
        assert_eq!(sc.shred_queue_stats().backpressure.get(), 1);
    }

    #[test]
    fn empty_drain_is_cheap_and_uncounted() {
        let mut sc = sharded(2);
        let r = sc.drain_shreds(true, Cycles::ZERO).unwrap();
        assert_eq!(r.executed, 0);
        assert_eq!(sc.shred_queue_stats().drains.get(), 0);
    }

    #[test]
    fn merged_metrics_carry_shard_gauges() {
        let mut sc = sharded(4);
        sc.enqueue_shred(PageId::new(0), true).unwrap();
        sc.drain_shreds(true, Cycles::ZERO).unwrap();
        let m = sc.metrics();
        assert_eq!(m.get("shard.count"), Some(4));
        assert_eq!(m.get("shard.queue.executed"), Some(1));
        assert_eq!(m.get("ctrl.shreds"), Some(1));
    }
}
