//! Read-only and fault-injection ports over [`MemoryController`].
//!
//! The controller's public surface is its *production* operations
//! (read/write/shred/fence/recover…). Everything else lives behind two
//! narrow ports, each method defined once, here:
//!
//! * [`MemoryController::inspect`] → [`Inspect`]: read-only observers —
//!   statistics, the unified metrics registry, trace records, healing
//!   and cache state. Taking `&self` only, an `Inspect` can never
//!   perturb the simulation, so harnesses and reports may probe freely
//!   between operations without risking byte-level divergence.
//! * [`MemoryController::faults`] → [`FaultPort`]: tamper/inject/peek
//!   hooks used by security and fault-injection tests. These mutate
//!   device state on purpose; keeping them off the controller proper
//!   makes any production call site that touches them stick out in
//!   review (and in `ss-lint`'s SEC-002 sweep).

use ss_common::{BlockAddr, PageId, Result, LINE_SIZE};
use ss_crypto::{share, Line, MerkleTree};
use ss_trace::{export_latency, MetricsRegistry, StageProfile, TraceRecord};

use super::{ControllerStats, MemoryController};
use crate::config::ProtectionMode;
use crate::counters::CounterBlock;
use crate::persist::CrashCut;
use crate::shard::ShardedController;
use crate::wqueue::WriteQueueStats;

/// Read-only view of a controller. Obtained via
/// [`MemoryController::inspect`]; lives only as long as the borrow.
#[derive(Debug)]
pub struct Inspect<'a> {
    mc: &'a MemoryController,
}

impl<'a> Inspect<'a> {
    /// Controller statistics (reads, writes, shreds, healing…).
    pub fn stats(&self) -> &'a ControllerStats {
        &self.mc.stats
    }

    /// Counter-cache hit/miss/eviction counters (drive Fig. 12).
    pub fn counter_cache_stats(&self) -> &'a ss_cache::CacheStats {
        self.mc.counter_cache.stats()
    }

    /// Write-queue counters, when a queue is configured.
    pub fn write_queue_stats(&self) -> Option<&'a WriteQueueStats> {
        self.mc.wqueue.as_ref().map(|q| q.stats())
    }

    /// Entries currently waiting in the write queue (0 when none).
    pub fn write_queue_len(&self) -> usize {
        self.mc.wqueue.as_ref().map_or(0, |q| q.len())
    }

    /// Device-level statistics of the backing NVM array.
    pub fn nvm_stats(&self) -> &'a ss_nvm::NvmStats {
        self.mc.nvm.stats()
    }

    /// Total line writes the NVM array has accepted — the event index
    /// that fault plans schedule against ("power loss after the Nth NVM
    /// write").
    pub fn nvm_writes(&self) -> u64 {
        self.mc.nvm.stats().writes.get()
    }

    /// `(address, writes)` of the most-worn NVM line, if any line has
    /// been written.
    pub fn nvm_max_wear(&self) -> Option<(BlockAddr, u64)> {
        self.mc.nvm.wear().max_wear()
    }

    /// Whether `page`'s counter line sits dirty in the counter cache
    /// (modified since it last reached NVM). Checked without disturbing
    /// LRU state.
    pub fn counter_line_dirty(&self, page: PageId) -> bool {
        let caddr = self.mc.counter_addr(page);
        self.mc.counter_cache.peek(caddr).is_some_and(|e| e.dirty)
    }

    /// Lines currently remapped onto spares.
    pub fn remapped_lines(&self) -> u64 {
        self.mc.heal.remapped_count()
    }

    /// Lines retired as unrecoverable.
    pub fn quarantined_lines(&self) -> u64 {
        self.mc.heal.quarantined_count()
    }

    /// Spare lines still available for remapping.
    pub fn spare_lines_free(&self) -> u64 {
        self.mc.heal.free()
    }

    /// Whether the line holding `addr` is quarantined.
    pub fn is_line_quarantined(&self, addr: BlockAddr) -> bool {
        self.mc.heal.is_quarantined(self.mc.device_addr(addr))
    }

    /// Whether `page` is registered as enclave-owned.
    pub fn is_enclave_page(&self, page: PageId) -> bool {
        self.mc.enclave_pages.contains(&page.raw())
    }

    /// Per-stage cycle attribution accumulated since the last
    /// [`MemoryController::reset_stats`].
    pub fn profile(&self) -> &'a StageProfile {
        &self.mc.profile
    }

    /// Retained trace records, oldest first (empty when tracing is
    /// disabled).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.mc.tracer.records()
    }

    /// Lifetime `(emitted, dropped)` trace-event totals.
    pub fn trace_totals(&self) -> (u64, u64) {
        self.mc.tracer.totals()
    }

    /// Whether event tracing is recording.
    pub fn trace_enabled(&self) -> bool {
        self.mc.tracer.is_enabled()
    }

    /// Snapshot of every statistic the controller owns or aggregates,
    /// under the workspace's stable dotted names (DESIGN.md §10). The
    /// key set is workload-independent: absent subsystems (e.g. no
    /// write queue) export zeros, so epoch deltas and cross-run diffs
    /// always see the same schema.
    pub fn metrics(&self) -> MetricsRegistry {
        let mc = self.mc;
        let mut reg = MetricsRegistry::new();
        let s = &mc.stats;
        reg.set("ctrl.reads", s.mem.reads.get());
        reg.set("ctrl.writes", s.mem.writes.get());
        reg.set("ctrl.zeroing_writes", s.mem.zeroing_writes.get());
        reg.set("ctrl.zero_fill_reads", s.mem.zero_fill_reads.get());
        reg.set("ctrl.counter_reads", s.mem.counter_reads.get());
        reg.set("ctrl.counter_writes", s.mem.counter_writes.get());
        reg.set("ctrl.shreds", s.shreds.get());
        reg.set("ctrl.reencryptions", s.reencryptions.get());
        reg.set("ctrl.shred_denied", s.shred_denied.get());
        reg.set("ctrl.bus_transfers", s.bus_transfers.get());
        export_latency(&mut reg, "ctrl.read_latency", &s.mem.read_latency);
        reg.set("heal.ecc_corrected", s.health.ecc_corrected.get());
        reg.set("heal.retries", s.health.retries.get());
        reg.set("heal.retried_ok", s.health.retried_ok.get());
        reg.set("heal.backoff_cycles", s.health.backoff_cycles);
        reg.set("heal.remaps", s.health.remaps.get());
        reg.set("heal.remap_failures", s.health.remap_failures.get());
        reg.set("heal.quarantined", s.health.quarantined.get());
        reg.set("heal.scrub_reads", s.health.scrub_reads.get());
        reg.set("heal.scrub_heals", s.health.scrub_heals.get());
        reg.set("heal.remapped_lines", mc.heal.remapped_count());
        reg.set("heal.quarantined_lines", mc.heal.quarantined_count());
        reg.set("heal.spare_lines_free", mc.heal.free());
        mc.counter_cache.stats().export(&mut reg, "ccache");
        let wq_zero = WriteQueueStats::default();
        let wq = self.write_queue_stats().unwrap_or(&wq_zero);
        reg.set("wq.enqueued", wq.enqueued.get());
        reg.set("wq.drained", wq.drained.get());
        reg.set("wq.forwards", wq.forwards.get());
        reg.set("wq.coalesced", wq.coalesced.get());
        reg.set("wq.high_water_drains", wq.high_water_drains.get());
        reg.set("wq.depth", self.write_queue_len() as u64);
        // `prot.*` exists only for scattered configurations: the other
        // modes' key set (and thus every committed metrics golden) is
        // exactly the historical schema.
        if mc.config.protection == ProtectionMode::Scattered {
            reg.set("prot.share_writes", s.prot.share_writes.get());
            reg.set("prot.mask_writes", s.prot.mask_writes.get());
            reg.set("prot.share_reads", s.prot.share_reads.get());
            reg.set("prot.recombines", s.prot.recombines.get());
            reg.set("prot.mask_discards", s.prot.mask_discards.get());
            reg.set("prot.fresh_share_rescues", s.prot.fresh_share_rescues.get());
            // One liveness line per page plus one mask line per data line.
            let mask_lines = mc.config.data_capacity / LINE_SIZE as u64;
            reg.set("prot.metadata_lines", mc.config.frames() + mask_lines);
        }
        mc.nvm.stats().export(&mut reg, "nvm");
        mc.profile.export(&mut reg);
        let (emitted, dropped) = mc.tracer.totals();
        reg.set("trace.events", emitted);
        reg.set("trace.dropped", dropped);
        reg
    }

    /// Snapshot of the on-chip Merkle root (`None` when integrity is
    /// disabled). Part of the persisted-state surface the adversary
    /// harness compares across power cycles: counter lines in NVM can be
    /// rolled back, this root cannot — it sits *inside* the trust
    /// boundary, which is why rollback is detected rather than silently
    /// accepted.
    pub fn merkle_root(&self) -> Option<ss_crypto::Digest> {
        self.mc.merkle.as_ref().map(MerkleTree::root)
    }

    /// Lifetime count of persist steps — durable NVM line writes issued
    /// through the controller's persist choke point. The crash harness
    /// runs a victim operation once against an unarmed twin to take this
    /// census, then replays it with a cut armed at each step in turn
    /// (DESIGN.md §13). Ticks under both persistence domains so the
    /// census is domain-independent.
    pub fn persist_steps(&self) -> u64 {
        self.mc.persist.steps
    }
}

/// Fault-injection and forensic port. Obtained via
/// [`MemoryController::faults`]; every method either corrupts simulated
/// hardware state or peeks past the encryption boundary, so nothing
/// here belongs in a production code path.
#[derive(Debug)]
pub struct FaultPort<'a> {
    mc: &'a mut MemoryController,
}

impl FaultPort<'_> {
    /// Reads every written line raw — the stolen-DIMM attack (§3).
    /// Covers the data region *and* the spare pool: remapped lines
    /// physically live there, and retired originals still hold their
    /// last ciphertext. The counter region is not included.
    pub fn cold_scan_data(&self) -> Vec<(BlockAddr, Line)> {
        let mc = &*self.mc;
        mc.nvm
            .cold_scan()
            .filter(|(a, _)| {
                a.raw() < mc.counter_base || (a.raw() >= mc.spare_base && a.raw() < mc.journal_base)
            })
            .map(|(a, l)| (a, *l))
            .collect()
    }

    /// Cold scan restricted to the spare-line pool: the residue surface
    /// a remap-probe attack inspects for rescued-but-unshredded data.
    pub fn cold_scan_spares(&self) -> Vec<(BlockAddr, Line)> {
        let mc = &*self.mc;
        mc.nvm
            .cold_scan()
            .filter(|(a, _)| a.raw() >= mc.spare_base && a.raw() < mc.journal_base)
            .map(|(a, l)| (a, *l))
            .collect()
    }

    /// Cold scan of the persisted counter region, keyed by owning page —
    /// the state a rollback attacker captures at one power cycle and
    /// replays at the next.
    pub fn cold_scan_counters(&self) -> Vec<(PageId, Line)> {
        let mc = &*self.mc;
        mc.nvm
            .cold_scan()
            .filter(|(a, _)| a.raw() >= mc.counter_base && a.raw() < mc.spare_base)
            .map(|(a, l)| (mc.counter_page(a), *l))
            .collect()
    }

    /// Overwrites a data line in the array behind the controller's back
    /// (man-in-the-middle / overwrite attacks).
    pub fn nvm_tamper(&mut self, addr: BlockAddr, line: Line) {
        let slot = self.data_slot(addr);
        self.mc.nvm.tamper(slot, line);
    }

    /// Raw bytes of `page`'s counter line as stored in the array
    /// (attacker capture for replay experiments).
    pub fn nvm_peek_counter(&self, page: PageId) -> Line {
        self.mc.nvm.peek(self.mc.counter_addr(page))
    }

    /// Raw stored bytes (ciphertext) of the data line at `addr`,
    /// bypassing decryption, stats and timing.
    pub fn nvm_peek(&self, addr: BlockAddr) -> Line {
        self.mc.nvm.peek(addr)
    }

    /// Overwrites `page`'s counter line in the array (replay/tamper).
    /// The next counter-cache miss for this page must fail verification
    /// when integrity is enabled. Only effective once the cached copy is
    /// evicted or dropped; tests combine this with
    /// [`Self::drop_counter_cache`].
    pub fn tamper_counter_line(&mut self, page: PageId, line: Line) {
        let caddr = self.mc.counter_addr(page);
        self.mc.nvm.tamper(caddr, line);
    }

    /// Discards the counter cache without writeback (crash modelling):
    /// subsequent accesses read counters from NVM.
    pub fn drop_counter_cache(&mut self) {
        self.mc.drop_counter_cache();
    }

    /// Discards one page's cached counter line without writeback — a
    /// transient counter-cache cell fault. Returns whether it was
    /// resident. The next access re-fetches (and Merkle-verifies) the
    /// NVM copy.
    pub fn drop_counter_cache_line(&mut self, page: PageId) -> bool {
        let caddr = self.mc.counter_addr(page);
        self.mc.counter_cache.invalidate(caddr).is_some()
    }

    /// Writes back one page's counter line if dirty (a targeted scrub of
    /// one counter-cache frame). Returns whether a writeback happened.
    ///
    /// # Errors
    ///
    /// Propagates NVM write failures.
    pub fn flush_counter_line(&mut self, page: PageId) -> Result<bool> {
        let caddr = self.mc.counter_addr(page);
        let dirty = self
            .mc
            .counter_cache
            .peek(caddr)
            .filter(|e| e.dirty)
            .map(|e| e.value);
        let Some(ctrs) = dirty else {
            return Ok(false);
        };
        self.mc.writeback_counters(page, &ctrs)?;
        Ok(true)
    }

    /// What the running software would observe at `addr`, without stats
    /// or timing side effects (test oracle).
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::read_block`].
    pub fn peek_plaintext(&mut self, addr: BlockAddr) -> Result<Line> {
        let mc = &mut *self.mc;
        mc.check_data_addr(addr)?;
        let block = addr.block_in_page();
        Ok(match mc.config.protection {
            ProtectionMode::Plain | ProtectionMode::Ecb => mc.direct_open(&mc.nvm_peek_data(addr)),
            ProtectionMode::Ctr => {
                let ctrs = peek_counters(mc, addr.page());
                if mc.config.shredder && ctrs.is_shredded(block) {
                    return Ok([0u8; LINE_SIZE]);
                }
                mc.decrypt_ctr(addr, &ctrs, &mc.nvm_peek_data(addr))
            }
            ProtectionMode::Scattered => {
                if peek_counters(mc, addr.page()).is_shredded(block) {
                    return Ok([0u8; LINE_SIZE]);
                }
                let share_b = mc.nvm.peek(mc.mask_addr(addr));
                share::recombine_shares(&mc.nvm_peek_data(addr), &share_b)
            }
        })
    }

    /// Flips one stored bit of the data line at `addr` (NVM cell
    /// disturb, a persistent fault), following any wear-levelling remap.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub fn flip_data_bit(&mut self, addr: BlockAddr, bit: usize) {
        let slot = self.data_slot(addr);
        self.mc.nvm.flip_bit(slot, bit);
    }

    /// Flips one stored bit of `page`'s counter line. With integrity
    /// enabled the next uncached fetch must fail Merkle verification.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub fn flip_counter_bit(&mut self, page: PageId, bit: usize) {
        let caddr = self.mc.counter_addr(page);
        self.mc.nvm.flip_bit(caddr, bit);
    }

    /// Arms a one-shot transient error of `flips` raw bit flips on the
    /// next read of the slot currently backing `addr`.
    pub fn inject_data_read_error(&mut self, addr: BlockAddr, flips: u32) {
        let slot = self.data_slot(addr);
        self.mc.nvm.inject_read_error(slot, flips);
    }

    /// Disarms a pending injected read error. Returns whether one was
    /// armed (i.e. no read consumed it).
    pub fn clear_injected_read_error(&mut self, addr: BlockAddr) -> bool {
        let slot = self.data_slot(addr);
        self.mc.nvm.clear_injected_error(slot)
    }

    /// Marks the slot backing `addr` permanently failed with `weak_bits`
    /// stuck weak cells (wear-out / stuck-at fault model).
    pub fn force_line_failure(&mut self, addr: BlockAddr, weak_bits: u32) {
        let slot = self.data_slot(addr);
        self.mc.nvm.fail_line(slot, weak_bits);
    }

    /// Arms a one-shot crash cut: the persist sequence is severed once
    /// the lifetime persist-step count reaches `at_step`, leaving the
    /// first `torn_bytes` of that step's line written (rounded down to
    /// an 8-byte torn-write granule; 0 = the step is dropped whole).
    /// Every operation after the cut fails with
    /// [`ss_common::Error::PowerCut`] until
    /// [`MemoryController::power_loss`] reboots the machine. Under the
    /// eADR domain the cut never fires — flush-on-fail completes every
    /// step — so arming is a no-op there by construction.
    pub fn arm_crash_cut(&mut self, at_step: u64, torn_bytes: usize) {
        self.mc.persist.armed = Some(CrashCut {
            at_step,
            torn_bytes,
        });
    }

    /// Disarms a pending crash cut that has not fired yet.
    pub fn disarm_crash_cut(&mut self) {
        self.mc.persist.armed = None;
    }

    /// Whether an armed cut has fired (the machine is "off" — every
    /// operation errors until [`MemoryController::power_loss`]).
    pub fn crash_cut_fired(&self) -> bool {
        self.mc.persist.cut_fired
    }

    /// The device slot currently backing logical data line `addr`
    /// (Start-Gap remapping, then spare-pool redirection).
    fn data_slot(&self, addr: BlockAddr) -> BlockAddr {
        self.mc.heal.redirect(self.mc.device_addr(addr))
    }
}

/// `page`'s counters (or scattered liveness line) as the controller
/// currently sees them, without timing, verification or a cache fill.
fn peek_counters(mc: &mut MemoryController, page: PageId) -> CounterBlock {
    let caddr = mc.counter_addr(page);
    match mc.counter_cache.get(caddr) {
        Some(e) => e.value,
        None => CounterBlock::from_line(&mc.nvm.peek(caddr)),
    }
}

impl MemoryController {
    /// Read-only observer port: statistics, metrics, traces, healing
    /// state. See [`Inspect`].
    pub fn inspect(&self) -> Inspect<'_> {
        Inspect { mc: self }
    }

    /// Fault-injection and forensic port for tests. See [`FaultPort`].
    pub fn faults(&mut self) -> FaultPort<'_> {
        FaultPort { mc: self }
    }
}

impl ShardedController {
    /// Read-only observer port into shard `s` (`None` when out of
    /// range). Shard-local views: addresses and capacities are in the
    /// shard's own slice of the address space.
    pub fn inspect_shard(&self, s: usize) -> Option<Inspect<'_>> {
        self.shard(s).map(MemoryController::inspect)
    }

    /// Fault-injection and forensic port into shard `s` (`None` when
    /// out of range). Shard-local views, like [`Self::inspect_shard`]:
    /// the adversary harness translates global addresses through the
    /// [`crate::Interleave`] before poking a shard.
    pub fn faults_shard(&mut self, s: usize) -> Option<FaultPort<'_>> {
        self.shard_mut(s).map(MemoryController::faults)
    }
}
