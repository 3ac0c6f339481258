//! Read-only and fault-injection ports over [`MemoryController`].
//!
//! The controller's public surface is its *production* operations
//! (read/write/shred/fence/recover…). Everything else lives behind two
//! narrow ports, each method defined once, here (the [`FaultPort`]
//! methods that reach the device live in `regions.rs`):
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

use super::regions::{mask_line, Region};
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
            let lines = mc.layout.lines(Region::Counter) + mc.layout.lines(Region::Mask);
            reg.set("prot.metadata_lines", lines);
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

    /// Writes each line of the ordering-journal ring has taken, in ring
    /// order (empty under eADR, which keeps no journal).
    pub fn journal_wear(&self) -> Vec<u64> {
        let (layout, wear) = (&self.mc.layout, self.mc.nvm.wear());
        (0..layout.lines(Region::Journal))
            .map(|i| wear.wear(layout.addr(Region::Journal, i)))
            .collect()
    }
}

/// Fault-injection and forensic port. Obtained via
/// [`MemoryController::faults`]; every method either corrupts simulated
/// hardware state or peeks past the encryption boundary, so nothing
/// here belongs in a production code path.
#[derive(Debug)]
pub struct FaultPort<'a> {
    pub(super) mc: &'a mut MemoryController,
}

impl FaultPort<'_> {
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

    /// What the running software would observe at `addr`, without stats,
    /// timing or counter-cache side effects (test oracle).
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::read_block`].
    pub fn peek_plaintext(&self, addr: BlockAddr) -> Result<Line> {
        let mc = &*self.mc;
        mc.check_data_addr(addr)?;
        // The page's counters (or liveness line) as the controller sees
        // them, without a fill or a change to the cache's LRU order.
        let page = addr.page();
        let ctrs = mc.counter_cache.peek(mc.counter_addr(page)).map_or_else(
            || CounterBlock::from_line(&mc.peek_line(Region::Counter, page.raw())),
            |e| e.value,
        );
        if mc.zero_fills(&ctrs, addr.block_in_page()) {
            return Ok([0u8; LINE_SIZE]);
        }
        let stored = mc.nvm_peek_data(addr);
        Ok(match mc.config.protection {
            ProtectionMode::Plain | ProtectionMode::Ecb => mc.direct_open(&stored),
            ProtectionMode::Ctr => mc.decrypt_ctr(addr, &ctrs, &stored),
            ProtectionMode::Scattered => {
                let share_b = mc.peek_line(Region::Mask, mask_line(addr));
                share::recombine_shares(&stored, &share_b)
            }
        })
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

    /// Whether an armed cut has fired (the machine is "off" — every
    /// operation errors until [`MemoryController::power_loss`]).
    pub fn crash_cut_fired(&self) -> bool {
        self.mc.persist.cut_fired
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
