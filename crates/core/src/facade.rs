//! Read-only and fault-injection facades over [`MemoryController`].
//!
//! The controller's public surface is its *production* operations
//! (read/write/shred/fence/recover…). Everything else lives behind two
//! narrow ports:
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

use ss_common::{BlockAddr, PageId, Result};
use ss_crypto::Line;
use ss_trace::{MetricsRegistry, StageProfile, TraceRecord};

use crate::controller::{ControllerStats, MemoryController};
use crate::wqueue::WriteQueueStats;

/// Read-only view of a controller. Obtained via
/// [`MemoryController::inspect`]; lives only as long as the borrow.
#[derive(Debug)]
pub struct Inspect<'a> {
    mc: &'a MemoryController,
}

impl<'a> Inspect<'a> {
    pub(crate) fn new(mc: &'a MemoryController) -> Self {
        Inspect { mc }
    }

    /// Controller statistics (reads, writes, shreds, healing…).
    pub fn stats(&self) -> &'a ControllerStats {
        self.mc.stats()
    }

    /// Counter-cache hit/miss/eviction counters.
    pub fn counter_cache_stats(&self) -> &'a ss_cache::CacheStats {
        self.mc.counter_cache_stats()
    }

    /// Write-queue counters, when a queue is configured.
    pub fn write_queue_stats(&self) -> Option<&'a WriteQueueStats> {
        self.mc.write_queue_stats()
    }

    /// Entries currently waiting in the write queue (0 when none).
    pub fn write_queue_len(&self) -> usize {
        self.mc.write_queue_len()
    }

    /// Device-level statistics of the backing NVM array.
    pub fn nvm_stats(&self) -> &'a ss_nvm::NvmStats {
        self.mc.nvm().stats()
    }

    /// Total line writes the NVM array has accepted.
    pub fn nvm_writes(&self) -> u64 {
        self.mc.nvm_writes()
    }

    /// `(address, writes)` of the most-worn NVM line, if any line has
    /// been written.
    pub fn nvm_max_wear(&self) -> Option<(BlockAddr, u64)> {
        self.mc.nvm().wear().max_wear()
    }

    /// Whether `page`'s counter line sits dirty in the counter cache.
    pub fn counter_line_dirty(&self, page: PageId) -> bool {
        self.mc.counter_line_dirty(page)
    }

    /// Lines currently remapped onto spares.
    pub fn remapped_lines(&self) -> u64 {
        self.mc.remapped_lines()
    }

    /// Lines retired as unrecoverable.
    pub fn quarantined_lines(&self) -> u64 {
        self.mc.quarantined_lines()
    }

    /// Spare lines still available for remapping.
    pub fn spare_lines_free(&self) -> u64 {
        self.mc.spare_lines_free()
    }

    /// Whether the line holding `addr` is quarantined.
    pub fn is_line_quarantined(&self, addr: BlockAddr) -> bool {
        self.mc.is_line_quarantined(addr)
    }

    /// Whether `page` is registered as enclave-owned.
    pub fn is_enclave_page(&self, page: PageId) -> bool {
        self.mc.is_enclave_page(page)
    }

    /// Per-stage cycle attribution accumulated since the last
    /// [`MemoryController::reset_stats`].
    pub fn profile(&self) -> &'a StageProfile {
        self.mc.profile()
    }

    /// Retained trace records, oldest first (empty when tracing is
    /// disabled).
    pub fn trace_records(&self) -> Vec<TraceRecord> {
        self.mc.trace_records()
    }

    /// Lifetime `(emitted, dropped)` trace-event totals.
    pub fn trace_totals(&self) -> (u64, u64) {
        self.mc.trace_totals()
    }

    /// Whether event tracing is recording.
    pub fn trace_enabled(&self) -> bool {
        self.mc.trace_enabled()
    }

    /// Snapshot of every statistic under the workspace's stable dotted
    /// names (DESIGN.md §10).
    pub fn metrics(&self) -> MetricsRegistry {
        self.mc.metrics()
    }

    /// Snapshot of the on-chip Merkle root (`None` when integrity is
    /// disabled). Part of the persisted-state surface the adversary
    /// harness compares across power cycles: counter lines in NVM can be
    /// rolled back, this root cannot.
    pub fn merkle_root(&self) -> Option<ss_crypto::Digest> {
        self.mc.merkle_root()
    }

    /// Lifetime count of persist steps — durable NVM line writes issued
    /// through the controller's persist choke point. The crash harness
    /// runs a victim operation once against an unarmed twin to take this
    /// census, then replays it with a cut armed at each step in turn
    /// (DESIGN.md §13). Ticks under both persistence domains so the
    /// census is domain-independent.
    pub fn persist_steps(&self) -> u64 {
        self.mc.persist_steps()
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

impl<'a> FaultPort<'a> {
    pub(crate) fn new(mc: &'a mut MemoryController) -> Self {
        FaultPort { mc }
    }

    /// Reads every written line raw — the stolen-DIMM attack (§3).
    /// Covers the data region *and* the spare pool (remapped lines
    /// physically live there), but not the counter region.
    pub fn cold_scan_data(&self) -> Vec<(BlockAddr, Line)> {
        self.mc.cold_scan_data()
    }

    /// Cold scan restricted to the spare-line pool: the residue surface
    /// a remap-probe attack inspects.
    pub fn cold_scan_spares(&self) -> Vec<(BlockAddr, Line)> {
        self.mc.cold_scan_spares()
    }

    /// Cold scan of the persisted counter region, keyed by owning page —
    /// the state a rollback attacker captures at one power cycle and
    /// replays at the next.
    pub fn cold_scan_counters(&self) -> Vec<(PageId, Line)> {
        self.mc.cold_scan_counters()
    }

    /// Overwrites a data line in the array behind the controller's back.
    pub fn nvm_tamper(&mut self, addr: BlockAddr, line: Line) {
        self.mc.nvm_tamper(addr, line);
    }

    /// Raw bytes of `page`'s counter line as stored in the array.
    pub fn nvm_peek_counter(&self, page: PageId) -> Line {
        self.mc.nvm_peek_counter(page)
    }

    /// Raw stored bytes (ciphertext) of the data line at `addr`,
    /// bypassing decryption, stats and timing.
    pub fn nvm_peek(&self, addr: BlockAddr) -> Line {
        self.mc.nvm().peek(addr)
    }

    /// Overwrites `page`'s counter line in the array (integrity attack).
    pub fn tamper_counter_line(&mut self, page: PageId, line: Line) {
        self.mc.tamper_counter_line(page, line);
    }

    /// Discards the counter cache without writeback (crash modelling).
    pub fn drop_counter_cache(&mut self) {
        self.mc.drop_counter_cache();
    }

    /// Discards one page's cached counter line without writeback.
    /// Returns whether it was resident.
    pub fn drop_counter_cache_line(&mut self, page: PageId) -> bool {
        self.mc.drop_counter_cache_line(page)
    }

    /// Writes back one page's counter line if dirty. Returns whether a
    /// writeback happened.
    ///
    /// # Errors
    ///
    /// Propagates NVM write failures.
    pub fn flush_counter_line(&mut self, page: PageId) -> Result<bool> {
        self.mc.flush_counter_line(page)
    }

    /// Decrypts a line without touching stats or timing (test oracle).
    ///
    /// # Errors
    ///
    /// Propagates read/decrypt failures.
    pub fn peek_plaintext(&mut self, addr: BlockAddr) -> Result<Line> {
        self.mc.peek_plaintext(addr)
    }

    /// Flips one stored bit of a data line (persistent fault).
    pub fn flip_data_bit(&mut self, addr: BlockAddr, bit: usize) {
        self.mc.flip_data_bit(addr, bit);
    }

    /// Flips one stored bit of `page`'s counter line.
    pub fn flip_counter_bit(&mut self, page: PageId, bit: usize) {
        self.mc.flip_counter_bit(page, bit);
    }

    /// Arms a one-shot transient error on the next read of `addr`.
    pub fn inject_data_read_error(&mut self, addr: BlockAddr, flips: u32) {
        self.mc.inject_data_read_error(addr, flips);
    }

    /// Disarms a pending injected read error. Returns whether one was
    /// armed.
    pub fn clear_injected_read_error(&mut self, addr: BlockAddr) -> bool {
        self.mc.clear_injected_read_error(addr)
    }

    /// Marks the line at `addr` permanently failed with `weak_bits`
    /// inverted cells.
    pub fn force_line_failure(&mut self, addr: BlockAddr, weak_bits: u32) {
        self.mc.force_line_failure(addr, weak_bits);
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
        self.mc.arm_crash_cut(crate::persist::CrashCut {
            at_step,
            torn_bytes,
        });
    }

    /// Disarms a pending crash cut that has not fired yet.
    pub fn disarm_crash_cut(&mut self) {
        self.mc.disarm_crash_cut();
    }

    /// Whether an armed cut has fired (the machine is "off" — every
    /// operation errors until [`MemoryController::power_loss`]).
    pub fn crash_cut_fired(&self) -> bool {
        self.mc.crash_cut_fired()
    }
}

impl MemoryController {
    /// Read-only observer port: statistics, metrics, traces, healing
    /// state. See [`Inspect`].
    pub fn inspect(&self) -> Inspect<'_> {
        Inspect::new(self)
    }

    /// Fault-injection and forensic port for tests. See [`FaultPort`].
    pub fn faults(&mut self) -> FaultPort<'_> {
        FaultPort::new(self)
    }
}

impl crate::shard::ShardedController {
    /// Read-only observer port into shard `s` (`None` when out of
    /// range). Shard-local views: addresses and capacities are in the
    /// shard's own slice of the address space.
    pub fn inspect_shard(&self, s: usize) -> Option<Inspect<'_>> {
        self.shard(s).map(Inspect::new)
    }

    /// Fault-injection and forensic port into shard `s` (`None` when
    /// out of range). Shard-local views, like [`Self::inspect_shard`]:
    /// the adversary harness translates global addresses through the
    /// [`crate::Interleave`] before poking a shard.
    pub fn faults_shard(&mut self, s: usize) -> Option<FaultPort<'_>> {
        self.shard_mut(s).map(FaultPort::new)
    }
}
