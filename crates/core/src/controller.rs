//! The secure NVMM controller (Fig. 6 and Fig. 7 of the paper).

use std::collections::BTreeMap;

use ss_cache::{CacheConfig, SetAssocCache};
use ss_common::{
    BlockAddr, Counter, Cycles, DetRng, Error, MemStats, PageId, PhysAddr, Result, BLOCKS_PER_PAGE,
    LINE_SIZE,
};
use ss_crypto::{CtrEngine, EcbEngine, Line, MerkleTree};
use ss_nvm::{LineRead, NvmConfig, NvmDevice};
use ss_trace::{
    export_latency, MetricsRegistry, Stage, StageProfile, TraceEvent, TraceRecord, Tracer,
};

use crate::channel::ChannelSched;
use crate::config::{ControllerConfig, CounterPersistence, PersistDomain, ProtectionMode};
use crate::counters::{BumpOutcome, CounterBlock};
use crate::deuce::{self, DeuceMeta, CHUNKS};
use crate::heal::{HealthStats, SparePool};
use crate::mmio;
use crate::persist::{
    self, CrashCut, EntryKind, JournalEntry, PersistState, RecoveryReport, SeqTag,
};
use crate::wqueue::WriteQueue;
use ss_nvm::StartGap;

/// Domain-separation constant folded into the scattered mode's
/// share-stream seed, so share randomness never collides with the NVM
/// fault stream even under identical seeds.
const SHARE_DOMAIN: u64 = 0x5343_4154_5445_5244;

/// Outcome of a demand read serviced by the controller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadResult {
    /// The plaintext line delivered to the LLC.
    pub data: Line,
    /// Latency as seen by the LLC miss (queueing included).
    pub latency: Cycles,
    /// `true` when the zero-fill path served the read without touching
    /// the NVM array (Fig. 7, step 3b).
    pub zero_filled: bool,
}

/// Controller-level statistics.
#[derive(Debug, Clone, Default)]
pub struct ControllerStats {
    /// Classified memory traffic and read latency.
    pub mem: MemStats,
    /// Shred commands executed.
    pub shreds: Counter,
    /// Page re-encryptions caused by minor-counter overflow.
    pub reencryptions: Counter,
    /// Shred commands rejected for privilege reasons.
    pub shred_denied: Counter,
    /// Lines moved over the memory bus (data + counters, reads + writes).
    pub bus_transfers: Counter,
    /// Self-healing activity: ECC corrections, retries, remaps,
    /// quarantines, and scrubber work.
    pub health: HealthStats,
    /// Scattered two-share activity (all-zero under the other modes,
    /// where no share traffic exists).
    pub prot: ProtStats,
}

/// Scattered-mode activity counters, exported under `prot.*` for
/// [`ProtectionMode::Scattered`] configurations only (the other modes'
/// metrics schema has no `prot.*` keys).
#[derive(Debug, Clone, Default)]
pub struct ProtStats {
    /// Share pairs written (one random share + one masked share each).
    pub share_writes: Counter,
    /// Mask-region line writes (share-pair writes + shred discards).
    pub mask_writes: Counter,
    /// Reads served by recombining both shares.
    pub share_reads: Counter,
    /// XOR recombinations performed (reads + rescues).
    pub recombines: Counter,
    /// Mask lines discarded (overwritten with fresh randomness) by
    /// shred commands.
    pub mask_discards: Counter,
    /// Spare-pool rescues that re-shared the plaintext under a fresh
    /// pad (a spare never inherits a used one).
    pub fresh_share_rescues: Counter,
}

/// The memory controller. See the crate docs for the mechanism overview.
#[derive(Debug)]
pub struct MemoryController {
    config: ControllerConfig,
    nvm: NvmDevice,
    counter_cache: SetAssocCache<CounterBlock>,
    ctr: CtrEngine,
    ecb: EcbEngine,
    merkle: Option<MerkleTree>,
    channels: ChannelSched,
    deuce_meta: BTreeMap<u64, DeuceMeta>,
    stats: ControllerStats,
    /// NVM byte offset where the counter region begins.
    counter_base: u64,
    /// Start-Gap remapper over the data lines (when wear levelling on).
    start_gap: Option<StartGap>,
    /// Pages owned by secure enclaves (§4.1): their deallocation shred is
    /// triggered by hardware, not the (possibly untrusted) OS.
    enclave_pages: std::collections::BTreeSet<u64>,
    /// Optional write queue (read priority + forwarding). Entries hold
    /// *device-space* addresses and ciphertext, inside the ADR
    /// persistence domain.
    wqueue: Option<WriteQueue>,
    /// Set when a crash dropped dirty counters (volatile write-back).
    counters_lost: bool,
    /// Bad-line remap table + quarantine list (persistent controller
    /// metadata, like real NVDIMM firmware remap tables).
    heal: SparePool,
    /// NVM byte offset where the spare-line pool begins.
    spare_base: u64,
    /// Logical data lines flagged for remap during the current operation
    /// (ECC-corrected reads of permanently weak lines); processed at
    /// operation end so in-flight counter snapshots stay coherent.
    pending_heal: Vec<BlockAddr>,
    /// Next data line the background scrubber will visit.
    scrub_cursor: u64,
    /// Demand writes since the scrubber last ran.
    writes_since_scrub: u64,
    /// Event tracer ([`Tracer::Null`] unless `config.trace_depth` is
    /// set — the null arm never constructs events).
    tracer: Tracer,
    /// Per-stage cycle attribution. Always on: a charge is two integer
    /// additions, and every future hot-path optimisation needs this
    /// baseline to measure against.
    profile: StageProfile,
    /// Simulated time of the public operation currently executing, so
    /// deep helpers (retry loops, deferred heals) can stamp trace
    /// events without threading `now` through every private signature.
    op_now: Cycles,
    /// NVM byte offset of the ordering-journal region (== device end
    /// under eADR, where no journal is allocated).
    journal_base: u64,
    /// Persist-step counter, armed crash cut, and the volatile mirror of
    /// the open journal sequence (see the [`persist`] module docs).
    persist: PersistState,
    /// NVM byte offset of the scattered mode's mask-share region
    /// (== device end under the other modes, where no masks are allocated).
    /// The region models a physically separate DIMM (DESIGN.md §15).
    mask_base: u64,
    /// Deterministic share stream for the scattered mode (a DRBG in
    /// hardware). Seeded from the processor key, the domain constant,
    /// and the fault seed, so every run is reproducible.
    share_rng: DetRng,
}

impl MemoryController {
    /// Builds a controller (and its backing NVM device) from `config`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(config: ControllerConfig) -> Result<Self> {
        config.validate()?;
        let frames = config.frames();
        // One spare line after the data region serves as the Start-Gap
        // slot when wear levelling is enabled.
        let counter_base = config.data_capacity + LINE_SIZE as u64;
        // The bad-line spare pool sits after the counter region, and
        // under ADR the ordering journal sits after the spares:
        // [data][gap][counters][spares][journal].
        let spare_base = counter_base + frames * LINE_SIZE as u64;
        let journal_base = spare_base + config.spare_lines * LINE_SIZE as u64;
        let journal_lines = if config.persist_domain == PersistDomain::Adr {
            persist::JOURNAL_LINES
        } else {
            0
        };
        // The scattered mode appends a mask-share region (one line per
        // data line) after the journal; under the other modes it is
        // empty.
        let mask_base = journal_base + journal_lines * LINE_SIZE as u64;
        let mask_lines = if config.protection == ProtectionMode::Scattered {
            config.data_capacity / LINE_SIZE as u64
        } else {
            0
        };
        let nvm = NvmDevice::new(NvmConfig {
            capacity_bytes: mask_base + mask_lines * LINE_SIZE as u64,
            timing: config.nvm_timing,
            endurance_limit: config.endurance_limit,
            ecc: config.nvm_ecc,
            transient_read_ber: config.transient_read_ber,
            fault_seed: config.nvm_fault_seed,
            ..NvmConfig::default()
        });
        let counter_cache = SetAssocCache::new(CacheConfig::new(
            "counter",
            config.counter_cache_bytes,
            config.counter_cache_ways,
            config.counter_cache_latency,
        )?);
        // The scattered mode reuses the counter region as its block
        // liveness metadata, so the same integrity tree covers it.
        let merkle = if config.integrity
            && matches!(
                config.protection,
                ProtectionMode::Ctr | ProtectionMode::Scattered
            ) {
            Some(MerkleTree::with_initial_leaf(
                frames as usize,
                &CounterBlock::default().to_line(),
            ))
        } else {
            None
        };
        let ctr = CtrEngine::new(config.key);
        let ecb = EcbEngine::new(config.key);
        let channels = ChannelSched::new(&config.nvm_timing);
        let start_gap = config_start_gap(&config);
        let wqueue = config_wqueue(&config)?;
        let config_spare_lines = config.spare_lines;
        let tracer = Tracer::from_depth(config.trace_depth);
        let mut key_word = [0u8; 8];
        key_word.copy_from_slice(&config.key[..8]);
        let share_rng =
            DetRng::new(u64::from_le_bytes(key_word) ^ SHARE_DOMAIN ^ config.nvm_fault_seed);
        Ok(MemoryController {
            config,
            nvm,
            counter_cache,
            ctr,
            ecb,
            merkle,
            channels,
            deuce_meta: BTreeMap::new(),
            stats: ControllerStats::default(),
            counter_base,
            start_gap,
            enclave_pages: std::collections::BTreeSet::new(),
            wqueue,
            counters_lost: false,
            heal: SparePool::new(spare_base, config_spare_lines),
            spare_base,
            pending_heal: Vec::new(),
            scrub_cursor: 0,
            writes_since_scrub: 0,
            tracer,
            profile: StageProfile::new(),
            op_now: Cycles::ZERO,
            journal_base,
            persist: PersistState::new(),
            mask_base,
            share_rng,
        })
    }

    // ------------------------------------------------------------------
    // Persist-step model: every durable line write of a multi-step
    // persist sequence funnels through `persist_line`, which journals
    // the line (ADR), counts the step, and honours an armed crash cut.
    // ------------------------------------------------------------------

    /// Whether the ordering journal is active (ADR persistence domain).
    fn adr(&self) -> bool {
        self.config.persist_domain == PersistDomain::Adr
    }

    /// Device address of journal line `idx` (0 = header; entry `i` uses
    /// lines `1 + 2i` and `2 + 2i`).
    fn journal_line_addr(&self, idx: u64) -> BlockAddr {
        BlockAddr::new(self.journal_base + idx * LINE_SIZE as u64)
    }

    /// Opens a persist sequence (nested calls join the outermost one).
    /// The NVM header is written lazily, on the first journal entry —
    /// an operation that persists nothing leaves no journal trace.
    fn seq_begin(&mut self, tag: SeqTag) {
        if !self.adr() {
            return;
        }
        if self.persist.depth == 0 {
            self.persist.tag = Some(tag);
        }
        self.persist.depth += 1;
    }

    /// Closes a persist sequence. When the outermost level completes
    /// without a fired cut and the header was written, the journal is
    /// marked closed (committing the sequence); after a cut the header
    /// is deliberately left open on NVM for recovery to find.
    fn seq_end(&mut self) -> Result<()> {
        if !self.adr() {
            return Ok(());
        }
        self.persist.depth = self.persist.depth.saturating_sub(1);
        if self.persist.depth > 0 {
            return Ok(());
        }
        self.persist.tag = None;
        self.persist.victim_flush = false;
        if self.persist.cut_fired {
            return Ok(());
        }
        if self.persist.header_written {
            let seq = self.persist.next_seq;
            self.nvm.write_line(
                self.journal_line_addr(0),
                &persist::encode_header(false, 0, seq),
            )?;
            self.persist.next_seq = seq + 1;
            self.persist.header_written = false;
            self.persist.journaled.clear();
            self.persist.entry_count = 0;
        }
        Ok(())
    }

    /// Runs `f` inside a persist sequence (the `with_seq` discipline:
    /// every public mutating operation brackets its body so journal
    /// entries group into one atomically-recoverable unit).
    fn with_seq<T>(&mut self, tag: SeqTag, f: impl FnOnce(&mut Self) -> Result<T>) -> Result<T> {
        self.seq_begin(tag);
        let result = f(self);
        let end = self.seq_end();
        let v = result?;
        end?;
        Ok(v)
    }

    /// Appends one journal record (header + entry + payload lines) to
    /// the open sequence. Journal writes model a battery-latched path:
    /// they bypass `persist_line` (no steps, no cuts, no tearing).
    fn journal_write_entry(&mut self, entry: &JournalEntry) -> Result<()> {
        if self.persist.entry_count >= persist::JOURNAL_MAX_ENTRIES {
            return Err(Error::InvalidConfig {
                detail: format!(
                    "ordering journal overflow: one persist sequence exceeded {} entries",
                    persist::JOURNAL_MAX_ENTRIES
                ),
            });
        }
        let seq = self.persist.next_seq;
        if !self.persist.header_written {
            let tag = self.persist.tag.map_or(0, SeqTag::raw);
            self.nvm.write_line(
                self.journal_line_addr(0),
                &persist::encode_header(true, tag, seq),
            )?;
            self.persist.header_written = true;
        }
        let i = self.persist.entry_count as u64;
        self.nvm.write_line(
            self.journal_line_addr(1 + 2 * i),
            &persist::encode_entry(entry, seq),
        )?;
        self.nvm
            .write_line(self.journal_line_addr(2 + 2 * i), &entry.payload)?;
        self.persist.entry_count += 1;
        self.persist.journaled.push(entry.target.raw());
        Ok(())
    }

    /// Journals the line about to be persisted to `slot`. Data and
    /// counter lines of in-flight operations record their **pre-image**
    /// (undo: a cut rolls the operation back); counter writebacks of
    /// already-durable data (dirty-victim evictions, explicit flushes)
    /// record the **post-image** (redo: re-persisting the newest value
    /// is always consistent). First pre-image wins per line, so nested
    /// sequences and crash-time flushes restore pre-operation state.
    fn journal_append(
        &mut self,
        slot: BlockAddr,
        data: &Line,
        counter_page: Option<PageId>,
    ) -> Result<()> {
        let kind = match counter_page {
            Some(_) => {
                let redo =
                    self.persist.victim_flush || self.persist.tag.is_some_and(SeqTag::is_redo);
                if redo {
                    EntryKind::CounterRedo
                } else {
                    EntryKind::CounterUndo
                }
            }
            None => EntryKind::DataUndo,
        };
        if kind != EntryKind::CounterRedo && self.persist.journaled.contains(&slot.raw()) {
            return Ok(());
        }
        let payload = match kind {
            EntryKind::CounterRedo => *data,
            _ => self.nvm.peek(slot),
        };
        let entry = JournalEntry {
            kind,
            target: slot,
            aux: counter_page.map_or(0, |p| p.raw()),
            was_quarantined: false,
            payload,
        };
        self.journal_write_entry(&entry)
    }

    /// Journals a spare-pool allocation so recovery can roll the remap
    /// table back to its pre-operation state (re-quarantining a line the
    /// interrupted operation had revived).
    fn journal_remap_alloc(
        &mut self,
        dev: BlockAddr,
        spare: BlockAddr,
        was_quarantined: bool,
    ) -> Result<()> {
        if !self.adr() {
            return Ok(());
        }
        let entry = JournalEntry {
            kind: EntryKind::RemapAlloc,
            target: dev,
            aux: spare.raw(),
            was_quarantined,
            payload: [0u8; LINE_SIZE],
        };
        self.journal_write_entry(&entry)
    }

    /// The persist choke point: every durable line write inside a
    /// persist sequence lands here. Under ADR the line is journaled
    /// first (write-ahead), the lifetime step counter ticks, and an
    /// armed crash cut stops the machine — either just before the write
    /// (`torn_bytes == 0`) or mid-write, persisting only an 8-byte-
    /// aligned prefix of the new line over the old one. Under eADR the
    /// step counter ticks (so crash-point censuses are domain-
    /// independent) but cuts never fire: stored energy completes the
    /// sequence.
    fn persist_line(
        &mut self,
        slot: BlockAddr,
        data: &Line,
        counter_page: Option<PageId>,
    ) -> Result<()> {
        if self.persist.cut_fired {
            return Err(Error::PowerCut {
                step: self.persist.steps,
            });
        }
        if self.adr() {
            self.journal_append(slot, data, counter_page)?;
        }
        self.persist.steps += 1;
        if self.adr() {
            if let Some(cut) = self.persist.armed {
                if self.persist.steps >= cut.at_step {
                    self.persist.cut_fired = true;
                    let torn = cut.torn_bytes.min(LINE_SIZE) & !7;
                    if torn > 0 {
                        let mut merged = self.nvm.peek(slot);
                        merged[..torn].copy_from_slice(&data[..torn]);
                        self.nvm.write_line(slot, &merged)?;
                    }
                    return Err(Error::PowerCut {
                        step: self.persist.steps,
                    });
                }
            }
        }
        self.nvm.write_line(slot, data)
    }

    /// Arms a crash cut (honoured only under ADR; under eADR the victim
    /// operation completes — flush-on-fail semantics).
    pub(crate) fn arm_crash_cut(&mut self, cut: CrashCut) {
        self.persist.armed = Some(cut);
    }

    /// Disarms a pending crash cut without firing it.
    pub(crate) fn disarm_crash_cut(&mut self) {
        self.persist.armed = None;
    }

    /// Whether an armed cut has fired (the machine is "off" until
    /// [`MemoryController::power_loss`] runs).
    pub(crate) fn crash_cut_fired(&self) -> bool {
        self.persist.cut_fired
    }

    /// Lifetime persist-step count (the crash injector's step census).
    pub(crate) fn persist_steps(&self) -> u64 {
        self.persist.steps
    }

    /// Reads a data line, applying wear-levelling remapping, write-queue
    /// forwarding, spare-pool redirection, and the retry/heal policy. A
    /// queued (not yet drained) write to the same line is forwarded
    /// instead of reading stale device contents.
    fn nvm_read_data(&mut self, addr: BlockAddr) -> Result<Line> {
        let dev = self.device_addr(addr);
        if let Some(wq) = &mut self.wqueue {
            if let Some(line) = wq.forward(dev) {
                return Ok(line);
            }
        }
        if self.heal.is_quarantined(dev) {
            return Err(Error::Quarantined { addr: dev.addr() });
        }
        let slot = self.heal.redirect(dev);
        let read = match self.read_line_healing(slot) {
            Ok(r) => r,
            Err(Error::UncorrectableEcc { .. }) => {
                // Retries exhausted or permanently beyond the correction
                // bound: the data is lost. Degrade loudly and
                // deterministically from here on, instead of serving the
                // known-bad line.
                self.heal.quarantine(dev);
                self.stats.health.quarantined.inc();
                return Err(Error::Quarantined { addr: dev.addr() });
            }
            Err(e) => return Err(e),
        };
        if read.was_corrected() && self.nvm.is_failed(slot) {
            // Permanent weak cells that ECC can still repair: rescue the
            // line to a spare while it is correctable. Deferred to the
            // end of the current operation so counter snapshots held by
            // callers stay coherent.
            self.note_pending_heal(addr);
        }
        Ok(read.into_data())
    }

    /// One device line read under the retry policy: transient
    /// uncorrectable errors are retried with bounded exponential
    /// backoff; permanent ones (weak-cell population alone exceeds the
    /// correction bound) fail immediately — re-reading cannot help.
    fn read_line_healing(&mut self, slot: BlockAddr) -> Result<LineRead> {
        let correct = self.nvm.config().ecc.correct;
        let mut attempt = 0u32;
        loop {
            match self.nvm.read_line(slot) {
                Ok(read) => {
                    if attempt > 0 {
                        self.stats.health.retried_ok.inc();
                    }
                    if read.was_corrected() {
                        self.stats.health.ecc_corrected.inc();
                        let at = self.op_now;
                        self.tracer
                            .emit(at, || TraceEvent::EccCorrection { addr: slot });
                    }
                    return Ok(read);
                }
                Err(Error::UncorrectableEcc { addr, flips }) => {
                    let permanent = self.nvm.weak_bit_count(slot) > correct;
                    if permanent || attempt >= self.config.retry.max_retries {
                        return Err(Error::UncorrectableEcc { addr, flips });
                    }
                    attempt += 1;
                    self.stats.health.retries.inc();
                    let backoff = self.config.retry.backoff(attempt);
                    self.stats.health.backoff_cycles += backoff.raw();
                    self.profile.charge(Stage::RetryBackoff, backoff);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Writes one device-space line, applying spare-pool redirection. A
    /// full-line write to a quarantined slot carries everything a spare
    /// needs, so it revives the line through a fresh spare when one is
    /// available.
    fn data_write_slot(&mut self, dev: BlockAddr, data: &Line) -> Result<()> {
        if self.heal.is_quarantined(dev) {
            match self.heal.allocate(dev) {
                Some(slot) => {
                    self.heal.unquarantine(dev);
                    self.journal_remap_alloc(dev, slot, true)?;
                    self.stats.health.remaps.inc();
                    let at = self.op_now;
                    self.tracer.emit(at, || TraceEvent::LineRemap {
                        addr: dev,
                        ok: true,
                    });
                    return self.persist_line(slot, data, None);
                }
                None => return Err(Error::Quarantined { addr: dev.addr() }),
            }
        }
        let slot = self.heal.redirect(dev);
        self.persist_line(slot, data, None)
    }

    /// Writes a data line, applying wear-levelling remapping and
    /// advancing the Start-Gap state. With a write queue configured the
    /// line is buffered; a high-water burst drains to the low mark.
    fn nvm_write_data(&mut self, addr: BlockAddr, data: &Line) -> Result<()> {
        let dev = self.device_addr(addr);
        if let Some(wq) = &mut self.wqueue {
            let must_drain = wq.push(dev, *data, false);
            if must_drain {
                let burst = wq.burst_len();
                self.drain_queue(burst, Cycles::ZERO)?;
            }
            return Ok(());
        }
        self.data_write_slot(dev, data)?;
        self.wear_level_on_write()
    }

    /// Drains up to `n` queued writes to the device, scheduling their
    /// bus transfers at `now`.
    fn drain_queue(&mut self, n: usize, now: Cycles) -> Result<()> {
        let mut drained = 0u32;
        for _ in 0..n {
            let Some(wq) = &mut self.wqueue else { break };
            let Some((dev, data, _zeroing)) = wq.pop_for_drain() else {
                break;
            };
            let write_lat = self.config.nvm_timing.write_cycles();
            self.sched(now, write_lat);
            self.profile.charge(Stage::WqueueDrain, write_lat);
            self.data_write_slot(dev, &data)?;
            self.wear_level_on_write()?;
            drained += 1;
        }
        if drained > 0 {
            self.tracer
                .emit(now, || TraceEvent::WriteQueueDrain { drained });
        }
        Ok(())
    }

    /// Drains the whole write queue (fence, re-encryption, power loss).
    fn drain_queue_fully(&mut self, now: Cycles) -> Result<()> {
        let n = self.wqueue.as_ref().map(|q| q.len()).unwrap_or(0);
        self.drain_queue(n, now)
    }

    /// Peeks a data line (no stats), applying remapping and forwarding.
    fn nvm_peek_data(&self, addr: BlockAddr) -> Line {
        let dev = self.device_addr(addr);
        if let Some(wq) = &self.wqueue {
            // Peek without mutating stats: scan entries via forward-free
            // logic (clone-free: iterate).
            if let Some(line) = wq.peek(dev) {
                return line;
            }
        }
        self.nvm.peek(self.heal.redirect(dev))
    }

    /// Maps a logical data-line address to its device slot, applying
    /// Start-Gap remapping when wear levelling is enabled.
    fn device_addr(&self, addr: BlockAddr) -> BlockAddr {
        match &self.start_gap {
            Some(sg) => BlockAddr::new(sg.remap(addr.raw() / LINE_SIZE as u64) * LINE_SIZE as u64),
            None => addr,
        }
    }

    /// Advances the Start-Gap state on a demand write, performing the
    /// physical line copy (one device read + one device write) when the
    /// gap moves.
    fn wear_level_on_write(&mut self) -> Result<()> {
        let Some(sg) = &mut self.start_gap else {
            return Ok(());
        };
        if let Some((from, to)) = sg.advance_with_move() {
            let from_slot = self.heal.redirect(BlockAddr::new(from * LINE_SIZE as u64));
            let to_slot = self.heal.redirect(BlockAddr::new(to * LINE_SIZE as u64));
            let data = self.nvm.read_line(from_slot)?.into_data();
            self.nvm.write_line(to_slot, &data)?;
        }
        Ok(())
    }

    /// The controller's configuration.
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// Controller statistics.
    pub(crate) fn stats(&self) -> &ControllerStats {
        &self.stats
    }

    /// Counts a privilege-denied shred command (MMIO executors that
    /// reject before reaching [`MemoryController::shred_page_at`]).
    pub(crate) fn note_shred_denied(&mut self) {
        self.stats.shred_denied.inc();
    }

    /// The backing NVM device (energy, wear, remanence surface).
    pub(crate) fn nvm(&self) -> &NvmDevice {
        &self.nvm
    }

    /// Counter-cache statistics (hit/miss — drives Fig. 12).
    pub(crate) fn counter_cache_stats(&self) -> &ss_cache::CacheStats {
        self.counter_cache.stats()
    }

    /// Write-queue statistics, when a queue is configured.
    pub(crate) fn write_queue_stats(&self) -> Option<&crate::wqueue::WriteQueueStats> {
        self.wqueue.as_ref().map(|q| q.stats())
    }

    /// Resets statistics between experiment phases (state is kept; the
    /// event trace, being a log rather than a counter, is kept too).
    pub fn reset_stats(&mut self) {
        self.stats = ControllerStats::default();
        self.counter_cache.reset_stats();
        self.nvm.reset_stats();
        self.channels.reset();
        self.profile = StageProfile::new();
    }

    /// Per-stage cycle attribution accumulated so far.
    pub(crate) fn profile(&self) -> &StageProfile {
        &self.profile
    }

    /// The retained trace records, oldest first (empty when tracing is
    /// disabled).
    pub(crate) fn trace_records(&self) -> Vec<TraceRecord> {
        self.tracer.records()
    }

    /// Lifetime `(emitted, dropped)` event totals.
    pub(crate) fn trace_totals(&self) -> (u64, u64) {
        self.tracer.totals()
    }

    /// Whether event tracing is recording.
    pub(crate) fn trace_enabled(&self) -> bool {
        self.tracer.is_enabled()
    }

    /// Snapshot of every statistic the controller owns or aggregates,
    /// under the workspace's stable dotted names (DESIGN.md §10). The
    /// key set is workload-independent: absent subsystems (e.g. no
    /// write queue) export zeros, so epoch deltas and cross-run diffs
    /// always see the same schema.
    pub(crate) fn metrics(&self) -> MetricsRegistry {
        let mut reg = MetricsRegistry::new();
        let s = &self.stats;
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
        reg.set("heal.remapped_lines", self.heal.remapped_count());
        reg.set("heal.quarantined_lines", self.heal.quarantined_count());
        reg.set("heal.spare_lines_free", self.heal.free());
        self.counter_cache.stats().export(&mut reg, "ccache");
        let wq_zero = crate::wqueue::WriteQueueStats::default();
        let wq = self.wqueue.as_ref().map_or(&wq_zero, |q| q.stats());
        reg.set("wq.enqueued", wq.enqueued.get());
        reg.set("wq.drained", wq.drained.get());
        reg.set("wq.forwards", wq.forwards.get());
        reg.set("wq.coalesced", wq.coalesced.get());
        reg.set("wq.high_water_drains", wq.high_water_drains.get());
        reg.set(
            "wq.depth",
            self.wqueue.as_ref().map_or(0, |q| q.len()) as u64,
        );
        // `prot.*` exists only for scattered configurations: the other
        // modes' key set (and thus every committed metrics golden) is
        // exactly the historical schema.
        if self.config.protection == ProtectionMode::Scattered {
            reg.set("prot.share_writes", s.prot.share_writes.get());
            reg.set("prot.mask_writes", s.prot.mask_writes.get());
            reg.set("prot.share_reads", s.prot.share_reads.get());
            reg.set("prot.recombines", s.prot.recombines.get());
            reg.set("prot.mask_discards", s.prot.mask_discards.get());
            reg.set("prot.fresh_share_rescues", s.prot.fresh_share_rescues.get());
            // One liveness line per page plus one mask line per data line.
            let mask_lines = self.config.data_capacity / LINE_SIZE as u64;
            reg.set("prot.metadata_lines", self.config.frames() + mask_lines);
        }
        self.nvm.stats().export(&mut reg, "nvm");
        self.profile.export(&mut reg);
        let (emitted, dropped) = self.tracer.totals();
        reg.set("trace.events", emitted);
        reg.set("trace.dropped", dropped);
        reg
    }

    fn counter_addr(&self, page: PageId) -> BlockAddr {
        BlockAddr::new(self.counter_base + page.raw() * LINE_SIZE as u64)
    }

    /// Schedules a bus transfer on the channels, counting it.
    fn sched(&mut self, now: Cycles, service: Cycles) -> Cycles {
        self.stats.bus_transfers.inc();
        self.channels.schedule(now, service)
    }

    fn check_data_addr(&self, addr: BlockAddr) -> Result<()> {
        if addr.raw() + LINE_SIZE as u64 > self.config.data_capacity {
            return Err(Error::AddrOutOfRange {
                addr: addr.addr(),
                capacity: self.config.data_capacity,
            });
        }
        Ok(())
    }

    /// Fetches (through the counter cache) the counter block of `page`.
    /// Returns the counters and the latency incurred on the critical path.
    fn fetch_counters(&mut self, page: PageId, now: Cycles) -> Result<(CounterBlock, Cycles)> {
        let caddr = self.counter_addr(page);
        let mut latency = self.config.counter_cache_latency;
        if let Some(e) = self.counter_cache.get(caddr) {
            return Ok((e.value, latency));
        }
        // Miss: read the counter line from NVM and verify its integrity.
        if self.counters_lost {
            return Err(Error::CounterLoss);
        }
        let read_lat = self.sched(now + latency, self.config.nvm_timing.read_cycles());
        latency += read_lat;
        self.profile.charge(Stage::CounterFetch, read_lat);
        // The counter region has a fixed layout (page → line), so worn
        // counter lines cannot be remapped — but transient read errors
        // still go through the retry policy.
        let line = self.read_line_healing(caddr)?.into_data();
        self.stats.mem.counter_reads.inc();
        if let Some(merkle) = &mut self.merkle {
            let ok = merkle.verify_leaf(page.raw() as usize, &line);
            self.profile.charge(Stage::MerkleVerify, Cycles::ZERO);
            self.tracer
                .emit(now, || TraceEvent::MerkleVerify { page, ok });
            if !ok {
                return Err(Error::IntegrityViolation {
                    detail: format!("counter block of {page} failed verification"),
                });
            }
        }
        let ctrs = CounterBlock::from_line(&line);
        self.install_counters(page, ctrs, false, now)?;
        Ok((ctrs, latency))
    }

    /// Installs a counter block into the cache, handling the victim and
    /// the configured persistence mode. `dirty` marks modified counters.
    fn install_counters(
        &mut self,
        page: PageId,
        ctrs: CounterBlock,
        dirty: bool,
        now: Cycles,
    ) -> Result<()> {
        let caddr = self.counter_addr(page);
        // Journal the page's *pre-operation* counter image the moment an
        // operation dirties it (write-ahead). The cached value — not the
        // possibly-stale NVM line — is the truth under battery-backed
        // write-back, and first-pre-image-wins dedupe keeps this in sync
        // with the persist-time entry under write-through. Without this,
        // the crash-time battery flush could persist a counter the
        // interrupted operation bumped with no pre-image to roll back to.
        if dirty && self.adr() && self.persist.depth > 0 {
            let redo = self.persist.victim_flush || self.persist.tag.is_some_and(SeqTag::is_redo);
            if !redo && !self.persist.journaled.contains(&caddr.raw()) {
                let pre = self
                    .counter_cache
                    .peek(caddr)
                    .map_or_else(|| self.nvm.peek(caddr), |e| e.value.to_line());
                self.journal_write_entry(&JournalEntry {
                    kind: EntryKind::CounterUndo,
                    target: caddr,
                    aux: page.raw(),
                    was_quarantined: false,
                    payload: pre,
                })?;
            }
        }
        let write_through =
            self.config.counter_persistence == CounterPersistence::WriteThrough && dirty;
        if write_through {
            self.write_counters_to_nvm(page, &ctrs, now)?;
        }
        let victim = self
            .counter_cache
            .insert(caddr, ctrs, dirty && !write_through);
        if let Some(v) = victim {
            if v.dirty {
                // A dirty victim's data lines are already durable: its
                // counter writeback journals a post-image (roll forward
                // on recovery), not a pre-image.
                let vpage = PageId::new((v.addr.raw() - self.counter_base) / LINE_SIZE as u64);
                let was = self.persist.victim_flush;
                self.persist.victim_flush = true;
                let r = self.write_counters_to_nvm(vpage, &v.value, now);
                self.persist.victim_flush = was;
                r?;
            }
        }
        Ok(())
    }

    fn write_counters_to_nvm(
        &mut self,
        page: PageId,
        ctrs: &CounterBlock,
        now: Cycles,
    ) -> Result<()> {
        let caddr = self.counter_addr(page);
        let line = ctrs.to_line();
        let write_lat = self.config.nvm_timing.write_cycles();
        self.sched(now, write_lat);
        self.profile.charge(Stage::CounterWrite, write_lat);
        // A cut here leaves the in-memory Merkle leaf at the OLD line:
        // recovery's pre-image undo restores NVM to match it.
        self.persist_line(caddr, &line, Some(page))?;
        self.stats.mem.counter_writes.inc();
        if let Some(merkle) = &mut self.merkle {
            merkle.update_leaf(page.raw() as usize, &line);
        }
        Ok(())
    }

    fn chunk_minors(&self, addr: BlockAddr, current_minor: u8) -> [u8; CHUNKS] {
        match self.deuce_meta.get(&addr.raw()) {
            Some(meta) => core::array::from_fn(|i| meta.chunk_minor(i, current_minor)),
            None => [current_minor; CHUNKS],
        }
    }

    fn decrypt_ctr(&self, addr: BlockAddr, ctrs: &CounterBlock, cipher: &Line) -> Line {
        let engine = &self.ctr;
        let page = addr.page();
        let block = addr.block_in_page();
        if self.config.deuce {
            let minors = self.chunk_minors(addr, ctrs.minors[block]);
            deuce::decrypt_chunked(engine, page.raw(), block as u8, ctrs.major, minors, cipher)
        } else {
            engine.decrypt_line(&ctrs.iv(page.raw(), block), cipher)
        }
    }

    // ------------------------------------------------------------------
    // Self-healing: deferred bad-line remap and background scrub.
    // ------------------------------------------------------------------

    /// Flags a logical data line for remap at the end of the current
    /// operation (idempotent).
    fn note_pending_heal(&mut self, addr: BlockAddr) {
        if !self.pending_heal.contains(&addr) {
            self.pending_heal.push(addr);
        }
    }

    /// Remaps every line flagged during the operation that just
    /// completed. Runs until the list drains — a remap's own reads (page
    /// re-encryption, counter fetches) may flag further lines.
    fn process_pending_heal(&mut self, now: Cycles) -> Result<()> {
        while let Some(addr) = self.pending_heal.pop() {
            self.remap_line(addr, now)?;
        }
        Ok(())
    }

    /// Quarantines `dev` after a failed remap (no spare, or the rescue
    /// read was already uncorrectable).
    fn fail_remap(&mut self, dev: BlockAddr) -> Result<()> {
        self.stats.health.remap_failures.inc();
        self.heal.quarantine(dev);
        self.stats.health.quarantined.inc();
        let at = self.op_now;
        self.tracer.emit(at, || TraceEvent::LineRemap {
            addr: dev,
            ok: false,
        });
        Ok(())
    }

    /// Moves the degrading line at logical `addr` to a spare. Under
    /// counter mode the rescued plaintext is re-encrypted under a fresh
    /// IV (minor-counter bump, exactly like a demand write), and the
    /// counter + Merkle update commits the move atomically with the new
    /// ciphertext: a crash between the spare write and the counter write
    /// leaves the old mapping decodable under the old counters.
    fn remap_line(&mut self, addr: BlockAddr, now: Cycles) -> Result<()> {
        self.with_seq(SeqTag::Remap, |mc| mc.remap_line_inner(addr, now))
    }

    fn remap_line_inner(&mut self, addr: BlockAddr, now: Cycles) -> Result<()> {
        let dev = self.device_addr(addr);
        if self.heal.is_quarantined(dev) {
            return Ok(());
        }
        let slot = self.heal.redirect(dev);
        if !self.nvm.is_failed(slot) {
            // Healed in the meantime (e.g. revived by a full-line write).
            return Ok(());
        }
        // Queued writes to this line must land first so the rescue read
        // below sees the newest ciphertext. The drain's writes may move
        // the Start-Gap mapping, so the device address is re-resolved.
        self.drain_queue_fully(now)?;
        let dev = self.device_addr(addr);
        let slot = self.heal.redirect(dev);
        match self.config.protection {
            ProtectionMode::Scattered => return self.scattered_rescue_remap(addr, dev, slot, now),
            ProtectionMode::Plain | ProtectionMode::Ecb => {
                let rescued = match self.read_line_healing(slot) {
                    Ok(r) => r.into_data(),
                    Err(Error::UncorrectableEcc { .. }) => return self.fail_remap(dev),
                    Err(e) => return Err(e),
                };
                let Some(new_slot) = self.heal.allocate(dev) else {
                    return self.fail_remap(dev);
                };
                self.journal_remap_alloc(dev, new_slot, false)?;
                self.sched(now, self.config.nvm_timing.write_cycles());
                self.persist_line(new_slot, &rescued, None)?;
                self.stats.health.remaps.inc();
                self.tracer.emit(now, || TraceEvent::LineRemap {
                    addr: dev,
                    ok: true,
                });
            }
            ProtectionMode::Ctr => {
                let page = addr.page();
                let block = addr.block_in_page();
                let (ctrs, _) = self.fetch_counters(page, now)?;
                if self.config.shredder && ctrs.is_shredded(block) {
                    // A shredded block has no content to rescue, and its
                    // minor counter must STAY zero — bumping it would
                    // turn zero-fill reads back into array reads of
                    // stale ciphertext. Just retire the worn slot; the
                    // first post-shred write brings its own fresh IV.
                    let Some(new_slot) = self.heal.allocate(dev) else {
                        return self.fail_remap(dev);
                    };
                    self.journal_remap_alloc(dev, new_slot, false)?;
                    self.stats.health.remaps.inc();
                    self.tracer.emit(now, || TraceEvent::LineRemap {
                        addr: dev,
                        ok: true,
                    });
                    return Ok(());
                }
                let cipher = match self.read_line_healing(slot) {
                    Ok(r) => r.into_data(),
                    Err(Error::UncorrectableEcc { .. }) => return self.fail_remap(dev),
                    Err(e) => return Err(e),
                };
                let plain = self.decrypt_ctr(addr, &ctrs, &cipher);
                // Fresh IV: bump the minor exactly like a demand write,
                // so rescued plaintext is never re-encrypted under a
                // previously used (page, block, counter) tuple.
                let old_ctrs = ctrs;
                let mut new_ctrs = ctrs;
                if new_ctrs.bump_for_write(block) == BumpOutcome::Overflowed {
                    self.tracer.emit(now, || TraceEvent::CounterOverflow {
                        page,
                        block: block as u8,
                    });
                    self.reencrypt_page(page, &old_ctrs, &new_ctrs, block, now)?;
                }
                let minor = new_ctrs.minors[block];
                let new_cipher = if self.config.deuce {
                    self.deuce_meta
                        .insert(addr.raw(), DeuceMeta::new_epoch(minor));
                    deuce::encrypt_chunked(
                        &self.ctr,
                        page.raw(),
                        block as u8,
                        new_ctrs.major,
                        [minor; CHUNKS],
                        &plain,
                    )
                } else {
                    self.ctr
                        .encrypt_line(&new_ctrs.iv(page.raw(), block), &plain)
                };
                let Some(new_slot) = self.heal.allocate(dev) else {
                    return self.fail_remap(dev);
                };
                self.journal_remap_alloc(dev, new_slot, false)?;
                // Commit order: spare ciphertext first, then the counter
                // + Merkle update makes the new IV authoritative.
                self.sched(now, self.config.nvm_timing.write_cycles());
                self.persist_line(new_slot, &new_cipher, None)?;
                self.install_counters(page, new_ctrs, true, now)?;
                self.stats.health.remaps.inc();
                self.tracer.emit(now, || TraceEvent::LineRemap {
                    addr: dev,
                    ok: true,
                });
            }
        }
        Ok(())
    }

    /// Runs the scrubber if it is due and the write path is idle.
    fn maybe_scrub(&mut self, now: Cycles) -> Result<()> {
        let Some(interval) = self.config.scrub_interval else {
            return Ok(());
        };
        self.writes_since_scrub += 1;
        if self.writes_since_scrub < interval {
            return Ok(());
        }
        // Scrubbing steals idle cycles only: a backlogged write queue
        // has priority.
        if self.wqueue.as_ref().is_some_and(|q| !q.is_empty()) {
            return Ok(());
        }
        self.writes_since_scrub = 0;
        self.scrub_step(now)?;
        Ok(())
    }

    /// One background-scrubber step: reads the next data line in
    /// sequence (raw ciphertext — no counter fetch and no bus
    /// scheduling; the scrubber runs in idle device cycles), letting the
    /// ECC + retry + remap machinery heal anything degrading. Returns
    /// whether this step corrected, remapped, or retired a line.
    ///
    /// # Errors
    ///
    /// Propagates remap-path errors; an already-quarantined line is
    /// skipped silently.
    pub fn scrub_step(&mut self, now: Cycles) -> Result<bool> {
        self.with_seq(SeqTag::Scrub, |mc| mc.scrub_step_inner(now))
    }

    fn scrub_step_inner(&mut self, now: Cycles) -> Result<bool> {
        self.op_now = now;
        let lines = self.config.data_capacity / LINE_SIZE as u64;
        let addr = BlockAddr::new(self.scrub_cursor * LINE_SIZE as u64);
        self.scrub_cursor = (self.scrub_cursor + 1) % lines;
        self.stats.health.scrub_reads.inc();
        let corrected_before = self.stats.health.ecc_corrected.get();
        let retired_before = self.stats.health.remaps.get() + self.stats.health.quarantined.get();
        match self.nvm_read_data(addr) {
            Ok(_) => {}
            // Already degraded; nothing more the scrubber can do.
            Err(Error::Quarantined { .. }) => {}
            Err(e) => return Err(e),
        }
        self.process_pending_heal(now)?;
        let healed = self.stats.health.ecc_corrected.get() > corrected_before
            || self.stats.health.remaps.get() + self.stats.health.quarantined.get()
                > retired_before;
        if healed {
            self.stats.health.scrub_heals.inc();
        }
        self.tracer
            .emit(now, || TraceEvent::ScrubStep { addr, healed });
        Ok(healed)
    }

    /// Services an LLC miss (Fig. 7).
    ///
    /// # Errors
    ///
    /// [`Error::AddrOutOfRange`] for bad addresses,
    /// [`Error::IntegrityViolation`] on counter tampering,
    /// [`Error::CounterLoss`] after an unprotected crash.
    pub fn read_block(&mut self, addr: BlockAddr, now: Cycles) -> Result<ReadResult> {
        self.op_now = now;
        self.check_data_addr(addr)?;
        let result = match self.config.protection {
            ProtectionMode::Plain => {
                let read_lat = self.sched(now, self.config.nvm_timing.read_cycles());
                self.profile.charge(Stage::NvmRead, read_lat);
                let data = self.nvm_read_data(addr)?;
                self.stats.mem.reads.inc();
                ReadResult {
                    data,
                    latency: read_lat,
                    zero_filled: false,
                }
            }
            ProtectionMode::Ecb => {
                // Direct encryption: AES latency is serialised after the
                // array access (§2.2's performance argument against ECB).
                let read_lat = self.sched(now, self.config.nvm_timing.read_cycles());
                self.profile.charge(Stage::NvmRead, read_lat);
                self.profile.charge(Stage::AesEcb, self.config.aes_latency);
                let latency = read_lat + self.config.aes_latency;
                let cipher = self.nvm_read_data(addr)?;
                self.stats.mem.reads.inc();
                ReadResult {
                    data: self.ecb.decrypt_line(&cipher),
                    latency,
                    zero_filled: false,
                }
            }
            ProtectionMode::Ctr => {
                let page = addr.page();
                let block = addr.block_in_page();
                let (ctrs, ctr_lat) = self.fetch_counters(page, now)?;
                if self.config.shredder && ctrs.is_shredded(block) {
                    // Fig. 7 step 3b: minor counter is zero — return a
                    // zero-filled block, never touching the array.
                    self.stats.mem.zero_fill_reads.inc();
                    self.profile.charge(Stage::ZeroFill, ctr_lat);
                    self.tracer.emit(now, || TraceEvent::ZeroFillRead { addr });
                    ReadResult {
                        data: [0u8; LINE_SIZE],
                        latency: ctr_lat,
                        zero_filled: true,
                    }
                } else {
                    // Pad generation overlaps the array read; only the
                    // XOR is serialised (§2.2).
                    let read_lat = self.sched(now + ctr_lat, self.config.nvm_timing.read_cycles());
                    self.profile.charge(Stage::NvmRead, read_lat);
                    self.profile.charge(Stage::AesCtr, self.config.xor_latency);
                    let latency = ctr_lat + read_lat + self.config.xor_latency;
                    let cipher = self.nvm_read_data(addr)?;
                    self.stats.mem.reads.inc();
                    ReadResult {
                        data: self.decrypt_ctr(addr, &ctrs, &cipher),
                        latency,
                        zero_filled: false,
                    }
                }
            }
            ProtectionMode::Scattered => self.scattered_read_line(addr, now)?,
        };
        self.process_pending_heal(now)?;
        self.stats.mem.read_latency.record(result.latency);
        Ok(result)
    }

    /// Accepts a write-back from the LLC (or a non-temporal store).
    /// `zeroing` marks kernel-shredding traffic for classified accounting.
    /// Returns the issue latency (writes are posted; their bandwidth
    /// occupancy delays later accesses instead of stalling the writer).
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::read_block`].
    pub fn write_block(
        &mut self,
        addr: BlockAddr,
        data: &Line,
        zeroing: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        self.op_now = now;
        self.check_data_addr(addr)?;
        self.with_seq(SeqTag::DemandWrite, |mc| {
            mc.write_block_inner(addr, data, zeroing, now)
        })
    }

    fn write_block_inner(
        &mut self,
        addr: BlockAddr,
        data: &Line,
        zeroing: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        match self.config.protection {
            ProtectionMode::Plain => self.issue_data_write(addr, data, now)?,
            ProtectionMode::Ecb => {
                self.profile.charge(Stage::AesEcb, self.config.aes_latency);
                let cipher = self.ecb.encrypt_line(data);
                self.issue_data_write(addr, &cipher, now)?;
            }
            ProtectionMode::Ctr => {
                let page = addr.page();
                let block = addr.block_in_page();
                let (mut ctrs, _lat) = self.fetch_counters(page, now)?;
                let old_ctrs = ctrs;
                if ctrs.bump_for_write(block) == BumpOutcome::Overflowed {
                    self.tracer.emit(now, || TraceEvent::CounterOverflow {
                        page,
                        block: block as u8,
                    });
                    self.reencrypt_page(page, &old_ctrs, &ctrs, block, now)?;
                }
                self.profile.charge(Stage::AesCtr, self.config.xor_latency);
                let cipher = if self.config.deuce {
                    self.deuce_write_cipher(addr, &old_ctrs, &ctrs, data)
                } else {
                    self.ctr.encrypt_line(&ctrs.iv(page.raw(), block), data)
                };
                self.issue_data_write(addr, &cipher, now)?;
                self.install_counters(page, ctrs, true, now)?;
            }
            ProtectionMode::Scattered => self.scattered_write_line(addr, data, now, true)?,
        }
        self.stats.mem.writes.inc();
        if zeroing {
            self.stats.mem.zeroing_writes.inc();
        }
        self.maybe_scrub(now)?;
        self.process_pending_heal(now)?;
        Ok(Cycles::new(1))
    }

    /// Issues a demand write's data line, scheduling it on the channels
    /// unless the write queue owns scheduling.
    fn issue_data_write(&mut self, addr: BlockAddr, line: &Line, now: Cycles) -> Result<()> {
        if self.wqueue.is_none() {
            let write_lat = self.config.nvm_timing.write_cycles();
            self.sched(now, write_lat);
            self.profile.charge(Stage::NvmWrite, write_lat);
        }
        self.nvm_write_data(addr, line)
    }

    /// Computes the DEUCE ciphertext for a write: unmodified chunks keep
    /// their stored ciphertext bytes; modified chunks are re-encrypted
    /// under the new minor. Epoch rollover re-encrypts everything.
    fn deuce_write_cipher(
        &mut self,
        addr: BlockAddr,
        old_ctrs: &CounterBlock,
        new_ctrs: &CounterBlock,
        data: &Line,
    ) -> Line {
        let engine = &self.ctr;
        let page = addr.page();
        let block = addr.block_in_page();
        let new_minor = new_ctrs.minors[block];
        let major_changed = new_ctrs.major != old_ctrs.major;
        let epoch_rollover = new_minor.is_multiple_of(self.config.deuce_epoch) || major_changed;
        let was_shredded = old_ctrs.is_shredded(block);
        if epoch_rollover || was_shredded {
            // Whole line under the new minor; epoch restarts here.
            self.deuce_meta
                .insert(addr.raw(), DeuceMeta::new_epoch(new_minor));
            return deuce::encrypt_chunked(
                engine,
                page.raw(),
                block as u8,
                new_ctrs.major,
                [new_minor; CHUNKS],
                data,
            );
        }
        // Recover the old plaintext (hardware knows the dirty-word mask
        // from the cache; we reconstruct it by decrypting the old line —
        // no stats/latency charged, see DESIGN.md).
        let old_cipher = self.nvm_peek_data(addr);
        let old_minor = old_ctrs.minors[block];
        let old_minors = self.chunk_minors(addr, old_minor);
        let old_plain = deuce::decrypt_chunked(
            engine,
            page.raw(),
            block as u8,
            old_ctrs.major,
            old_minors,
            &old_cipher,
        );
        let changed = deuce::changed_chunks(&old_plain, data);
        let mut meta = self
            .deuce_meta
            .get(&addr.raw())
            .copied()
            .unwrap_or(DeuceMeta::new_epoch(old_minor));
        // Chunks modified earlier in this epoch were encrypted under the
        // previous minor; they must follow the leading counter too.
        let mut minors = [0u8; CHUNKS];
        let mut cipher = old_cipher;
        for c in 0..CHUNKS {
            if changed[c] || meta.modified[c] {
                meta.modified[c] = true;
                minors[c] = new_minor;
            } else {
                minors[c] = meta.epoch_minor;
            }
        }
        let full_new = deuce::encrypt_chunked(
            engine,
            page.raw(),
            block as u8,
            new_ctrs.major,
            minors,
            data,
        );
        for c in 0..CHUNKS {
            if changed[c] || meta.modified[c] {
                cipher[c * 16..(c + 1) * 16].copy_from_slice(&full_new[c * 16..(c + 1) * 16]);
            }
        }
        self.deuce_meta.insert(addr.raw(), meta);
        cipher
    }

    /// Re-encrypts every live block of `page` after a minor-counter
    /// overflow (§4.2): read, decrypt under the old IV, encrypt under the
    /// new one, write back. Shredded blocks stay shredded at no cost.
    fn reencrypt_page(
        &mut self,
        page: PageId,
        old_ctrs: &CounterBlock,
        new_ctrs: &CounterBlock,
        skip_block: usize,
        now: Cycles,
    ) -> Result<()> {
        self.stats.reencryptions.inc();
        // Queued writes to this page must land before re-encryption reads.
        self.drain_queue_fully(now)?;
        for b in 0..BLOCKS_PER_PAGE {
            if b == skip_block || old_ctrs.is_shredded(b) {
                continue;
            }
            let addr = page.block_addr(b);
            self.sched(now, self.config.nvm_timing.read_cycles());
            let cipher = self.nvm_read_data(addr)?;
            self.stats.mem.reads.inc();
            let plain = self.decrypt_ctr(addr, old_ctrs, &cipher);
            self.deuce_meta.remove(&addr.raw());
            let new_cipher = self.ctr.encrypt_line(&new_ctrs.iv(page.raw(), b), &plain);
            self.sched(now, self.config.nvm_timing.write_cycles());
            self.nvm_write_data(addr, &new_cipher)?;
            self.stats.mem.writes.inc();
        }
        self.deuce_meta.remove(&page.block_addr(skip_block).raw());
        Ok(())
    }

    /// Executes a shred command for `page` (Fig. 6 steps 3–5; cache
    /// invalidation — step 2 — is the caller's responsibility since the
    /// controller does not own the cache hierarchy).
    ///
    /// # Errors
    ///
    /// [`Error::PrivilegeViolation`] when invoked without kernel mode
    /// (§7.1), [`Error::InvalidConfig`] when the shredder is disabled,
    /// plus the read-path errors.
    pub fn shred_page(&mut self, page: PageId, kernel_mode: bool) -> Result<Cycles> {
        self.shred_page_at(page, kernel_mode, Cycles::ZERO)
    }

    /// [`MemoryController::shred_page`] with an explicit issue time for
    /// channel accounting.
    pub fn shred_page_at(
        &mut self,
        page: PageId,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        self.with_seq(SeqTag::Shred, |mc| {
            mc.shred_page_at_inner(page, kernel_mode, now)
        })
    }

    fn shred_page_at_inner(
        &mut self,
        page: PageId,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        self.op_now = now;
        if !kernel_mode {
            self.stats.shred_denied.inc();
            return Err(Error::PrivilegeViolation {
                addr: mmio::SHRED_REG,
            });
        }
        if !self.config.shredder {
            return Err(Error::InvalidConfig {
                detail: "shred command issued but silent shredder is disabled".into(),
            });
        }
        if page.base_addr().raw() >= self.config.data_capacity {
            return Err(Error::AddrOutOfRange {
                addr: page.base_addr(),
                capacity: self.config.data_capacity,
            });
        }
        let mut latency = match self.config.protection {
            ProtectionMode::Ctr => self.ctr_shred_page(page, now)?,
            ProtectionMode::Scattered => self.scattered_shred_page(page, now)?,
            // `validate` rejects a shredder without per-line metadata.
            ProtectionMode::Plain | ProtectionMode::Ecb => {
                return Err(Error::InvalidConfig {
                    detail: "shred command needs counter-mode or scattered protection".into(),
                })
            }
        };
        self.stats.shreds.inc();
        self.tracer.emit(now, || TraceEvent::Shred { page });
        self.process_pending_heal(now)?;
        // Counter update + ack (Fig. 6 steps 3–5).
        latency += Cycles::new(4);
        Ok(latency)
    }

    /// Counter-mode shred core (Fig. 6 steps 3–5): applies the shred
    /// strategy to the page's counters and returns the counter-fetch
    /// latency.
    fn ctr_shred_page(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        let (mut ctrs, latency) = self.fetch_counters(page, now)?;
        let old_ctrs = ctrs;
        let overflowed = ctrs.shred(self.config.shred_strategy);
        if overflowed {
            // Only ShredStrategy::MinorIncrementAll can land here; no
            // single block is exempt from re-encryption, so pass an
            // out-of-band skip index by re-encrypting all live blocks.
            self.stats.reencryptions.inc();
            for b in 0..BLOCKS_PER_PAGE {
                if old_ctrs.is_shredded(b) {
                    continue;
                }
                let addr = page.block_addr(b);
                self.sched(now, self.config.nvm_timing.read_cycles());
                let cipher = self.nvm_read_data(addr)?;
                self.stats.mem.reads.inc();
                let plain = self.decrypt_ctr(addr, &old_ctrs, &cipher);
                self.deuce_meta.remove(&addr.raw());
                let new_cipher = self.ctr.encrypt_line(&ctrs.iv(page.raw(), b), &plain);
                self.sched(now, self.config.nvm_timing.write_cycles());
                self.nvm_write_data(addr, &new_cipher)?;
                self.stats.mem.writes.inc();
            }
        }
        // Drop DEUCE state: the page restarts from scratch.
        for b in 0..BLOCKS_PER_PAGE {
            self.deuce_meta.remove(&page.block_addr(b).raw());
        }
        self.install_counters(page, ctrs, true, now)?;
        Ok(latency)
    }

    /// Shreds a contiguous run of pages — the §5 `clear_huge_page`
    /// discipline: a 2 MiB or 1 GiB page is shredded by issuing one shred
    /// command per 4 KiB page, with no further hardware support needed.
    /// Returns the accumulated latency.
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::shred_page`]; shreds already performed
    /// when an error occurs are not rolled back.
    pub fn shred_page_run(
        &mut self,
        first: PageId,
        count: u64,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        let mut elapsed = Cycles::ZERO;
        for i in 0..count {
            elapsed +=
                self.shred_page_at(PageId::new(first.raw() + i), kernel_mode, now + elapsed)?;
        }
        Ok(elapsed)
    }

    /// Registers `page` as enclave-owned (§4.1): while registered, its
    /// shredding is the *hardware's* responsibility — the enclave
    /// machinery calls [`MemoryController::enclave_dealloc`] on teardown,
    /// so data privacy does not depend on a trusted OS.
    ///
    /// # Errors
    ///
    /// [`Error::AddrOutOfRange`] for pages outside data memory.
    pub fn enclave_register(&mut self, page: PageId) -> Result<()> {
        if page.base_addr().raw() >= self.config.data_capacity {
            return Err(Error::AddrOutOfRange {
                addr: page.base_addr(),
                capacity: self.config.data_capacity,
            });
        }
        self.enclave_pages.insert(page.raw());
        Ok(())
    }

    /// Hardware-triggered shred of an enclave page on deallocation. Does
    /// not require kernel mode — the trust anchor is the enclave
    /// machinery itself, which only deallocates pages it owns.
    ///
    /// # Errors
    ///
    /// [`Error::PageNotOwned`] when `page` is not enclave-registered;
    /// shred-path errors otherwise.
    pub fn enclave_dealloc(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        if !self.enclave_pages.remove(&page.raw()) {
            return Err(Error::PageNotOwned { page });
        }
        // Hardware path: bypasses the kernel-mode check by construction.
        self.shred_page_at(page, true, now)
    }

    /// Whether `page` is currently enclave-owned.
    pub(crate) fn is_enclave_page(&self, page: PageId) -> bool {
        self.enclave_pages.contains(&page.raw())
    }

    /// Architectural MMIO write (the kernel's `shred` hint, §4.3 step 1).
    ///
    /// Decoding ([`mmio::decode`]) and execution ([`MmioOp::apply`]) are
    /// separate: privilege is enforced once, on the executor path, for
    /// every decoded register.
    ///
    /// # Errors
    ///
    /// [`Error::PrivilegeViolation`] for user-mode writers (to any MMIO
    /// address — probing the window is itself privileged);
    /// [`Error::MalformedMmio`] for a kernel write of an invalid value
    /// to a known register. Kernel writes to unknown registers are
    /// ignored (returning a bus-write latency of 1 cycle).
    pub fn mmio_write(
        &mut self,
        reg: PhysAddr,
        value: u64,
        kernel_mode: bool,
        now: Cycles,
    ) -> Result<Cycles> {
        match mmio::decode(reg, value) {
            Ok(op) => op.apply(self, kernel_mode, now),
            Err(_) if !kernel_mode => {
                self.stats.shred_denied.inc();
                Err(Error::PrivilegeViolation { addr: reg })
            }
            Err(mmio::MmioError::UnknownRegister { .. }) => Ok(Cycles::new(1)),
            Err(e @ mmio::MmioError::MalformedValue { .. }) => Err(e.into_error()),
        }
    }

    /// Cycles until all posted writes have drained, from `now`
    /// (`sfence`/`pcommit` semantics, §4.3).
    pub fn fence(&self, now: Cycles) -> Cycles {
        self.channels.all_idle_at().saturating_sub(now)
    }

    /// `sfence`/`pcommit` with write-queue semantics: drains every queued
    /// write, then waits for the channels to go idle.
    ///
    /// # Errors
    ///
    /// Propagates device write errors from the drain.
    pub fn fence_drain(&mut self, now: Cycles) -> Result<Cycles> {
        self.op_now = now;
        self.with_seq(SeqTag::DrainEntry, |mc| mc.drain_queue_fully(now))?;
        Ok(self.fence(now))
    }

    /// RowClone-style in-device zeroing \[34\]: writes encrypted zeros to
    /// every block of `page` with full counter maintenance, but without
    /// occupying the memory bus (no channel scheduling). Cells are still
    /// programmed — the writes count. Returns the device-side latency.
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::write_block`].
    pub fn zero_page_in_place(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        self.with_seq(SeqTag::DemandWrite, |mc| {
            mc.zero_page_in_place_inner(page, now)
        })
    }

    fn zero_page_in_place_inner(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        self.op_now = now;
        let zero = [0u8; LINE_SIZE];
        for b in 0..BLOCKS_PER_PAGE {
            let addr = page.block_addr(b);
            self.check_data_addr(addr)?;
            match self.config.protection {
                ProtectionMode::Plain => self.nvm_write_data(addr, &zero)?,
                ProtectionMode::Ecb => {
                    let cipher = self.ecb.encrypt_line(&zero);
                    self.nvm_write_data(addr, &cipher)?;
                }
                ProtectionMode::Ctr => {
                    let (mut ctrs, _) = self.fetch_counters(page, now)?;
                    let old_ctrs = ctrs;
                    if ctrs.bump_for_write(b) == BumpOutcome::Overflowed {
                        self.tracer.emit(now, || TraceEvent::CounterOverflow {
                            page,
                            block: b as u8,
                        });
                        self.reencrypt_page(page, &old_ctrs, &ctrs, b, now)?;
                    }
                    let cipher = self.ctr.encrypt_line(&ctrs.iv(page.raw(), b), &zero);
                    self.deuce_meta.remove(&addr.raw());
                    self.nvm_write_data(addr, &cipher)?;
                    self.install_counters(page, ctrs, true, now)?;
                }
                ProtectionMode::Scattered => self.scattered_write_line(addr, &zero, now, false)?,
            }
            self.stats.mem.writes.inc();
            self.stats.mem.zeroing_writes.inc();
        }
        self.process_pending_heal(now)?;
        // One array write latency: the device zeroes rows internally in
        // parallel (optimistic, as in the RowClone paper).
        Ok(self.config.nvm_timing.write_cycles())
    }

    /// Flushes dirty counter blocks to NVM (battery-backed write-back
    /// behaviour on power-down, or an explicit clean shutdown).
    ///
    /// # Errors
    ///
    /// Propagates NVM write errors.
    pub fn flush_counters(&mut self) -> Result<()> {
        self.with_seq(SeqTag::CounterFlush, Self::flush_counters_inner)
    }

    /// [`MemoryController::flush_counters`] without sequence bracketing.
    /// The crash-time battery flush calls this directly when an
    /// interrupted operation left the journal open: its counter writes
    /// then join that sequence as post-image (redo) entries, while the
    /// interrupted operation's own bumps keep their install-time
    /// pre-images — recovery redoes the durable, undoes the torn.
    fn flush_counters_inner(&mut self) -> Result<()> {
        let dirty: Vec<(BlockAddr, CounterBlock)> = self
            .counter_cache
            .iter()
            .filter(|e| e.dirty)
            .map(|e| (e.addr, e.value))
            .collect();
        for (caddr, ctrs) in dirty {
            let page = PageId::new((caddr.raw() - self.counter_base) / LINE_SIZE as u64);
            self.write_counters_to_nvm(page, &ctrs, Cycles::ZERO)?;
            if let Some(e) = self.counter_cache.get(caddr) {
                e.dirty = false;
            }
        }
        Ok(())
    }

    /// Simulates power loss. Battery-backed and write-through
    /// configurations keep the counters; a volatile write-back counter
    /// cache loses its dirty blocks, rendering the affected pages
    /// unrecoverable (§7.1).
    ///
    /// The persistence domain decides what happens to in-flight state
    /// ([`PersistDomain`]): under eADR, stored energy completes the
    /// in-flight sequence — the write queue drains fully, exactly the
    /// historical behaviour. Under ADR the queue sits *outside* the
    /// persistence domain and its contents vanish; only lines that
    /// already reached the device (possibly a torn prefix from a fired
    /// crash cut) survive, and the ordering journal carries what
    /// [`MemoryController::recover_mut`] needs to restore consistency.
    ///
    /// Every DRAM-backed structure dies here in both domains: the
    /// counter cache is rebuilt cold, deferred-heal flags drop, and the
    /// device's own power cycle clears its volatile banks.
    ///
    /// # Errors
    ///
    /// Propagates NVM write errors from the battery-backed flush.
    pub fn power_loss(&mut self) -> Result<()> {
        self.persist.armed = None;
        let was_cut = self.persist.cut_fired;
        self.persist.cut_fired = false;
        match self.config.persist_domain {
            PersistDomain::Eadr => {
                // Flush-on-fail: queued writes always reach the device.
                self.drain_queue_fully(Cycles::ZERO)?;
            }
            PersistDomain::Adr => {
                if let Some(wq) = &mut self.wqueue {
                    wq.clear();
                }
            }
        }
        match self.config.counter_persistence {
            CounterPersistence::BatteryBackedWriteBack => {
                if was_cut && self.persist.header_written {
                    // The battery flushes whatever the cache holds.
                    // Appending to the still-open journal sequence as
                    // *post-images* (redo) keeps counters of completed
                    // operations — whose data is already durable — from
                    // being rolled back; any counter the interrupted
                    // operation itself bumped was journaled as a
                    // pre-image at install time, and recovery's
                    // undo-after-redo ordering restores it regardless.
                    let was = self.persist.victim_flush;
                    self.persist.victim_flush = true;
                    let r = self.flush_counters_inner();
                    self.persist.victim_flush = was;
                    r?;
                } else {
                    self.flush_counters()?;
                }
            }
            CounterPersistence::WriteThrough => {}
            CounterPersistence::VolatileWriteBack => {
                let lost_dirty = self.counter_cache.iter().any(|e| e.dirty);
                if lost_dirty {
                    self.counters_lost = true;
                }
            }
        }
        // Volatile controller state dies with power. `pending_heal` is
        // empty between operations; clearing it here pins that any heal
        // deferred by an interrupted operation is dropped, not replayed
        // against post-recovery state.
        self.pending_heal.clear();
        self.persist.depth = 0;
        self.persist.tag = None;
        self.persist.victim_flush = false;
        self.counter_cache = SetAssocCache::new(self.counter_cache.config().clone());
        self.nvm.power_cycle();
        Ok(())
    }

    /// Post-restart recovery check: verifies that the counters needed to
    /// decrypt data are available.
    ///
    /// # Errors
    ///
    /// [`Error::CounterLoss`] when a prior crash dropped dirty counters.
    pub fn recover(&self) -> Result<()> {
        if self.counters_lost {
            Err(Error::CounterLoss)
        } else {
            Ok(())
        }
    }

    /// The reboot recovery protocol. Runs after
    /// [`MemoryController::power_loss`], before the first demand access:
    ///
    /// 1. The [`MemoryController::recover`] counter-availability check.
    /// 2. **Journal resolution** (ADR only): an open sequence means
    ///    power died mid-operation. Redo entries (counter writebacks of
    ///    already-durable data) are re-applied in order; undo entries
    ///    (the interrupted operation's data, spare, and counter
    ///    pre-images) are restored in reverse, rolling Merkle leaves and
    ///    the spare-pool map back with them. The journal is then marked
    ///    closed — replaying recovery is idempotent.
    /// 3. **Integrity re-verification**: the persisted counter region is
    ///    read once and checked against the in-memory Merkle tree in one
    ///    bottom-up pass ([`MerkleTree::verify_leaves`]). A mismatch that
    ///    recovery could not repair is a hard
    ///    [`Error::IntegrityViolation`], never a silently served read.
    /// 4. **Shred census**: counts, from the same read, pages whose
    ///    persisted counters are fully shredded under a non-zero
    ///    major — re-establishing that
    ///    shredded pages zero-fill (their minors are all 0) before any
    ///    read is served.
    ///
    /// Calling it twice is equivalent to calling it once (the second
    /// call finds a closed journal and repairs nothing).
    ///
    /// # Errors
    ///
    /// [`Error::CounterLoss`] as for [`MemoryController::recover`];
    /// [`Error::IntegrityViolation`] when a counter line fails
    /// re-verification after journal resolution; NVM write errors from
    /// the rollback writes.
    pub fn recover_mut(&mut self) -> Result<RecoveryReport> {
        self.recover()?;
        let mut report = RecoveryReport::default();
        if self.adr() {
            let header = self.nvm.peek(self.journal_line_addr(0));
            if let Some((open, tag, seq_no)) = persist::decode_header(&header) {
                self.persist.next_seq = seq_no + 1;
                if open {
                    report.journal_open = true;
                    report.interrupted_tag = tag;
                    let mut entries = Vec::new();
                    for i in 0..persist::JOURNAL_MAX_ENTRIES as u64 {
                        let eh = self.nvm.peek(self.journal_line_addr(1 + 2 * i));
                        let payload = self.nvm.peek(self.journal_line_addr(2 + 2 * i));
                        match persist::decode_entry(&eh, seq_no, payload) {
                            Some(e) => entries.push(e),
                            None => break,
                        }
                    }
                    // Roll forward: metadata writebacks of durable data.
                    for e in &entries {
                        if e.kind == EntryKind::CounterRedo {
                            self.nvm.write_line(e.target, &e.payload)?;
                            if let Some(merkle) = &mut self.merkle {
                                merkle
                                    .update_leaf(persist::entry_page(e).raw() as usize, &e.payload);
                            }
                            report.redone += 1;
                        }
                    }
                    // Roll back the interrupted operation, newest first.
                    for e in entries.iter().rev() {
                        match e.kind {
                            EntryKind::DataUndo => {
                                self.nvm.write_line(e.target, &e.payload)?;
                                report.undone += 1;
                            }
                            EntryKind::CounterUndo => {
                                self.nvm.write_line(e.target, &e.payload)?;
                                if let Some(merkle) = &mut self.merkle {
                                    merkle.update_leaf(
                                        persist::entry_page(e).raw() as usize,
                                        &e.payload,
                                    );
                                }
                                report.undone += 1;
                            }
                            EntryKind::RemapAlloc => {
                                if self.heal.undo_remap(e.target, BlockAddr::new(e.aux)) {
                                    report.remaps_rolled_back += 1;
                                }
                                if e.was_quarantined {
                                    self.heal.quarantine(e.target);
                                }
                            }
                            EntryKind::CounterRedo => {}
                        }
                    }
                    self.nvm.write_line(
                        self.journal_line_addr(0),
                        &persist::encode_header(false, 0, seq_no),
                    )?;
                }
            }
            self.persist.header_written = false;
            self.persist.journaled.clear();
            self.persist.entry_count = 0;
            self.persist.depth = 0;
            self.persist.tag = None;
            self.persist.victim_flush = false;
        }
        report.root_verified = true;
        match self.config.protection {
            // No per-line metadata to re-verify or census.
            ProtectionMode::Plain | ProtectionMode::Ecb => {}
            // Encryption counters and scattered liveness lines share
            // the counter region, its integrity tree, and the census.
            ProtectionMode::Ctr | ProtectionMode::Scattered => {
                report.shredded_pages += self.reverify_counter_region()?;
            }
        }
        Ok(report)
    }

    /// Reads the persisted counter region once, re-verifies it against
    /// the Merkle tree in one bottom-up pass (skipped when integrity is
    /// off), and returns the shred census: the pages it shows fully
    /// shredded under a non-zero major counter.
    fn reverify_counter_region(&mut self) -> Result<u64> {
        let lines: Vec<Line> = (0..self.config.frames())
            .map(|p| self.nvm.peek(self.counter_addr(PageId::new(p))))
            .collect();
        if let Some(p) = self.merkle.as_mut().and_then(|m| m.verify_leaves(&lines)) {
            return Err(Error::IntegrityViolation {
                detail: format!(
                    "recovery: persisted counter line of page {p} does not match the \
                     Merkle tree"
                ),
            });
        }
        Ok(lines
            .iter()
            .map(CounterBlock::from_line)
            .filter(|c| c.major > 0 && (0..BLOCKS_PER_PAGE).all(|b| c.is_shredded(b)))
            .count() as u64)
    }

    // ------------------------------------------------------------------
    // Scattered two-share mode (DESIGN.md §15).
    //
    // Every line is stored as two shares in disjoint NVM regions: a
    // uniform-random share in the data region and the XOR-masked share
    // in the mask region (modeling a second DIMM). Either share alone
    // is statistically independent of the plaintext; shredding discards
    // the mask share. The counter region is reused as block-liveness
    // metadata (minor 0 = dead → zero-fill), so the counter cache,
    // Merkle tree, journal, and recovery machinery all apply verbatim.
    // ------------------------------------------------------------------

    /// Device address of the mask share backing logical line `addr`.
    fn mask_addr(&self, addr: BlockAddr) -> BlockAddr {
        BlockAddr::new(self.mask_base + addr.raw())
    }

    /// Scattered read: zero-fill for dead blocks, otherwise fetch both
    /// shares (in parallel across regions) and recombine.
    fn scattered_read_line(&mut self, addr: BlockAddr, now: Cycles) -> Result<ReadResult> {
        let page = addr.page();
        let block = addr.block_in_page();
        let (ctrs, ctr_lat) = self.fetch_counters(page, now)?;
        if ctrs.is_shredded(block) {
            // Dead block (never written, or its pad was discarded):
            // zero-fill without touching either share region.
            self.stats.mem.zero_fill_reads.inc();
            self.profile.charge(Stage::ZeroFill, ctr_lat);
            self.tracer.emit(now, || TraceEvent::ZeroFillRead { addr });
            return Ok(ReadResult {
                data: [0u8; LINE_SIZE],
                latency: ctr_lat,
                zero_filled: true,
            });
        }
        // The two regions are independent banks: share reads overlap,
        // and only the XOR recombination is serialised.
        let read_a = self.sched(now + ctr_lat, self.config.nvm_timing.read_cycles());
        self.profile.charge(Stage::NvmRead, read_a);
        let share_a = self.nvm_read_data(addr)?;
        self.stats.mem.reads.inc();
        let read_b = self.sched(now + ctr_lat, self.config.nvm_timing.read_cycles());
        self.profile.charge(Stage::NvmRead, read_b);
        let mask = self.mask_addr(addr);
        // The mask region has a fixed layout (line → line), so like the
        // counter region it is not remappable — but transient read
        // errors still go through the retry policy.
        let share_b = self.read_line_healing(mask)?.into_data();
        self.stats.prot.share_reads.inc();
        self.profile.charge(Stage::AesCtr, self.config.xor_latency);
        let data = ss_crypto::share::recombine_shares(&share_a, &share_b);
        self.stats.prot.recombines.inc();
        self.tracer
            .emit(now, || TraceEvent::ShareRecombine { addr });
        let latency =
            ctr_lat + Cycles::new(read_a.raw().max(read_b.raw())) + self.config.xor_latency;
        Ok(ReadResult {
            data,
            latency,
            zero_filled: false,
        })
    }

    /// Scattered write: split `data` into a fresh share pair and persist
    /// both halves; first write to a dead block marks it live. `bus` is
    /// false on the in-device zeroing path (no channel scheduling).
    fn scattered_write_line(
        &mut self,
        addr: BlockAddr,
        data: &Line,
        now: Cycles,
        bus: bool,
    ) -> Result<()> {
        let page = addr.page();
        let block = addr.block_in_page();
        let (mut ctrs, _lat) = self.fetch_counters(page, now)?;
        // Every write draws a fresh pad: pads are never reused across
        // values, so old mask captures are useless against new data.
        let share_a = ss_crypto::share::gen_share(&mut self.share_rng);
        let share_b = ss_crypto::share::mask_share(data, &share_a);
        if bus {
            let write_lat = self.config.nvm_timing.write_cycles();
            self.sched(now, write_lat);
            self.profile.charge(Stage::NvmWrite, write_lat);
            let mask_lat = self.config.nvm_timing.write_cycles();
            self.sched(now, mask_lat);
            self.profile.charge(Stage::NvmWrite, mask_lat);
        }
        self.nvm_write_data(addr, &share_a)?;
        let mask = self.mask_addr(addr);
        self.persist_line(mask, &share_b, None)?;
        self.stats.prot.share_writes.inc();
        self.stats.prot.mask_writes.inc();
        if ctrs.is_shredded(block) {
            // First write since shred (or boot): mark the block live so
            // reads recombine instead of zero-filling.
            let _ = ctrs.bump_for_write(block);
            self.install_counters(page, ctrs, true, now)?;
        }
        Ok(())
    }

    /// Scattered shred: overwrite every live block's mask share with
    /// fresh randomness (destroying the pad pairing) and mark the page
    /// dead. The data-region shares are untouched — alone they are
    /// uniform noise.
    fn scattered_shred_page(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        let (mut ctrs, mut latency) = self.fetch_counters(page, now)?;
        let mut discarded = 0u32;
        for b in 0..BLOCKS_PER_PAGE {
            if ctrs.is_shredded(b) {
                continue;
            }
            let addr = page.block_addr(b);
            let fresh = ss_crypto::share::gen_share(&mut self.share_rng);
            self.sched(now, self.config.nvm_timing.write_cycles());
            self.profile
                .charge(Stage::NvmWrite, self.config.nvm_timing.write_cycles());
            let mask = self.mask_addr(addr);
            self.persist_line(mask, &fresh, None)?;
            self.stats.prot.mask_writes.inc();
            self.stats.prot.mask_discards.inc();
            discarded += 1;
        }
        if discarded > 0 {
            // Mask banks program in parallel; one write latency lands on
            // the critical path.
            latency += self.config.nvm_timing.write_cycles();
            self.tracer.emit(now, || TraceEvent::MaskDiscard {
                page,
                lines: discarded,
            });
        }
        let _ = ctrs.shred(self.config.shred_strategy);
        self.install_counters(page, ctrs, true, now)?;
        Ok(latency)
    }

    /// Scattered rescue: a dead block's worn slot is retired outright; a
    /// live block is recombined and re-split under a *fresh* pad, so a
    /// spare never inherits previously used share material.
    fn scattered_rescue_remap(
        &mut self,
        addr: BlockAddr,
        dev: BlockAddr,
        slot: BlockAddr,
        now: Cycles,
    ) -> Result<()> {
        let page = addr.page();
        let block = addr.block_in_page();
        let (ctrs, _) = self.fetch_counters(page, now)?;
        if ctrs.is_shredded(block) {
            // Nothing live to rescue, and the block must stay dead:
            // retire the worn slot only (same discipline as the
            // counter-mode shredded arm).
            let Some(new_slot) = self.heal.allocate(dev) else {
                return self.fail_remap(dev);
            };
            self.journal_remap_alloc(dev, new_slot, false)?;
            self.stats.health.remaps.inc();
            self.tracer.emit(now, || TraceEvent::LineRemap {
                addr: dev,
                ok: true,
            });
            return Ok(());
        }
        let share_a = match self.read_line_healing(slot) {
            Ok(r) => r.into_data(),
            Err(Error::UncorrectableEcc { .. }) => return self.fail_remap(dev),
            Err(e) => return Err(e),
        };
        let mask = self.mask_addr(addr);
        let share_b = self.read_line_healing(mask)?.into_data();
        let plain = ss_crypto::share::recombine_shares(&share_a, &share_b);
        self.stats.prot.recombines.inc();
        let new_a = ss_crypto::share::gen_share(&mut self.share_rng);
        let new_b = ss_crypto::share::mask_share(&plain, &new_a);
        let Some(new_slot) = self.heal.allocate(dev) else {
            return self.fail_remap(dev);
        };
        self.journal_remap_alloc(dev, new_slot, false)?;
        // Commit order: spare share first, then the mask write makes the
        // fresh pair authoritative (journal pre-images cover a cut).
        self.sched(now, self.config.nvm_timing.write_cycles());
        self.persist_line(new_slot, &new_a, None)?;
        self.sched(now, self.config.nvm_timing.write_cycles());
        self.persist_line(mask, &new_b, None)?;
        self.stats.prot.share_writes.inc();
        self.stats.prot.mask_writes.inc();
        self.stats.prot.fresh_share_rescues.inc();
        self.stats.health.remaps.inc();
        self.tracer.emit(now, || TraceEvent::LineRemap {
            addr: dev,
            ok: true,
        });
        Ok(())
    }

    // ------------------------------------------------------------------
    // Attack-model and test surfaces (§4.1).
    // ------------------------------------------------------------------

    /// An attacker's cold scan of the data region (raw NVM contents).
    /// The spare pool is part of the scan: remapped lines physically
    /// live there, and retired originals still hold their last
    /// ciphertext — both are visible to a chip-level attacker.
    pub(crate) fn cold_scan_data(&self) -> Vec<(BlockAddr, Line)> {
        self.nvm
            .cold_scan()
            .filter(|(a, _)| {
                a.raw() < self.counter_base
                    || (a.raw() >= self.spare_base && a.raw() < self.journal_base)
            })
            .map(|(a, l)| (a, *l))
            .collect()
    }

    /// An attacker's cold scan of the spare-line pool only. Remapped
    /// lines physically live here; the pool is the residue surface a
    /// remap-probe attack inspects for rescued-but-unshredded data.
    pub(crate) fn cold_scan_spares(&self) -> Vec<(BlockAddr, Line)> {
        self.nvm
            .cold_scan()
            .filter(|(a, _)| a.raw() >= self.spare_base && a.raw() < self.journal_base)
            .map(|(a, l)| (a, *l))
            .collect()
    }

    /// An attacker's cold scan of the persisted counter region, keyed by
    /// owning page. This is exactly the state a rollback attacker
    /// captures at one power cycle and replays at the next.
    pub(crate) fn cold_scan_counters(&self) -> Vec<(PageId, Line)> {
        self.nvm
            .cold_scan()
            .filter(|(a, _)| a.raw() >= self.counter_base && a.raw() < self.spare_base)
            .map(|(a, l)| {
                (
                    PageId::new((a.raw() - self.counter_base) / LINE_SIZE as u64),
                    *l,
                )
            })
            .collect()
    }

    /// Snapshot of the on-chip Merkle root (`None` when integrity is
    /// off). The root is *inside* the trust boundary — an adversary can
    /// replay every persisted counter line but cannot roll this back,
    /// which is why rollback is detected rather than silently accepted.
    pub(crate) fn merkle_root(&self) -> Option<ss_crypto::Digest> {
        self.merkle.as_ref().map(MerkleTree::root)
    }

    /// An attacker overwriting a *data* line in NVM (man-in-the-middle /
    /// overwrite attacks).
    pub(crate) fn nvm_tamper(&mut self, addr: BlockAddr, line: Line) {
        let dev = self.heal.redirect(self.device_addr(addr));
        self.nvm.tamper(dev, line);
    }

    /// Reads the raw counter line of `page` from NVM (attacker capture
    /// for replay experiments).
    pub(crate) fn nvm_peek_counter(&self, page: PageId) -> Line {
        self.nvm.peek(self.counter_addr(page))
    }

    /// An attacker overwriting a counter line in NVM (replay/tamper).
    /// The next counter-cache miss for this page must fail verification
    /// when integrity is enabled. Only effective once the cached copy is
    /// evicted or dropped; tests combine this with [`Self::drop_counter_cache`].
    pub(crate) fn tamper_counter_line(&mut self, page: PageId, line: Line) {
        let caddr = self.counter_addr(page);
        self.nvm.tamper(caddr, line);
    }

    /// Drops the counter-cache contents *without* flushing (test helper
    /// forcing subsequent NVM counter reads).
    pub(crate) fn drop_counter_cache(&mut self) {
        self.counter_cache = SetAssocCache::new(self.counter_cache.config().clone());
    }

    /// What the running software would observe at `addr`, without stats
    /// or timing side effects (test helper).
    ///
    /// # Errors
    ///
    /// As for [`MemoryController::read_block`].
    pub(crate) fn peek_plaintext(&mut self, addr: BlockAddr) -> Result<Line> {
        self.check_data_addr(addr)?;
        Ok(match self.config.protection {
            ProtectionMode::Plain => self.nvm_peek_data(addr),
            ProtectionMode::Ecb => self.ecb.decrypt_line(&self.nvm_peek_data(addr)),
            ProtectionMode::Ctr => {
                let ctrs = self.peek_counters(addr.page());
                if self.config.shredder && ctrs.is_shredded(addr.block_in_page()) {
                    return Ok([0u8; LINE_SIZE]);
                }
                let cipher = self.nvm_peek_data(addr);
                self.decrypt_ctr(addr, &ctrs, &cipher)
            }
            ProtectionMode::Scattered => {
                if self
                    .peek_counters(addr.page())
                    .is_shredded(addr.block_in_page())
                {
                    return Ok([0u8; LINE_SIZE]);
                }
                let share_a = self.nvm_peek_data(addr);
                let share_b = self.nvm.peek(self.mask_addr(addr));
                ss_crypto::share::recombine_shares(&share_a, &share_b)
            }
        })
    }

    /// `page`'s counters (or scattered liveness line) as the controller
    /// currently sees them, without disturbing stats or timing.
    fn peek_counters(&mut self, page: PageId) -> CounterBlock {
        let caddr = self.counter_addr(page);
        match self.counter_cache.get(caddr) {
            Some(e) => e.value,
            None => CounterBlock::from_line(&self.nvm.peek(caddr)),
        }
    }

    // ------------------------------------------------------------------
    // Fault-injection surfaces (driven by the ss-harness crate).
    // ------------------------------------------------------------------

    /// Cumulative NVM write count — the event index that fault plans
    /// schedule against ("power loss after the Nth NVM write").
    pub(crate) fn nvm_writes(&self) -> u64 {
        self.nvm.stats().writes.get()
    }

    /// Current write-queue occupancy (0 when no queue is configured).
    pub(crate) fn write_queue_len(&self) -> usize {
        self.wqueue.as_ref().map_or(0, |q| q.len())
    }

    /// Whether `page`'s counter line is cached and dirty (modified since
    /// it last reached NVM). Checked without disturbing LRU state.
    pub(crate) fn counter_line_dirty(&self, page: PageId) -> bool {
        let caddr = self.counter_addr(page);
        self.counter_cache.peek(caddr).is_some_and(|e| e.dirty)
    }

    /// Writes `page`'s counter line back to NVM if it is cached dirty
    /// (a targeted scrub of one counter-cache frame). Returns whether a
    /// writeback happened.
    ///
    /// # Errors
    ///
    /// Propagates NVM write errors.
    pub(crate) fn flush_counter_line(&mut self, page: PageId) -> Result<bool> {
        let caddr = self.counter_addr(page);
        let dirty = self
            .counter_cache
            .peek(caddr)
            .filter(|e| e.dirty)
            .map(|e| e.value);
        let Some(ctrs) = dirty else {
            return Ok(false);
        };
        self.write_counters_to_nvm(page, &ctrs, Cycles::ZERO)?;
        if let Some(e) = self.counter_cache.get(caddr) {
            e.dirty = false;
        }
        Ok(true)
    }

    /// Drops `page`'s counter line from the cache *without* writeback —
    /// a transient counter-cache cell fault. Returns whether the line was
    /// present. The next access re-fetches (and Merkle-verifies) the
    /// NVM copy.
    pub(crate) fn drop_counter_cache_line(&mut self, page: PageId) -> bool {
        let caddr = self.counter_addr(page);
        self.counter_cache.invalidate(caddr).is_some()
    }

    /// Flips one stored bit of the *data* line at `addr` (NVM cell
    /// disturb fault), following any wear-levelling remap.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub(crate) fn flip_data_bit(&mut self, addr: BlockAddr, bit: usize) {
        let dev = self.heal.redirect(self.device_addr(addr));
        self.nvm.flip_bit(dev, bit);
    }

    /// Flips one stored bit of `page`'s counter line in NVM. With
    /// integrity enabled the next uncached fetch must fail Merkle
    /// verification.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub(crate) fn flip_counter_bit(&mut self, page: PageId, bit: usize) {
        let caddr = self.counter_addr(page);
        self.nvm.flip_bit(caddr, bit);
    }

    // ------------------------------------------------------------------
    // Healing surfaces (fault injection + observability).
    // ------------------------------------------------------------------

    /// Injects a one-shot transient read error of `flips` raw bit flips
    /// into the device slot currently backing logical line `addr`
    /// (consumed by the next read attempt of that slot).
    pub(crate) fn inject_data_read_error(&mut self, addr: BlockAddr, flips: u32) {
        let slot = self.heal.redirect(self.device_addr(addr));
        self.nvm.inject_read_error(slot, flips);
    }

    /// Clears a pending injected read error on the slot backing `addr`;
    /// returns whether one was armed (i.e. no read consumed it).
    pub(crate) fn clear_injected_read_error(&mut self, addr: BlockAddr) -> bool {
        let slot = self.heal.redirect(self.device_addr(addr));
        self.nvm.clear_injected_error(slot)
    }

    /// Marks the slot backing `addr` permanently failed with
    /// `weak_bits` stuck weak cells (wear-out / stuck-at fault model).
    pub(crate) fn force_line_failure(&mut self, addr: BlockAddr, weak_bits: u32) {
        let slot = self.heal.redirect(self.device_addr(addr));
        self.nvm.fail_line(slot, weak_bits);
    }

    /// Number of data lines currently remapped into the spare pool.
    pub(crate) fn remapped_lines(&self) -> u64 {
        self.heal.remapped_count()
    }

    /// Number of data lines currently quarantined.
    pub(crate) fn quarantined_lines(&self) -> u64 {
        self.heal.quarantined_count()
    }

    /// Spare lines still available for remapping.
    pub(crate) fn spare_lines_free(&self) -> u64 {
        self.heal.free()
    }

    /// Whether the logical line at `addr` is quarantined.
    pub(crate) fn is_line_quarantined(&self, addr: BlockAddr) -> bool {
        self.heal.is_quarantined(self.device_addr(addr))
    }
}

/// Builds the write queue for a configuration, if enabled. Fallible
/// because [`WriteQueue::new`] is: `ControllerConfig::validate` has
/// already vetted the watermarks by the time this runs, so the error
/// arm is unreachable in practice but typed rather than a panic.
fn config_wqueue(config: &ControllerConfig) -> Result<Option<WriteQueue>> {
    config.write_queue.map(WriteQueue::new).transpose()
}

/// Builds the Start-Gap remapper for a configuration, if enabled.
fn config_start_gap(config: &ControllerConfig) -> Option<StartGap> {
    config.wear_leveling.then(|| {
        StartGap::new(
            config.data_capacity / LINE_SIZE as u64,
            config.start_gap_interval,
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ShredStrategy;

    fn mc() -> MemoryController {
        MemoryController::new(ControllerConfig::small_test()).unwrap()
    }

    fn line(v: u8) -> Line {
        [v; LINE_SIZE]
    }

    #[test]
    fn write_then_read_roundtrip() {
        let mut m = mc();
        let addr = PageId::new(1).block_addr(2);
        m.write_block(addr, &line(0x7E), false, Cycles::ZERO)
            .unwrap();
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x7E));
        assert!(!r.zero_filled);
    }

    #[test]
    fn data_is_ciphertext_in_nvm() {
        let mut m = mc();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(0x11), false, Cycles::ZERO)
            .unwrap();
        assert_ne!(m.nvm().peek(addr), line(0x11), "plaintext leaked to NVM");
    }

    #[test]
    fn fresh_page_reads_zero_filled() {
        let mut m = mc();
        let r = m
            .read_block(PageId::new(5).block_addr(9), Cycles::ZERO)
            .unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
        assert_eq!(m.stats().mem.reads.get(), 0, "array untouched");
        assert_eq!(m.stats().mem.zero_fill_reads.get(), 1);
    }

    #[test]
    fn shred_zero_fills_and_writes_nothing() {
        let mut m = mc();
        let page = PageId::new(2);
        for b in 0..4 {
            m.write_block(page.block_addr(b), &line(b as u8 + 1), false, Cycles::ZERO)
                .unwrap();
        }
        let writes_before = m.stats().mem.writes.get();
        m.shred_page(page, true).unwrap();
        assert_eq!(
            m.stats().mem.writes.get(),
            writes_before,
            "shred wrote data"
        );
        assert_eq!(m.stats().shreds.get(), 1);
        for b in 0..4 {
            let r = m.read_block(page.block_addr(b), Cycles::ZERO).unwrap();
            assert!(r.zero_filled);
            assert_eq!(r.data, [0u8; LINE_SIZE]);
        }
    }

    #[test]
    fn shred_makes_old_ciphertext_unintelligible() {
        let mut m = MemoryController::new(ControllerConfig {
            shred_strategy: ShredStrategy::MajorBumpOnly,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let page = PageId::new(3);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x55), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        // Major bumped, minors kept: a read decrypts with the wrong IV.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(!r.zero_filled, "option 2 cannot zero-fill");
        assert_ne!(r.data, line(0x55), "old plaintext recovered after shred");
        assert_ne!(
            r.data, [0u8; LINE_SIZE],
            "option 2 returns garbage, not zeros"
        );
    }

    #[test]
    fn user_mode_shred_faults() {
        let mut m = mc();
        let err = m.shred_page(PageId::new(0), false).unwrap_err();
        assert!(matches!(err, Error::PrivilegeViolation { .. }));
        assert_eq!(m.stats().shred_denied.get(), 1);
    }

    #[test]
    fn mmio_shred_path() {
        let mut m = mc();
        let page = PageId::new(4);
        m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        m.mmio_write(mmio::SHRED_REG, page.base_addr().raw(), true, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.stats().shreds.get(), 1);
        assert!(
            m.read_block(page.block_addr(0), Cycles::ZERO)
                .unwrap()
                .zero_filled
        );
        // Unknown register: benign.
        assert!(m
            .mmio_write(PhysAddr::new(0xF000), 0, true, Cycles::ZERO)
            .is_ok());
        // User-mode MMIO write: exception.
        assert!(m
            .mmio_write(mmio::SHRED_REG, 0, false, Cycles::ZERO)
            .is_err());
    }

    #[test]
    fn shredder_disabled_rejects_shred() {
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 1 << 20,
            counter_cache_bytes: 16 << 10,
            ..ControllerConfig::encrypted_baseline()
        })
        .unwrap();
        assert!(m.shred_page(PageId::new(0), true).is_err());
    }

    #[test]
    fn baseline_fresh_read_is_not_zero_filled() {
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 1 << 20,
            counter_cache_bytes: 16 << 10,
            ..ControllerConfig::encrypted_baseline()
        })
        .unwrap();
        let r = m
            .read_block(PageId::new(1).block_addr(0), Cycles::ZERO)
            .unwrap();
        assert!(!r.zero_filled);
        assert_eq!(m.stats().mem.reads.get(), 1);
    }

    #[test]
    fn zero_fill_read_is_faster_than_array_read() {
        let mut m = mc();
        // Warm the counter cache: the first access pays a counter fetch.
        m.read_block(PageId::new(7).block_addr(1), Cycles::ZERO)
            .unwrap();
        let fresh = m
            .read_block(PageId::new(7).block_addr(0), Cycles::ZERO)
            .unwrap();
        let addr = PageId::new(8).block_addr(0);
        m.write_block(addr, &line(1), false, Cycles::ZERO).unwrap();
        let real = m.read_block(addr, Cycles::new(100_000)).unwrap();
        assert!(
            fresh.latency.raw() * 3 < real.latency.raw(),
            "zero-fill {} vs array {}",
            fresh.latency,
            real.latency
        );
    }

    #[test]
    fn minor_overflow_triggers_reencryption() {
        let mut m = mc();
        let page = PageId::new(9);
        let addr = page.block_addr(0);
        m.write_block(page.block_addr(1), &line(0xEE), false, Cycles::ZERO)
            .unwrap();
        for i in 0..128 {
            m.write_block(addr, &line(i as u8), false, Cycles::ZERO)
                .unwrap();
        }
        assert_eq!(m.stats().reencryptions.get(), 1);
        // Both blocks still readable after re-encryption.
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(127));
        assert_eq!(
            m.read_block(page.block_addr(1), Cycles::ZERO).unwrap().data,
            line(0xEE)
        );
    }

    #[test]
    fn counter_tamper_detected_after_cache_drop() {
        let mut m = mc();
        let page = PageId::new(1);
        m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        m.flush_counters().unwrap();
        m.tamper_counter_line(page, line(0xAD));
        m.drop_counter_cache();
        let err = m.read_block(page.block_addr(0), Cycles::ZERO).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation { .. }));
    }

    #[test]
    fn recovery_names_the_tampered_counter_page() {
        let mut m = mc();
        for p in [2, 5] {
            m.write_block(PageId::new(p).block_addr(0), &line(1), false, Cycles::ZERO)
                .unwrap();
        }
        m.power_loss().unwrap();
        m.tamper_counter_line(PageId::new(5), line(0xAD));
        let err = m.recover_mut().unwrap_err();
        assert!(
            err.to_string()
                .contains("counter line of page 5 does not match the Merkle tree"),
            "{err}"
        );
    }

    #[test]
    fn battery_backed_counters_survive_power_loss() {
        let mut m = mc();
        let page = PageId::new(2);
        m.write_block(page.block_addr(3), &line(0x3C), false, Cycles::ZERO)
            .unwrap();
        m.power_loss().unwrap();
        m.recover().unwrap();
        assert_eq!(
            m.read_block(page.block_addr(3), Cycles::ZERO).unwrap().data,
            line(0x3C)
        );
    }

    #[test]
    fn volatile_counters_lost_on_crash() {
        let mut m = MemoryController::new(ControllerConfig {
            counter_persistence: CounterPersistence::VolatileWriteBack,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        m.write_block(PageId::new(1).block_addr(0), &line(9), false, Cycles::ZERO)
            .unwrap();
        m.power_loss().unwrap();
        assert!(matches!(m.recover(), Err(Error::CounterLoss)));
    }

    #[test]
    fn write_through_counters_survive_crash() {
        let mut m = MemoryController::new(ControllerConfig {
            counter_persistence: CounterPersistence::WriteThrough,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(9), false, Cycles::ZERO).unwrap();
        m.power_loss().unwrap();
        m.recover().unwrap();
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(9));
    }

    #[test]
    fn zeroing_writes_classified() {
        let mut m = mc();
        m.write_block(PageId::new(0).block_addr(0), &line(0), true, Cycles::ZERO)
            .unwrap();
        m.write_block(PageId::new(0).block_addr(1), &line(1), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.stats().mem.zeroing_writes.get(), 1);
        assert_eq!(m.stats().mem.writes.get(), 2);
    }

    #[test]
    fn out_of_range_data_access_rejected() {
        let mut m = mc();
        let oob = BlockAddr::new(1 << 20);
        assert!(m.read_block(oob, Cycles::ZERO).is_err());
        assert!(m.write_block(oob, &line(0), false, Cycles::ZERO).is_err());
        assert!(m.shred_page(PageId::new(256), true).is_err());
    }

    #[test]
    fn deuce_roundtrip_and_reduced_flips() {
        let mut m = MemoryController::new(ControllerConfig {
            deuce: true,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let addr = PageId::new(1).block_addr(0);
        let mut data = line(0x10);
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        let cipher_before = m.nvm().peek(addr);
        // Modify a single chunk and rewrite.
        data[0] ^= 0xFF;
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        let cipher_after = m.nvm().peek(addr);
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, data);
        // Chunks 1..4 ciphertext unchanged (DEUCE property).
        assert_eq!(cipher_before[16..], cipher_after[16..]);
        assert_ne!(cipher_before[..16], cipher_after[..16]);
    }

    #[test]
    fn deuce_survives_shred() {
        let mut m = MemoryController::new(ControllerConfig {
            deuce: true,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let page = PageId::new(1);
        let addr = page.block_addr(0);
        let mut data = line(0x20);
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        data[5] = 0;
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        m.shred_page(page, true).unwrap();
        assert!(m.read_block(addr, Cycles::ZERO).unwrap().zero_filled);
        m.write_block(addr, &line(0x30), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x30));
    }

    #[test]
    fn deuce_many_rewrites_stay_consistent() {
        let mut m = MemoryController::new(ControllerConfig {
            deuce: true,
            deuce_epoch: 4,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let addr = PageId::new(2).block_addr(7);
        let mut rng = ss_common::DetRng::new(5);
        let mut data = line(0);
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        for _ in 0..300 {
            // Mutate a random byte (often leaving some chunks unchanged).
            let i = rng.below(LINE_SIZE as u64) as usize;
            data[i] = rng.next_u64() as u8;
            m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
            assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, data);
        }
    }

    #[test]
    fn plain_controller_leaks_plaintext() {
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 1 << 20,
            ..ControllerConfig::plain()
        })
        .unwrap();
        let addr = PageId::new(0).block_addr(0);
        m.write_block(addr, &line(0x77), false, Cycles::ZERO)
            .unwrap();
        let scan = m.cold_scan_data();
        assert!(
            scan.iter().any(|(_, l)| *l == line(0x77)),
            "remanence attack failed?!"
        );
    }

    #[test]
    fn ecb_controller_roundtrips_but_leaks_equality() {
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 1 << 20,
            protection: ProtectionMode::Ecb,
            shredder: false,
            integrity: false,
            ..ControllerConfig::default()
        })
        .unwrap();
        let a0 = PageId::new(0).block_addr(0);
        let a1 = PageId::new(0).block_addr(1);
        m.write_block(a0, &line(0x44), false, Cycles::ZERO).unwrap();
        m.write_block(a1, &line(0x44), false, Cycles::ZERO).unwrap();
        assert_eq!(m.read_block(a0, Cycles::ZERO).unwrap().data, line(0x44));
        assert_eq!(m.nvm().peek(a0), m.nvm().peek(a1), "ECB hides equality?");
        assert_ne!(m.nvm().peek(a0), line(0x44));
    }

    #[test]
    fn fence_waits_for_posted_writes() {
        let mut m = mc();
        assert_eq!(m.fence(Cycles::ZERO), Cycles::ZERO);
        m.write_block(PageId::new(0).block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        assert!(m.fence(Cycles::ZERO) > Cycles::ZERO);
        assert_eq!(m.fence(Cycles::new(1_000_000)), Cycles::ZERO);
    }

    #[test]
    fn huge_page_shreds_as_4k_run() {
        // §5: a 2 MiB huge page is shredded with 512 per-4KiB commands.
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 4 << 20,
            counter_cache_bytes: 64 << 10,
            ..ControllerConfig::default()
        })
        .unwrap();
        let first = PageId::new(16);
        let count = 512u64;
        for i in (0..count).step_by(37) {
            m.write_block(
                PageId::new(16 + i).block_addr(0),
                &line(9),
                false,
                Cycles::ZERO,
            )
            .unwrap();
        }
        let writes_before = m.stats().mem.writes.get();
        let lat = m.shred_page_run(first, count, true, Cycles::ZERO).unwrap();
        assert_eq!(m.stats().shreds.get(), count);
        assert_eq!(
            m.stats().mem.writes.get(),
            writes_before,
            "huge shred wrote data"
        );
        assert!(lat.raw() > 0);
        for i in [0u64, 100, 511] {
            let r = m
                .read_block(PageId::new(16 + i).block_addr(0), Cycles::ZERO)
                .unwrap();
            assert!(r.zero_filled);
        }
        // User mode still faults on the first command.
        assert!(m.shred_page_run(first, 2, false, Cycles::ZERO).is_err());
    }

    #[test]
    fn wear_leveling_preserves_contents_and_spreads_writes() {
        // A tiny data region (8 pages = 512 lines) with a gap move per
        // write, so the gap completes rotations within the test.
        let mut m = MemoryController::new(ControllerConfig {
            data_capacity: 32 << 10,
            counter_cache_bytes: 16 << 10,
            wear_leveling: true,
            start_gap_interval: 1,
            ..ControllerConfig::default()
        })
        .unwrap();
        // Write several blocks, hammer one of them, and verify everything
        // still reads back correctly through the rotating mapping.
        let pages: Vec<PageId> = (1..6).map(PageId::new).collect();
        for (i, p) in pages.iter().enumerate() {
            m.write_block(p.block_addr(0), &line(i as u8 + 1), false, Cycles::ZERO)
                .unwrap();
        }
        let hot = pages[0].block_addr(1);
        let hammer = 1200u64;
        for i in 0..hammer {
            m.write_block(hot, &line(i as u8), false, Cycles::ZERO)
                .unwrap();
            assert_eq!(m.read_block(hot, Cycles::ZERO).unwrap().data, line(i as u8));
        }
        for (i, p) in pages.iter().enumerate() {
            assert_eq!(
                m.read_block(p.block_addr(0), Cycles::ZERO).unwrap().data,
                line(i as u8 + 1),
                "block {i} corrupted by gap movement"
            );
        }
        // The hot logical line migrated across device slots as the gap
        // rotated past it, so no single device line absorbed all writes.
        let max = m.nvm().wear().max_wear().map(|(_, n)| n).unwrap_or(0);
        assert!(max < hammer, "wear not levelled: max {max} of {hammer}");
    }

    #[test]
    fn wear_leveling_shred_still_zero_fills() {
        let mut m = MemoryController::new(ControllerConfig {
            wear_leveling: true,
            start_gap_interval: 4,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let page = PageId::new(2);
        for b in 0..8 {
            m.write_block(page.block_addr(b), &line(7), false, Cycles::ZERO)
                .unwrap();
        }
        m.shred_page(page, true).unwrap();
        for b in 0..8 {
            assert!(
                m.read_block(page.block_addr(b), Cycles::ZERO)
                    .unwrap()
                    .zero_filled
            );
        }
    }

    #[test]
    fn enclave_dealloc_shreds_without_kernel_mode() {
        let mut m = mc();
        let page = PageId::new(4);
        m.write_block(page.block_addr(0), &line(0x6A), false, Cycles::ZERO)
            .unwrap();
        m.enclave_register(page).unwrap();
        assert!(m.is_enclave_page(page));
        // The hardware path shreds without the OS privilege check.
        m.enclave_dealloc(page, Cycles::ZERO).unwrap();
        assert!(!m.is_enclave_page(page));
        assert!(
            m.read_block(page.block_addr(0), Cycles::ZERO)
                .unwrap()
                .zero_filled
        );
        // A second dealloc (or one for an unregistered page) is rejected.
        assert!(matches!(
            m.enclave_dealloc(page, Cycles::ZERO),
            Err(Error::PageNotOwned { .. })
        ));
        // Registration validates the address range.
        assert!(m.enclave_register(PageId::new(1 << 20)).is_err());
    }

    fn mc_wq() -> MemoryController {
        MemoryController::new(ControllerConfig {
            write_queue: Some(crate::wqueue::WriteQueueConfig {
                capacity: 16,
                drain_low: 2,
                drain_high: 8,
            }),
            ..ControllerConfig::small_test()
        })
        .unwrap()
    }

    #[test]
    fn write_queue_forwards_reads() {
        let mut m = mc_wq();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(0x3A), false, Cycles::ZERO)
            .unwrap();
        // The write sits in the queue; the device has no ciphertext yet.
        assert_eq!(m.nvm().peek(addr), [0u8; LINE_SIZE]);
        // Reads still observe the new value (forwarding).
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x3A));
        assert_eq!(m.write_queue_stats().unwrap().forwards.get(), 1);
    }

    #[test]
    fn write_queue_high_water_drains_in_bursts() {
        let mut m = mc_wq();
        for i in 0..8u64 {
            m.write_block(
                PageId::new(1).block_addr(i as usize),
                &line(i as u8),
                false,
                Cycles::ZERO,
            )
            .unwrap();
        }
        let stats = m.write_queue_stats().unwrap();
        assert_eq!(stats.high_water_drains.get(), 1);
        assert_eq!(stats.drained.get(), 6, "drained to the low mark");
        // Everything still reads correctly (mixed drained/queued).
        for i in 0..8u64 {
            assert_eq!(
                m.read_block(PageId::new(1).block_addr(i as usize), Cycles::ZERO)
                    .unwrap()
                    .data,
                line(i as u8)
            );
        }
    }

    #[test]
    fn write_queue_fence_drain_persists_everything() {
        let mut m = mc_wq();
        let addr = PageId::new(2).block_addr(3);
        m.write_block(addr, &line(0x44), false, Cycles::ZERO)
            .unwrap();
        m.fence_drain(Cycles::ZERO).unwrap();
        assert_ne!(m.nvm().peek(addr), [0u8; LINE_SIZE], "queue not drained");
        // And power loss after a crash keeps the data (ADR domain).
        m.write_block(addr, &line(0x45), false, Cycles::ZERO)
            .unwrap();
        m.power_loss().unwrap();
        m.recover().unwrap();
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x45));
    }

    #[test]
    fn write_queue_coalesces_rewrites() {
        let mut m = mc_wq();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(1), false, Cycles::ZERO).unwrap();
        m.write_block(addr, &line(2), false, Cycles::ZERO).unwrap();
        assert_eq!(m.write_queue_stats().unwrap().coalesced.get(), 1);
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(2));
    }

    #[test]
    fn write_queue_shred_and_reencrypt_stay_consistent() {
        let mut m = mc_wq();
        let page = PageId::new(3);
        for b in 0..4 {
            m.write_block(page.block_addr(b), &line(9), false, Cycles::ZERO)
                .unwrap();
        }
        m.shred_page(page, true).unwrap();
        for b in 0..4 {
            assert!(
                m.read_block(page.block_addr(b), Cycles::ZERO)
                    .unwrap()
                    .zero_filled
            );
        }
        // Minor overflow with queued writes: drain-before-reencrypt.
        let addr = page.block_addr(0);
        for i in 0..130u64 {
            m.write_block(addr, &line(i as u8), false, Cycles::ZERO)
                .unwrap();
        }
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(129));
    }

    #[test]
    fn stats_reset_keeps_state() {
        let mut m = mc();
        let addr = PageId::new(1).block_addr(1);
        m.write_block(addr, &line(6), false, Cycles::ZERO).unwrap();
        m.reset_stats();
        assert_eq!(m.stats().mem.writes.get(), 0);
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(6));
    }

    // ------------------------------------------------------------------
    // Self-healing path.
    // ------------------------------------------------------------------

    #[test]
    fn transient_error_recovered_by_retry() {
        let mut m = mc();
        let addr = PageId::new(1).block_addr(3);
        m.write_block(addr, &line(0x5A), false, Cycles::ZERO)
            .unwrap();
        // 2 flips: beyond SECDED correction, within detection — the
        // first read fails, the retry sees a clean line.
        m.inject_data_read_error(addr, 2);
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x5A));
        assert_eq!(m.stats().health.retries.get(), 1);
        assert_eq!(m.stats().health.retried_ok.get(), 1);
        assert!(m.stats().health.backoff_cycles > 0);
        assert_eq!(m.remapped_lines(), 0, "transients must not remap");
    }

    #[test]
    fn single_flip_corrected_inline() {
        let mut m = mc();
        let addr = PageId::new(2).block_addr(0);
        m.write_block(addr, &line(0x33), false, Cycles::ZERO)
            .unwrap();
        m.inject_data_read_error(addr, 1);
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x33));
        assert_eq!(m.stats().health.ecc_corrected.get(), 1);
        assert_eq!(m.stats().health.retries.get(), 0);
    }

    #[test]
    fn weak_line_remapped_and_data_survives() {
        let mut m = mc();
        let addr = PageId::new(3).block_addr(7);
        m.write_block(addr, &line(0xC4), false, Cycles::ZERO)
            .unwrap();
        m.force_line_failure(addr, 1);
        // The demand read is ECC-corrected, then the line is rescued to
        // a spare under a fresh IV at operation end.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0xC4));
        assert_eq!(m.stats().health.remaps.get(), 1);
        assert_eq!(m.remapped_lines(), 1);
        // Demand read + rescue read were each corrected once; reads from
        // the (healthy) spare need no further correction.
        let corrected_after_remap = m.stats().health.ecc_corrected.get();
        let again = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(again.data, line(0xC4));
        assert_eq!(
            m.stats().health.ecc_corrected.get(),
            corrected_after_remap,
            "spare is clean"
        );
        // And writes/reads keep round-tripping through the spare.
        m.write_block(addr, &line(0xD1), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0xD1));
    }

    #[test]
    fn exhausted_pool_quarantines_loudly() {
        let mut m = MemoryController::new(ControllerConfig {
            spare_lines: 0,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(0xEE), false, Cycles::ZERO)
            .unwrap();
        m.force_line_failure(addr, 1);
        // Rescue read still works, but the remap fails: quarantine.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0xEE));
        assert_eq!(m.stats().health.remap_failures.get(), 1);
        assert_eq!(m.quarantined_lines(), 1);
        assert!(m.is_line_quarantined(addr));
        match m.read_block(addr, Cycles::ZERO) {
            Err(Error::Quarantined { .. }) => {}
            other => panic!("expected Quarantined, got {other:?}"),
        }
    }

    #[test]
    fn full_line_write_revives_quarantined_line() {
        let mut m = MemoryController::new(ControllerConfig {
            spare_lines: 1,
            ..ControllerConfig::small_test()
        })
        .unwrap();
        let addr = PageId::new(2).block_addr(5);
        m.write_block(addr, &line(0x17), false, Cycles::ZERO)
            .unwrap();
        // 2 weak bits: permanently uncorrectable, straight to quarantine.
        m.force_line_failure(addr, 2);
        assert!(m.read_block(addr, Cycles::ZERO).is_err());
        assert_eq!(m.quarantined_lines(), 1);
        // A full-line write carries everything a spare needs.
        m.write_block(addr, &line(0x18), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.quarantined_lines(), 0);
        assert_eq!(m.remapped_lines(), 1);
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x18));
    }

    #[test]
    fn shredded_line_remap_preserves_zero_fill() {
        let mut m = mc();
        let page = PageId::new(0);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x77), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        m.force_line_failure(addr, 1);
        // The demand path never touches a shredded line's array slot, so
        // the scrubber is what finds the wear-out (cursor starts at 0).
        let healed = m.scrub_step(Cycles::ZERO).unwrap();
        assert!(healed);
        assert_eq!(m.stats().health.remaps.get(), 1);
        // Shredding semantics survive healing: still zero-filled, the
        // minor counter was NOT bumped by the remap.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
    }

    #[test]
    fn scrubber_runs_on_write_idle_cycles() {
        let mut m = MemoryController::new(ControllerConfig {
            scrub_interval: Some(4),
            ..ControllerConfig::small_test()
        })
        .unwrap();
        for i in 0..12u64 {
            m.write_block(
                PageId::new(1).block_addr((i % 8) as usize),
                &line(i as u8),
                false,
                Cycles::ZERO,
            )
            .unwrap();
        }
        assert_eq!(m.stats().health.scrub_reads.get(), 3);
    }

    // --------------------------------------------------------------
    // Scattered two-share mode.
    // --------------------------------------------------------------

    fn scattered() -> MemoryController {
        let cfg = crate::config::ControllerConfigBuilder::scattered()
            .data_capacity(1 << 20)
            .counter_cache_bytes(16 << 10)
            .build()
            .unwrap();
        MemoryController::new(cfg).unwrap()
    }

    #[test]
    fn scattered_write_then_read_roundtrip() {
        let mut m = scattered();
        let addr = PageId::new(1).block_addr(2);
        m.write_block(addr, &line(0x7E), false, Cycles::ZERO)
            .unwrap();
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x7E));
        assert!(!r.zero_filled);
        assert_eq!(m.stats().prot.share_writes.get(), 1);
        assert_eq!(m.stats().prot.recombines.get(), 1);
    }

    #[test]
    fn scattered_fresh_page_reads_zero_filled() {
        let mut m = scattered();
        let r = m
            .read_block(PageId::new(5).block_addr(9), Cycles::ZERO)
            .unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
        assert_eq!(m.stats().mem.reads.get(), 0, "array untouched");
    }

    #[test]
    fn scattered_neither_region_holds_plaintext() {
        let mut m = scattered();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(0x11), false, Cycles::ZERO)
            .unwrap();
        let share_a = m.nvm().peek(addr);
        let share_b = m.nvm().peek(m.mask_addr(addr));
        assert_ne!(share_a, line(0x11), "plaintext leaked to data region");
        assert_ne!(share_b, line(0x11), "plaintext leaked to mask region");
        assert_eq!(
            ss_crypto::share::recombine_shares(&share_a, &share_b),
            line(0x11)
        );
    }

    #[test]
    fn scattered_shred_reads_zero_and_destroys_pairing() {
        let mut m = scattered();
        let page = PageId::new(2);
        for b in 0..4 {
            m.write_block(page.block_addr(b), &line(b as u8 + 1), false, Cycles::ZERO)
                .unwrap();
        }
        let writes_before = m.stats().mem.writes.get();
        m.shred_page(page, true).unwrap();
        // No *data-region* writes: the mask region absorbed the discard.
        assert_eq!(m.stats().mem.writes.get(), writes_before);
        assert_eq!(m.stats().prot.mask_discards.get(), 4);
        for b in 0..4 {
            let addr = page.block_addr(b);
            let r = m.read_block(addr, Cycles::ZERO).unwrap();
            assert!(r.zero_filled);
            assert_eq!(r.data, [0u8; LINE_SIZE]);
            // Even recombining the surviving regions yields noise now.
            let residue = ss_crypto::share::recombine_shares(
                &m.nvm().peek(addr),
                &m.nvm().peek(m.mask_addr(addr)),
            );
            assert_ne!(
                residue,
                line(b as u8 + 1),
                "shred left recombinable residue"
            );
        }
    }

    #[test]
    fn scattered_shred_survives_power_loss_and_recovery() {
        let mut m = scattered();
        let page = PageId::new(3);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x55), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        m.power_loss().unwrap();
        let report = m.recover_mut().unwrap();
        assert!(report.root_verified);
        assert_eq!(report.shredded_pages, 1);
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
    }

    #[test]
    fn scattered_shred_then_heal_uses_fresh_shares() {
        let mut m = scattered();
        let page = PageId::new(4);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x66), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        // Rewrite after the shred, then degrade the backing slot: the
        // rescue must move a fresh share pair, not resurrect anything.
        m.write_block(addr, &line(0x77), false, Cycles::ZERO)
            .unwrap();
        let share_before = m.nvm().peek(addr);
        m.force_line_failure(addr, 1);
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x77));
        assert_eq!(m.stats().health.remaps.get(), 1);
        assert_eq!(m.stats().prot.fresh_share_rescues.get(), 1);
        // Readable from the spare, and under a brand-new pad.
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x77));
        let rescued_slot = m.heal.redirect(addr);
        assert_ne!(m.nvm().peek(rescued_slot), share_before, "pad was reused");
    }

    #[test]
    fn scattered_rescue_of_dead_block_stays_dead() {
        let mut m = scattered();
        let page = PageId::new(6);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x42), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        m.force_line_failure(addr, 1);
        // Scrub finds the worn slot; the dead block is retired without
        // resurrecting content.
        while m.heal.redirect(addr) == addr {
            if m.scrub_step(Cycles::ZERO).unwrap() {
                break;
            }
        }
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled);
        assert_eq!(m.stats().prot.fresh_share_rescues.get(), 0);
    }

    #[test]
    fn scattered_liveness_tamper_detected() {
        let mut m = scattered();
        let page = PageId::new(1);
        m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        m.flush_counters().unwrap();
        m.tamper_counter_line(page, line(0xAD));
        m.drop_counter_cache();
        let err = m.read_block(page.block_addr(0), Cycles::ZERO).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation { .. }));
    }

    #[test]
    fn scattered_share_stream_is_deterministic() {
        let mk = || {
            let mut m = scattered();
            m.write_block(
                PageId::new(1).block_addr(0),
                &line(0x5A),
                false,
                Cycles::ZERO,
            )
            .unwrap();
            m.nvm().peek(PageId::new(1).block_addr(0))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn scattered_metrics_expose_prot_keys() {
        let mut m = scattered();
        m.write_block(PageId::new(0).block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        let reg = m.metrics();
        let json = reg.to_json();
        assert!(json.contains("\"prot.share_writes\":1"), "{json}");
        // 256 liveness lines + 16384 mask lines for 1 MiB of data.
        assert!(json.contains("\"prot.metadata_lines\":16640"), "{json}");
        // Counter mode must NOT grow the schema.
        let cm = mc().metrics().to_json();
        assert!(!cm.contains("prot."), "{cm}");
    }
}
