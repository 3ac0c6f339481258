//! The secure NVMM controller (Fig. 6 and Fig. 7 of the paper).
//!
//! This file holds what every protection mode shares: construction, the
//! persist choke point and its ordering journal, the counter cache,
//! healing, the channels, and the one `match` per operation that picks a
//! mode's path. The paths live in child modules that own their state:
//! `counter_mode` (the paper's `Ctr` mode, the direct `Plain`/`Ecb`
//! baselines, DEUCE and page re-encryption), `scattered` (the two-share
//! mode) and `ports` (the [`crate::Inspect`] and [`crate::FaultPort`]
//! views).

use std::collections::BTreeSet;

use ss_cache::{CacheConfig, SetAssocCache};
use ss_common::{
    BlockAddr, Counter, Cycles, Error, MemStats, Nanos, PageId, PhysAddr, Result, BLOCKS_PER_PAGE,
    LINE_SIZE,
};
use ss_crypto::{Line, MerkleTree};
use ss_nvm::{LineRead, NvmConfig, NvmDevice, NvmTiming, StartGap};
use ss_trace::{Stage, StageProfile, TraceEvent, Tracer};

use crate::channel::ChannelSched;
use crate::config::{ControllerConfig, CounterPersistence, PersistDomain, ProtectionMode};
use crate::counters::CounterBlock;
use crate::heal::{retry_backoff, HealthStats, SparePool, MAX_RETRIES};
use crate::mmio;
use crate::persist::{self, EntryKind, JournalEntry, PersistState, RecoveryReport, SeqTag};
use crate::wqueue::WriteQueue;

mod counter_mode;
pub(crate) mod ports;
mod scattered;

use counter_mode::CounterMode;
pub use scattered::ProtStats;
use scattered::Shares;

/// Counter-cache associativity (Table 1: 8-way).
pub const COUNTER_CACHE_WAYS: usize = 8;

/// Counter-cache hit latency (Table 1: 10 cycles).
pub const COUNTER_CACHE_LATENCY: Cycles = Cycles::new(10);

/// Latency of the pad XOR on the read critical path: counter mode hides
/// pad generation behind the array access (the old configurable
/// default).
const XOR_LATENCY: Cycles = Cycles::new(2);

/// NVM array timing (Table 1: 75 ns reads, 150 ns writes, two channels
/// of 12.8 GB/s).
pub const NVM_TIMING: NvmTiming = NvmTiming {
    read: Nanos::new(75),
    write: Nanos::new(150),
    channels: 2,
    channel_mbps: 12_800,
};

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

/// The memory controller. See the crate docs for the mechanism overview.
#[derive(Debug)]
pub struct MemoryController {
    config: ControllerConfig,
    nvm: NvmDevice,
    counter_cache: SetAssocCache<CounterBlock>,
    merkle: Option<MerkleTree>,
    channels: ChannelSched,
    stats: ControllerStats,
    /// NVM byte offset where the counter region begins.
    counter_base: u64,
    /// Start-Gap remapper over the data lines (when wear levelling on).
    start_gap: Option<StartGap>,
    /// Pages owned by secure enclaves (§4.1): their deallocation shred is
    /// triggered by hardware, not the (possibly untrusted) OS.
    enclave_pages: BTreeSet<u64>,
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
    /// The AES engines and DEUCE chunk state of the encrypted modes.
    cipher: CounterMode,
    /// The scattered mode's mask region and share stream.
    shares: Shares,
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
            timing: NVM_TIMING,
            endurance_limit: config.endurance_limit,
            ecc: config.nvm_ecc,
            transient_read_ber: config.transient_read_ber,
            fault_seed: config.nvm_fault_seed,
            ..NvmConfig::default()
        });
        let counter_cache = SetAssocCache::new(CacheConfig::new(
            "counter",
            config.counter_cache_bytes,
            COUNTER_CACHE_WAYS,
            COUNTER_CACHE_LATENCY,
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
        let channels = ChannelSched::new(&NVM_TIMING);
        let start_gap = config_start_gap(&config);
        let wqueue = config_wqueue(&config)?;
        let config_spare_lines = config.spare_lines;
        let tracer = Tracer::from_depth(config.trace_depth);
        let cipher = CounterMode::new(config.key);
        let shares = Shares::new(&config, mask_base);
        Ok(MemoryController {
            config,
            nvm,
            counter_cache,
            merkle,
            channels,
            stats: ControllerStats::default(),
            counter_base,
            start_gap,
            enclave_pages: BTreeSet::new(),
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
            cipher,
            shares,
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

    /// Device address of journal ring line `idx`.
    fn journal_line_addr(&self, idx: u64) -> BlockAddr {
        BlockAddr::new(self.journal_base + idx * LINE_SIZE as u64)
    }

    /// Opens a persist sequence (nested calls join the outermost one).
    /// Nothing reaches NVM until its first journal record, which opens
    /// it there — an operation that journals nothing leaves no trace.
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
    /// without a fired cut and the sequence journaled anything, its
    /// commit record is appended; after a cut the sequence is
    /// deliberately left without one for recovery to find.
    fn seq_end(&mut self) -> Result<()> {
        if !self.adr() {
            return Ok(());
        }
        self.persist.depth = self.persist.depth.saturating_sub(1);
        if self.persist.depth > 0 {
            return Ok(());
        }
        let tag = self.persist.tag.map_or(0, SeqTag::raw);
        self.persist.end_operation();
        if self.persist.cut_fired || !self.persist.is_open() {
            return Ok(());
        }
        self.commit_sequence(self.persist.next_seq, tag)
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

    /// Appends one entry record to the open sequence; the first one
    /// opens it on NVM.
    fn journal_write_entry(&mut self, entry: &JournalEntry) -> Result<()> {
        if self.persist.entry_count >= persist::JOURNAL_MAX_ENTRIES {
            return Err(Error::InvalidConfig {
                detail: format!(
                    "ordering journal overflow: one persist sequence exceeded {} entries",
                    persist::JOURNAL_MAX_ENTRIES
                ),
            });
        }
        let tag = self.persist.tag.map_or(0, SeqTag::raw);
        self.write_record(self.persist.next_seq, tag, Some(*entry))?;
        self.persist.entry_count += 1;
        self.persist.journaled.push(entry.target.raw());
        Ok(())
    }

    /// Appends sequence `seq`'s commit record and forgets the sequence.
    fn commit_sequence(&mut self, seq: u64, tag: u8) -> Result<()> {
        self.write_record(seq, tag, None)?;
        self.persist.next_seq = seq + 1;
        self.persist.end_sequence();
        Ok(())
    }

    /// Writes the open sequence's next record at the ring's head: an
    /// entry, with its image in the line after, or (`None`) the commit.
    /// Journal writes model a battery-latched path: they bypass
    /// `persist_line` (no steps, no cuts, no tearing).
    fn write_record(&mut self, seq_no: u64, tag: u8, entry: Option<JournalEntry>) -> Result<()> {
        let rec = persist::Record {
            seq_no,
            index: self.persist.entry_count as u32,
            tag,
            entry,
        };
        let (line, payload) = persist::encode_record(&rec);
        let at = self.persist.advance_head(rec.lines());
        self.nvm.write_line(self.journal_line_addr(at), &line)?;
        if let Some(payload) = payload {
            let next = (at + 1) % persist::JOURNAL_LINES;
            self.nvm
                .write_line(self.journal_line_addr(next), &payload)?;
        }
        Ok(())
    }

    /// Dead-block elision: when `addr`'s block zero-fills under the
    /// operation's pre-op metadata `ctrs`, the lines the operation
    /// writes for it need no undo image. Nobody can read their old
    /// bytes, and the operation installs the block's new metadata, whose
    /// journaled pre-image makes the block zero-fill again on rollback.
    /// Its data slot (and its mask line in scattered mode) counts as
    /// journaled for the rest of the sequence.
    fn elide_dead_undo(&mut self, addr: BlockAddr, ctrs: &CounterBlock) {
        if !self.adr() || self.persist.depth == 0 || !self.zero_fills(ctrs, addr.block_in_page()) {
            return;
        }
        let slot = self.heal.redirect(self.device_addr(addr));
        self.persist.journaled.push(slot.raw());
        if self.config.protection == ProtectionMode::Scattered {
            let mask = self.mask_addr(addr);
            self.persist.journaled.push(mask.raw());
        }
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
            Some(_) if self.persist.redo() => EntryKind::CounterRedo,
            Some(_) => EntryKind::CounterUndo,
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

    /// Writes a journaled image back to its line during recovery,
    /// moving a counter line's Merkle leaf with it.
    fn restore_journaled(&mut self, e: &JournalEntry) -> Result<()> {
        self.nvm.write_line(e.target, &e.payload)?;
        if matches!(e.kind, EntryKind::CounterRedo | EntryKind::CounterUndo) {
            if let Some(merkle) = &mut self.merkle {
                merkle.update_leaf(persist::entry_page(e).raw() as usize, &e.payload);
            }
        }
        Ok(())
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
                    if permanent || attempt >= MAX_RETRIES {
                        return Err(Error::UncorrectableEcc { addr, flips });
                    }
                    attempt += 1;
                    self.stats.health.retries.inc();
                    let backoff = retry_backoff(attempt);
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
            let write_lat = NVM_TIMING.write_cycles();
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

    /// Counts a privilege-denied shred command (MMIO executors that
    /// reject before reaching [`MemoryController::shred_page_at`]).
    pub(crate) fn note_shred_denied(&mut self) {
        self.stats.shred_denied.inc();
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

    fn counter_addr(&self, page: PageId) -> BlockAddr {
        BlockAddr::new(self.counter_base + page.raw() * LINE_SIZE as u64)
    }

    /// The page whose counter line sits at `caddr` (inverse of
    /// [`Self::counter_addr`]).
    fn counter_page(&self, caddr: BlockAddr) -> PageId {
        PageId::new((caddr.raw() - self.counter_base) / LINE_SIZE as u64)
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

    /// Fig. 7 step 3b's test: whether `block` reads as zeros under its
    /// page's metadata `ctrs` without touching the array — a zero minor
    /// counter with the shredder on, or a dead scattered liveness bit.
    /// Without the shredder a zero minor is a readable IV. The read
    /// paths and the journal's dead-block elision share this one test.
    fn zero_fills(&self, ctrs: &CounterBlock, block: usize) -> bool {
        match self.config.protection {
            ProtectionMode::Ctr => self.config.shredder && ctrs.is_shredded(block),
            ProtectionMode::Scattered => ctrs.is_shredded(block),
            ProtectionMode::Plain | ProtectionMode::Ecb => false,
        }
    }

    /// Fetches (through the counter cache) the counter block of `page`.
    /// Returns the counters and the latency incurred on the critical path.
    fn fetch_counters(&mut self, page: PageId, now: Cycles) -> Result<(CounterBlock, Cycles)> {
        let caddr = self.counter_addr(page);
        let mut latency = COUNTER_CACHE_LATENCY;
        if let Some(e) = self.counter_cache.get(caddr) {
            return Ok((e.value, latency));
        }
        // Miss: read the counter line from NVM and verify its integrity.
        if self.counters_lost {
            return Err(Error::CounterLoss);
        }
        let read_lat = self.sched(now + latency, NVM_TIMING.read_cycles());
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
        if dirty
            && self.adr()
            && self.persist.depth > 0
            && !self.persist.redo()
            && !self.persist.journaled.contains(&caddr.raw())
        {
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
                let vpage = self.counter_page(v.addr);
                self.as_victim_flush(|mc| mc.write_counters_to_nvm(vpage, &v.value, now))?;
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
        let write_lat = NVM_TIMING.write_cycles();
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

    /// Runs `f`, a counter writeback of already-durable data, journaling
    /// post-images (redo) rather than pre-images.
    fn as_victim_flush(&mut self, f: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        let was = self.persist.victim_flush;
        self.persist.victim_flush = true;
        let r = f(self);
        self.persist.victim_flush = was;
        r
    }

    /// Writes back one dirty cached counter line and marks it clean.
    fn writeback_counters(&mut self, page: PageId, ctrs: &CounterBlock) -> Result<()> {
        self.write_counters_to_nvm(page, ctrs, Cycles::ZERO)?;
        if let Some(e) = self.counter_cache.get(self.counter_addr(page)) {
            e.dirty = false;
        }
        Ok(())
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

    /// Moves the degrading line at logical `addr` to a spare. Each mode
    /// re-protects the rescued contents before they reach the spare
    /// (a fresh IV under counter mode, a fresh pad under the scattered
    /// mode), and its commit step makes the move authoritative only
    /// after the spare holds the new line: a crash in between leaves the
    /// old mapping decodable.
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
            ProtectionMode::Plain | ProtectionMode::Ecb => self.direct_rescue_remap(dev, slot, now),
            ProtectionMode::Ctr => self.ctr_rescue_remap(addr, dev, slot, now),
            ProtectionMode::Scattered => self.scattered_rescue_remap(addr, dev, slot, now),
        }
    }

    /// The rescue read of a degrading line: `None` when even the retry
    /// policy cannot correct it, and the caller quarantines the line.
    fn rescue_read(&mut self, slot: BlockAddr) -> Result<Option<Line>> {
        match self.read_line_healing(slot) {
            Ok(r) => Ok(Some(r.into_data())),
            Err(Error::UncorrectableEcc { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// The shared tail of every rescue: takes a spare for `dev` (or
    /// quarantines `dev` when the pool is dry) and journals the
    /// allocation. A live line's re-protected contents go to the spare
    /// first, then `commit` makes them authoritative. A dead line
    /// (`line` is `None`) has no content to move, so only its worn slot
    /// is retired; its first write brings fresh protection.
    fn move_to_spare(
        &mut self,
        dev: BlockAddr,
        line: Option<&Line>,
        now: Cycles,
        commit: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let Some(spare) = self.heal.allocate(dev) else {
            return self.fail_remap(dev);
        };
        self.journal_remap_alloc(dev, spare, false)?;
        if let Some(line) = line {
            self.sched(now, NVM_TIMING.write_cycles());
            self.persist_line(spare, line, None)?;
            commit(self)?;
        }
        self.stats.health.remaps.inc();
        self.tracer.emit(now, || TraceEvent::LineRemap {
            addr: dev,
            ok: true,
        });
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
            ProtectionMode::Plain | ProtectionMode::Ecb => self.direct_read(addr, now)?,
            ProtectionMode::Ctr => self.ctr_read(addr, now)?,
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
            ProtectionMode::Plain | ProtectionMode::Ecb => self.direct_write(addr, data, now)?,
            ProtectionMode::Ctr => self.ctr_write(addr, data, now)?,
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
        self.check_data_addr(page.block_addr(0))?;
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
        self.check_data_addr(page.block_addr(0))?;
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

    /// Architectural MMIO write (the kernel's `shred` hint, §4.3 step 1).
    ///
    /// Decoding ([`mmio::decode`]) and execution ([`mmio::MmioOp::apply`]) are
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
                ProtectionMode::Plain | ProtectionMode::Ecb => self.direct_zero_line(addr)?,
                ProtectionMode::Ctr => self.ctr_zero_line(addr, now)?,
                ProtectionMode::Scattered => self.scattered_write_line(addr, &zero, now, false)?,
            }
            self.stats.mem.writes.inc();
            self.stats.mem.zeroing_writes.inc();
        }
        self.process_pending_heal(now)?;
        // One array write latency: the device zeroes rows internally in
        // parallel (optimistic, as in the RowClone paper).
        Ok(NVM_TIMING.write_cycles())
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
            self.writeback_counters(self.counter_page(caddr), &ctrs)?;
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
    /// counter cache is rebuilt cold, deferred-heal flags and the
    /// journal's head and sequence counter drop, and the device's own
    /// power cycle clears its volatile banks.
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
                if was_cut && self.persist.is_open() {
                    // The battery flushes whatever the cache holds.
                    // Appending to the still-open journal sequence as
                    // *post-images* (redo) keeps counters of completed
                    // operations — whose data is already durable — from
                    // being rolled back; any counter the interrupted
                    // operation itself bumped was journaled as a
                    // pre-image at install time, and recovery's
                    // undo-after-redo ordering restores it regardless.
                    self.as_victim_flush(Self::flush_counters_inner)?;
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
        self.persist.end_operation();
        // The ring's head and the sequence counter are controller
        // registers too: recovery rebuilds them from the ring.
        self.persist.drop_journal_registers();
        self.drop_counter_cache();
        self.nvm.power_cycle();
        Ok(())
    }

    /// Discards the counter cache without writeback: it restarts cold.
    fn drop_counter_cache(&mut self) {
        self.counter_cache = SetAssocCache::new(self.counter_cache.config().clone());
    }

    /// The reboot recovery protocol. Runs after
    /// [`MemoryController::power_loss`], before the first demand access:
    ///
    /// 1. **Counter availability**: a prior crash that dropped dirty
    ///    counters (volatile write-back) leaves data undecryptable, and
    ///    recovery stops with [`Error::CounterLoss`].
    /// 2. **Journal resolution** (ADR only): the ring's newest sequence
    ///    without a commit record means power died mid-operation. Redo
    ///    entries (counter writebacks of already-durable data) are
    ///    re-applied in order; undo entries (the interrupted operation's
    ///    data, spare, and counter pre-images) are restored in reverse,
    ///    rolling Merkle leaves and the spare-pool map back with them.
    ///    Recovery then appends the commit record itself — replaying
    ///    recovery is idempotent — and numbers later sequences above
    ///    every stamp in the ring.
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
    /// call finds the newest sequence committed and repairs nothing).
    ///
    /// # Errors
    ///
    /// [`Error::CounterLoss`] when a prior crash dropped dirty counters;
    /// [`Error::IntegrityViolation`] when a record of the newest journal
    /// sequence fails its checksum or is missing, or a counter line
    /// fails re-verification after journal resolution; NVM write errors
    /// from the rollback writes.
    pub fn recover_mut(&mut self) -> Result<RecoveryReport> {
        if self.counters_lost {
            return Err(Error::CounterLoss);
        }
        let mut report = RecoveryReport::default();
        if self.adr() {
            let ring: Vec<Line> = (0..persist::JOURNAL_LINES)
                .map(|i| self.nvm.peek(self.journal_line_addr(i)))
                .collect();
            if let Some(newest) = persist::scan(&ring)? {
                self.persist.head = newest.head;
                self.persist.next_seq = newest.seq_no + 1;
                if !newest.committed {
                    report.journal_open = true;
                    report.interrupted_tag = newest.tag;
                    // Roll forward: metadata writebacks of durable data.
                    for e in newest
                        .entries
                        .iter()
                        .filter(|e| e.kind == EntryKind::CounterRedo)
                    {
                        self.restore_journaled(e)?;
                        report.redone += 1;
                    }
                    // Roll back the interrupted operation, newest first.
                    for e in newest.entries.iter().rev() {
                        match e.kind {
                            EntryKind::DataUndo | EntryKind::CounterUndo => {
                                self.restore_journaled(e)?;
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
                    self.persist.entry_count = newest.entries.len();
                    self.commit_sequence(newest.seq_no, newest.tag)?;
                }
            }
            self.persist.end_sequence();
            self.persist.end_operation();
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
}

/// Builds the write queue for a configuration, if enabled. Fallible
/// because [`WriteQueue::new`] is: `ControllerConfig::validate` has
/// already vetted the watermarks by the time this runs, so the error
/// arm is unreachable in practice but typed rather than a panic.
fn config_wqueue(config: &ControllerConfig) -> Result<Option<WriteQueue>> {
    config.write_queue.map(WriteQueue::new).transpose()
}

/// Writes between Start-Gap gap movements when wear levelling is on:
/// one, the Start-Gap ablation's setting (DESIGN.md §3.2).
const START_GAP_INTERVAL: u64 = 1;

/// Builds the Start-Gap remapper for a configuration, if enabled.
fn config_start_gap(config: &ControllerConfig) -> Option<StartGap> {
    config
        .wear_leveling
        .then(|| StartGap::new(config.data_capacity / LINE_SIZE as u64, START_GAP_INTERVAL))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ControllerConfigBuilder;

    /// An ADR machine cut at the counter step of a live overwrite. Its
    /// ring: lines 0-2 hold the first write's counter record, payload
    /// and commit; lines 3-6 the cut write's data and counter records,
    /// each with its payload, and no commit.
    fn cut_overwrite() -> MemoryController {
        let cfg = ControllerConfigBuilder::small_test()
            .persist_domain(PersistDomain::Adr)
            .counter_persistence(CounterPersistence::WriteThrough)
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg).unwrap();
        let addr = PageId::new(2).block_addr(0);
        m.write_block(addr, &[1; LINE_SIZE], false, Cycles::ZERO)
            .unwrap();
        let steps = m.inspect().persist_steps();
        m.faults().arm_crash_cut(steps + 2, 0);
        assert!(m
            .write_block(addr, &[2; LINE_SIZE], false, Cycles::ZERO)
            .is_err());
        m.power_loss().unwrap();
        m
    }

    #[test]
    fn recovery_refuses_a_damaged_interrupted_sequence() {
        let line = |m: &MemoryController, i| m.nvm.peek(m.journal_line_addr(i));
        // A flipped bit in a record or a payload of the interrupted
        // sequence, or its first record lost: rolling back what is left
        // would be silent, so recovery stops.
        for (at, damage) in [(3, 1u8), (4, 2), (5, 4), (6, 8), (3, 0)] {
            let mut m = cut_overwrite();
            let mut l = line(&m, at);
            if damage == 0 {
                l = [0u8; LINE_SIZE];
            } else {
                l[30] ^= damage;
            }
            m.nvm.tamper(m.journal_line_addr(at), l);
            match m.recover_mut() {
                Err(Error::IntegrityViolation { detail }) => {
                    assert!(detail.contains("ordering journal"), "{detail}");
                }
                other => panic!("line {at}: expected a refusal, got {other:?}"),
            }
        }
        // Damage to the committed sequence before it is history.
        let mut m = cut_overwrite();
        let mut l = line(&m, 2);
        l[30] ^= 1;
        m.nvm.tamper(m.journal_line_addr(2), l);
        let report = m.recover_mut().unwrap();
        assert_eq!(report.undone, 2);
        let r = m.read_block(PageId::new(2).block_addr(0), Cycles::ZERO);
        assert_eq!(r.unwrap().data, [1; LINE_SIZE]);
    }

    #[test]
    fn battery_flush_joins_the_interrupted_sequence_under_its_tag() {
        let cfg = ControllerConfigBuilder::small_test()
            .persist_domain(PersistDomain::Adr)
            .build()
            .unwrap();
        let mut m = MemoryController::new(cfg).unwrap();
        let (addr, other) = (PageId::new(2).block_addr(0), PageId::new(3).block_addr(0));
        m.write_block(addr, &[1; LINE_SIZE], false, Cycles::ZERO)
            .unwrap();
        m.write_block(other, &[3; LINE_SIZE], false, Cycles::ZERO)
            .unwrap();
        // The overwrite's one step is its data line, cut before its
        // counter install: one undo record. The battery then flushes
        // both dirty counter lines as redo records.
        let steps = m.inspect().persist_steps();
        m.faults().arm_crash_cut(steps + 1, 32);
        assert!(m
            .write_block(addr, &[2; LINE_SIZE], false, Cycles::ZERO)
            .is_err());
        m.power_loss().unwrap();
        let report = m.recover_mut().unwrap();
        assert_eq!(report.interrupted_tag, SeqTag::DemandWrite.raw());
        assert_eq!((report.redone, report.undone), (2, 1));
        let read = |m: &mut MemoryController, a| m.read_block(a, Cycles::ZERO).unwrap().data;
        assert_eq!(read(&mut m, addr), [1; LINE_SIZE]);
        assert_eq!(read(&mut m, other), [3; LINE_SIZE]);
    }
}
