//! The controller's NVM address layout and every device line access.
//!
//! The device is five regions, laid out once ([`Layout`]):
//! `[data][gap][counters][spares][journal][mask]`, the journal's ring
//! under ADR only (DESIGN.md §13.2), the masks in the scattered mode
//! only (§15). The rest of the controller names a line by its region and
//! index, or a data line by its logical address; only this module makes
//! a device address of either, and reaches the device (the [`FaultPort`]
//! methods that do are here too). Every device write is
//! [`MemoryController::write_slot`].

use ss_common::{BlockAddr, Cycles, Error, PageId, Result, LINE_SIZE};
use ss_crypto::Line;
use ss_nvm::LineRead;
use ss_trace::{Stage, TraceEvent};

use super::ports::FaultPort;
use super::{MemoryController, NVM_TIMING};
use crate::config::{ControllerConfig, PersistDomain, ProtectionMode};
use crate::heal::{retry_backoff, MAX_RETRIES};
use crate::persist::{self, EntryKind, JournalEntry};

/// A region of the controller's NVM device, in device order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Region {
    /// The data lines, then the Start-Gap line.
    Data,
    /// One counter line per page (the scattered mode's liveness line).
    Counter,
    /// The bad-line spare pool.
    Spare,
    /// The ordering journal's ring.
    Journal,
    /// One mask share per data line.
    Mask,
}

impl Region {
    /// Every region, in device order.
    pub(crate) const ALL: [Self; 5] = [
        Self::Data,
        Self::Counter,
        Self::Spare,
        Self::Journal,
        Self::Mask,
    ];
}

/// Where each region lies on a controller's device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Layout {
    /// The device line where each region of [`Region::ALL`] starts,
    /// then the device's end.
    starts: [u64; 6],
}

impl Layout {
    /// The layout of `config`'s device.
    pub(crate) fn new(config: &ControllerConfig) -> Layout {
        let data_lines = config.data_capacity / LINE_SIZE as u64;
        let journal_lines = match config.persist_domain {
            PersistDomain::Adr => persist::JOURNAL_LINES,
            PersistDomain::Eadr => 0,
        };
        let mask_lines = match config.protection {
            ProtectionMode::Scattered => data_lines,
            _ => 0,
        };
        let counter = data_lines + 1;
        let spare = counter + config.frames();
        let journal = spare + config.spare_lines;
        let mask = journal + journal_lines;
        Layout {
            starts: [0, counter, spare, journal, mask, mask + mask_lines],
        }
    }

    /// Lines in `region`.
    pub(crate) fn lines(&self, region: Region) -> u64 {
        self.starts[region as usize + 1] - self.starts[region as usize]
    }

    /// Device address of line `line` of `region`.
    pub(crate) fn addr(&self, region: Region, line: u64) -> BlockAddr {
        BlockAddr::new((self.starts[region as usize] + line) * LINE_SIZE as u64)
    }

    /// The line of `region` at device address `addr` (the inverse of
    /// [`Layout::addr`]).
    pub(crate) fn line(&self, region: Region, addr: BlockAddr) -> u64 {
        addr.raw() / LINE_SIZE as u64 - self.starts[region as usize]
    }

    /// The region holding device address `addr`, and the line's index
    /// there; `None` past the device's end.
    pub(crate) fn region_of(&self, addr: BlockAddr) -> Option<(Region, u64)> {
        let line = addr.raw() / LINE_SIZE as u64;
        let region = Region::ALL
            .into_iter()
            .find(|&r| line < self.starts[r as usize + 1])?;
        Some((region, line - self.starts[region as usize]))
    }

    /// Device capacity in bytes.
    pub(crate) fn capacity_bytes(&self) -> u64 {
        self.starts[Region::ALL.len()] * LINE_SIZE as u64
    }
}

/// The mask-region line holding the share of logical data line `addr`.
pub(crate) fn mask_line(addr: BlockAddr) -> u64 {
    addr.raw() / LINE_SIZE as u64
}

/// The stored line a [`FaultPort`] method acts on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NvmTarget {
    /// The slot backing the data line at this logical address, after
    /// Start-Gap and spare-pool remapping.
    Data(BlockAddr),
    /// The page's counter line (its liveness line in the scattered
    /// mode).
    Counter(PageId),
}

/// A degrading data line under rescue: its logical address, and the
/// device data line and worn slot behind it, resolved when the rescue
/// starts ([`MemoryController::start_rescue`]) and again after any write
/// of the rescue's own ([`MemoryController::rescue_of`]).
#[derive(Debug)]
pub(super) struct Rescue {
    pub(super) addr: BlockAddr,
    dev: BlockAddr,
    slot: BlockAddr,
}

/// Whether a device write is a persist step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Step {
    Persist,
    Latched,
}

impl MemoryController {
    /// Device address of `page`'s counter line, also its counter-cache
    /// key.
    pub(super) fn counter_addr(&self, page: PageId) -> BlockAddr {
        self.layout.addr(Region::Counter, page.raw())
    }

    /// The page whose counter line sits at `caddr`.
    pub(super) fn counter_page(&self, caddr: BlockAddr) -> PageId {
        PageId::new(self.layout.line(Region::Counter, caddr))
    }

    /// Line `line` of `region` as stored, without stats or timing.
    pub(super) fn peek_line(&self, region: Region, line: u64) -> Line {
        self.nvm.peek(self.layout.addr(region, line))
    }

    /// Reads line `line` of `region` under the retry policy. Counter and
    /// mask lines sit at fixed places, so a worn one is not remapped.
    pub(super) fn read_line_at(&mut self, region: Region, line: u64) -> Result<Line> {
        let slot = self.layout.addr(region, line);
        self.read_line_healing(slot).map(LineRead::into_data)
    }

    /// Writes line `line` of `region` as a persist step.
    pub(super) fn persist_line(&mut self, region: Region, line: u64, data: &Line) -> Result<()> {
        self.write_slot(self.layout.addr(region, line), data, Step::Persist)
    }

    /// Writes line `line` of `region` outside the persist model: a
    /// journal record, or a journaled image recovery restores.
    pub(super) fn latch_line(&mut self, region: Region, line: u64, data: &Line) -> Result<()> {
        self.write_slot(self.layout.addr(region, line), data, Step::Latched)
    }

    /// The one device line write. A persist step is refused after a
    /// fired crash cut; under ADR it is journaled first (write-ahead);
    /// the step counter ticks (under eADR too, so crash-point censuses
    /// are domain-independent); and under ADR an armed cut then stops the
    /// machine, before the write (`torn_bytes == 0`) or after an
    /// 8-byte-aligned prefix of it. A latched write skips all of that:
    /// journal records (a battery-latched path that a cut cannot tear),
    /// recovery's restores, the torn prefix and Start-Gap moves.
    fn write_slot(&mut self, slot: BlockAddr, data: &Line, step: Step) -> Result<()> {
        if step == Step::Persist && !self.persist.cut_fired {
            if self.adr() {
                self.journal_append(slot, data)?;
            }
            self.persist.steps += 1;
            let armed = self.persist.armed.filter(|_| self.adr());
            if let Some(cut) = armed.filter(|c| self.persist.steps >= c.at_step) {
                self.persist.cut_fired = true;
                let torn = cut.torn_bytes.min(LINE_SIZE) & !7;
                if torn > 0 {
                    let mut merged = self.nvm.peek(slot);
                    merged[..torn].copy_from_slice(&data[..torn]);
                    self.write_slot(slot, &merged, Step::Latched)?;
                }
            }
        }
        if step == Step::Persist && self.persist.cut_fired {
            return Err(Error::PowerCut {
                step: self.persist.steps,
            });
        }
        self.nvm.write_line(slot, data)
    }

    /// Journals the line about to be persisted to `slot`. Data and
    /// counter lines of in-flight operations record their **pre-image**
    /// (undo: a cut rolls the operation back); counter writebacks of
    /// already-durable data (dirty-victim evictions, explicit flushes)
    /// record the **post-image** (redo: re-persisting the newest value
    /// is always consistent). First pre-image wins per line, so nested
    /// sequences and crash-time flushes restore pre-operation state.
    fn journal_append(&mut self, slot: BlockAddr, data: &Line) -> Result<()> {
        let region = self.layout.region_of(slot);
        let counter_page = region.filter(|r| r.0 == Region::Counter).map(|r| r.1);
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
        self.journal_write_entry(&JournalEntry {
            kind,
            target: slot,
            aux: counter_page.unwrap_or(0),
            was_quarantined: false,
            payload,
        })
    }

    /// The one device line read, under the retry policy: transient
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

    // ------------------------------------------------------------------
    // The data region: write queue, Start-Gap, spare pool, quarantine.
    // ------------------------------------------------------------------

    /// Maps a logical data-line address to its device data line,
    /// applying Start-Gap remapping when wear levelling is enabled.
    pub(super) fn device_addr(&self, addr: BlockAddr) -> BlockAddr {
        let Some(sg) = &self.start_gap else {
            return addr;
        };
        let line = sg.remap(addr.raw() / LINE_SIZE as u64);
        self.layout.addr(Region::Data, line)
    }

    /// The slot backing device data line `dev`: its spare once
    /// remapped, else the line itself.
    fn slot(&self, dev: BlockAddr) -> BlockAddr {
        self.heal
            .spare_of(dev)
            .map_or(dev, |spare| self.layout.addr(Region::Spare, spare))
    }

    /// The slot currently backing logical data line `addr`.
    pub(super) fn data_slot(&self, addr: BlockAddr) -> BlockAddr {
        self.slot(self.device_addr(addr))
    }

    /// Reads a data line, applying wear-levelling remapping, write-queue
    /// forwarding, spare-pool redirection, and the retry/heal policy. A
    /// queued (not yet drained) write to the same line is forwarded
    /// instead of reading stale device contents.
    pub(super) fn nvm_read_data(&mut self, addr: BlockAddr) -> Result<Line> {
        let dev = self.device_addr(addr);
        if let Some(wq) = &mut self.wqueue {
            if let Some(line) = wq.forward(dev) {
                return Ok(line);
            }
        }
        if self.heal.is_quarantined(dev) {
            return Err(Error::Quarantined { addr: dev.addr() });
        }
        let slot = self.slot(dev);
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

    /// Peeks a data line (no stats), applying remapping and forwarding.
    pub(super) fn nvm_peek_data(&self, addr: BlockAddr) -> Line {
        let dev = self.device_addr(addr);
        if let Some(line) = self.wqueue.as_ref().and_then(|wq| wq.peek(dev)) {
            return line;
        }
        self.nvm.peek(self.slot(dev))
    }

    /// Writes a data line, applying wear-levelling remapping and
    /// advancing the Start-Gap state. With a write queue configured the
    /// line is buffered; a high-water burst drains to the low mark.
    pub(super) fn nvm_write_data(&mut self, addr: BlockAddr, data: &Line) -> Result<()> {
        let dev = self.device_addr(addr);
        if let Some(wq) = &mut self.wqueue {
            if wq.push(dev, *data, false) {
                let burst = wq.burst_len();
                self.drain_queue(burst, Cycles::ZERO)?;
            }
            return Ok(());
        }
        self.data_write_slot(dev, data)
    }

    /// Persists device data line `dev` through the spare pool, then
    /// advances Start-Gap. A full-line write to a quarantined line
    /// carries everything a spare needs, so it revives the line through
    /// a fresh spare when one is available.
    fn data_write_slot(&mut self, dev: BlockAddr, data: &Line) -> Result<()> {
        if !self.heal.is_quarantined(dev) {
            self.write_slot(self.slot(dev), data, Step::Persist)?;
        } else if let Some(spare) = self.heal.allocate(dev) {
            self.heal.unquarantine(dev);
            self.journal_remap_alloc(dev, spare, true)?;
            self.stats.health.remaps.inc();
            let at = self.op_now;
            self.tracer.emit(at, || TraceEvent::LineRemap {
                addr: dev,
                ok: true,
            });
            self.persist_line(Region::Spare, spare, data)?;
        } else {
            return Err(Error::Quarantined { addr: dev.addr() });
        }
        self.wear_level_on_write()
    }

    /// Drains up to `n` queued writes to the device, scheduling their
    /// bus transfers at `now`.
    pub(super) fn drain_queue(&mut self, n: usize, now: Cycles) -> Result<()> {
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
            drained += 1;
        }
        if drained > 0 {
            self.tracer
                .emit(now, || TraceEvent::WriteQueueDrain { drained });
        }
        Ok(())
    }

    /// Drains the whole write queue (fence, re-encryption, power loss).
    pub(super) fn drain_queue_fully(&mut self, now: Cycles) -> Result<()> {
        let n = self.wqueue.as_ref().map_or(0, |q| q.len());
        self.drain_queue(n, now)
    }

    /// Advances the Start-Gap state on a demand write, copying one line
    /// (a device read and a latched write) when the gap moves.
    fn wear_level_on_write(&mut self) -> Result<()> {
        let Some(sg) = &mut self.start_gap else {
            return Ok(());
        };
        if let Some((from, to)) = sg.advance_with_move() {
            let from_slot = self.slot(self.layout.addr(Region::Data, from));
            let to_slot = self.slot(self.layout.addr(Region::Data, to));
            let data = self.nvm.read_line(from_slot)?.into_data();
            self.write_slot(to_slot, &data, Step::Latched)?;
        }
        Ok(())
    }

    /// Starts the rescue of degrading logical data line `addr`; `None`
    /// when the line is quarantined or no longer on a worn slot (revived
    /// by a full-line write, say). Queued writes land first so the
    /// rescue read sees the newest contents; their drain may move the
    /// Start-Gap mapping, so the line is resolved again after it.
    pub(super) fn start_rescue(&mut self, addr: BlockAddr, now: Cycles) -> Result<Option<Rescue>> {
        if self.heal.is_quarantined(self.device_addr(addr)) || self.rescue_of(addr).is_none() {
            return Ok(None);
        }
        self.drain_queue_fully(now)?;
        Ok(self.rescue_of(addr))
    }

    /// The rescue of logical data line `addr` at the device line and
    /// slot behind it now, or `None` when that slot is not worn. Every
    /// data write moves the Start-Gap gap and can carry the line off its
    /// worn slot, so a rescue that writes before it remaps (a
    /// counter-mode rescue whose minor overflows re-encrypts the page)
    /// resolves the line again afterwards. A worn slot the line has left
    /// stays in service, and the line that lands on it is rescued at its
    /// first corrected read, as on any worn slot.
    pub(super) fn rescue_of(&self, addr: BlockAddr) -> Option<Rescue> {
        let dev = self.device_addr(addr);
        let slot = self.slot(dev);
        self.nvm
            .is_failed(slot)
            .then_some(Rescue { addr, dev, slot })
    }

    /// The rescue read of a degrading line: `None` when even the retry
    /// policy cannot correct it, and the caller quarantines the line.
    pub(super) fn rescue_read(&mut self, r: &Rescue) -> Result<Option<Line>> {
        match self.read_line_healing(r.slot) {
            Ok(read) => Ok(Some(read.into_data())),
            Err(Error::UncorrectableEcc { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    /// Quarantines a rescued line after a failed remap (no spare, or
    /// the rescue read was already uncorrectable).
    pub(super) fn fail_remap(&mut self, r: &Rescue) -> Result<()> {
        self.stats.health.remap_failures.inc();
        self.heal.quarantine(r.dev);
        self.stats.health.quarantined.inc();
        let at = self.op_now;
        self.tracer.emit(at, || TraceEvent::LineRemap {
            addr: r.dev,
            ok: false,
        });
        Ok(())
    }

    /// The shared tail of every rescue: takes a spare for the line (or
    /// quarantines it when the pool is dry) and journals the
    /// allocation. A live line's re-protected contents go to the spare
    /// first, then `commit` makes them authoritative. A dead line
    /// (`line` is `None`) has no content to move, so only its worn slot
    /// is retired; its first write brings fresh protection.
    pub(super) fn move_to_spare(
        &mut self,
        r: &Rescue,
        line: Option<&Line>,
        now: Cycles,
        commit: impl FnOnce(&mut Self) -> Result<()>,
    ) -> Result<()> {
        let Some(spare) = self.heal.allocate(r.dev) else {
            return self.fail_remap(r);
        };
        self.journal_remap_alloc(r.dev, spare, false)?;
        if let Some(line) = line {
            self.sched(now, NVM_TIMING.write_cycles());
            self.persist_line(Region::Spare, spare, line)?;
            commit(self)?;
        }
        self.stats.health.remaps.inc();
        self.tracer.emit(now, || TraceEvent::LineRemap {
            addr: r.dev,
            ok: true,
        });
        Ok(())
    }

    /// The device slot behind `target`.
    fn target_slot(&self, target: NvmTarget) -> BlockAddr {
        match target {
            NvmTarget::Data(addr) => self.data_slot(addr),
            NvmTarget::Counter(page) => self.counter_addr(page),
        }
    }

    /// Every written line of the regions `keep` selects, in address
    /// order.
    fn cold_scan(&self, keep: impl Fn(Region) -> bool) -> Vec<(BlockAddr, Line)> {
        let in_kept = |a| self.layout.region_of(a).is_some_and(|(r, _)| keep(r));
        self.nvm
            .cold_scan()
            .filter(|&(a, _)| in_kept(a))
            .map(|(a, line)| (a, *line))
            .collect()
    }
}

impl FaultPort<'_> {
    /// Reads every written line raw — the stolen-DIMM attack (§3).
    /// Covers the data region *and* the spare pool: remapped lines
    /// physically live there, and retired originals still hold their
    /// last ciphertext. The counter region is not included.
    pub fn cold_scan_data(&self) -> Vec<(BlockAddr, Line)> {
        self.mc
            .cold_scan(|r| matches!(r, Region::Data | Region::Spare))
    }

    /// Cold scan restricted to the spare-line pool: the residue surface
    /// a remap-probe attack inspects for rescued-but-unshredded data.
    pub fn cold_scan_spares(&self) -> Vec<(BlockAddr, Line)> {
        self.mc.cold_scan(|r| r == Region::Spare)
    }

    /// Cold scan of the persisted counter region, keyed by owning page —
    /// the state a rollback attacker captures at one power cycle and
    /// replays at the next.
    pub fn cold_scan_counters(&self) -> Vec<(PageId, Line)> {
        let scan = self.mc.cold_scan(|r| r == Region::Counter);
        let page = |caddr| self.mc.counter_page(caddr);
        scan.into_iter().map(|(a, l)| (page(a), l)).collect()
    }

    /// Raw stored bytes of `target` (ciphertext, or a counter line an
    /// attacker captures for replay), bypassing decryption, stats and
    /// timing.
    pub fn nvm_peek(&self, target: NvmTarget) -> Line {
        self.mc.nvm.peek(self.mc.target_slot(target))
    }

    /// Overwrites `target` in the array behind the controller's back
    /// (man-in-the-middle, overwrite and counter replay attacks). A
    /// tampered counter line must fail verification at the page's next
    /// counter-cache miss when integrity is enabled: only once the
    /// cached copy is evicted or dropped, so tests combine this with
    /// [`FaultPort::drop_counter_cache`].
    pub fn nvm_tamper(&mut self, target: NvmTarget, line: Line) {
        self.mc.nvm.tamper(self.mc.target_slot(target), line);
    }

    /// Flips one stored bit of `target` (NVM cell disturb, a persistent
    /// fault). A flipped counter line must fail Merkle verification at
    /// its next uncached fetch when integrity is enabled.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub fn nvm_flip_bit(&mut self, target: NvmTarget, bit: usize) {
        self.mc.nvm.flip_bit(self.mc.target_slot(target), bit);
    }

    /// Arms a one-shot transient error of `flips` raw bit flips on the
    /// next read of the slot currently backing `addr`.
    pub fn inject_data_read_error(&mut self, addr: BlockAddr, flips: u32) {
        let slot = self.mc.data_slot(addr);
        self.mc.nvm.inject_read_error(slot, flips);
    }

    /// Disarms a pending injected read error. Returns whether one was
    /// armed (i.e. no read consumed it).
    pub fn clear_injected_read_error(&mut self, addr: BlockAddr) -> bool {
        self.mc.nvm.clear_injected_error(self.mc.data_slot(addr))
    }

    /// Marks the slot backing `addr` permanently failed with `weak_bits`
    /// stuck weak cells (wear-out / stuck-at fault model).
    pub fn force_line_failure(&mut self, addr: BlockAddr, weak_bits: u32) {
        self.mc.nvm.fail_line(self.mc.data_slot(addr), weak_bits);
    }
}
