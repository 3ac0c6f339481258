//! The NVM device: a byte-addressable, persistent line store with timing,
//! energy, endurance and remanence modelling.

use std::collections::{BTreeMap, BTreeSet};

use ss_common::{
    BlockAddr, Counter, DetRng, Error, PageId, Result, BLOCKS_PER_PAGE, LINE_SIZE, PAGE_SIZE,
};

use crate::ecc::{EccConfig, LineRead};
use crate::endurance::WearTracker;
use crate::timing::{EnergyModel, NvmTiming};
use crate::write_reduction::WriteScheme;

/// The memory technology a device models.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MemoryKind {
    /// Non-volatile (PCM-like): contents survive power loss — the
    /// remanence property the paper secures against.
    #[default]
    Nvm,
    /// Volatile DRAM, for motivation comparisons (§1, §3): cheap
    /// symmetric accesses, no endurance concern, contents lost at
    /// power-off.
    Dram,
}

/// Configuration of an [`NvmDevice`].
#[derive(Debug, Clone, PartialEq)]
pub struct NvmConfig {
    /// Installed capacity in bytes (Table 1: 16 GiB).
    pub capacity_bytes: u64,
    /// Latency/channel parameters.
    pub timing: NvmTiming,
    /// Energy parameters.
    pub energy: EnergyModel,
    /// Cell-write-reduction scheme applied on every line write.
    pub write_scheme: WriteScheme,
    /// The modelled technology.
    pub kind: MemoryKind,
    /// Per-line write-endurance limit; `None` disables wear-out
    /// modelling entirely.
    ///
    /// Semantics are **accept-write / fail-read**: a write that pushes a
    /// line's wear past the limit is still accepted and stored —
    /// `write_line` never returns an error for wear-out — but the line
    /// is marked failed and subsequent *reads* see a growing set of weak
    /// cells (bits that read back inverted), starting at one weak bit
    /// and gaining another each further `limit` writes. Under the
    /// configured [`EccConfig`] the first failures therefore surface as
    /// [`LineRead::Corrected`] (the rescue window in which a controller
    /// can remap the line); once the weak-cell count exceeds the
    /// correction bound, reads fail loudly with
    /// [`ss_common::Error::UncorrectableEcc`].
    pub endurance_limit: Option<u64>,
    /// ECC strength applied on every line read.
    pub ecc: EccConfig,
    /// Transient (soft) read-error probability per bit per line read.
    /// `0.0` (the default) disables background transients; faults can
    /// still be injected one-shot via [`NvmDevice::inject_read_error`].
    /// A configuration *input*, converted once to an exact integer
    /// threshold at device construction — never compared per read.
    pub transient_read_ber: f64, // lint:allow(DET-004)
    /// Seed for the device's deterministic fault stream (weak-cell
    /// positions, transient error draws). Same seed + same access
    /// sequence ⇒ identical faults.
    pub fault_seed: u64,
}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig {
            capacity_bytes: 16 << 30,
            timing: NvmTiming::default(),
            energy: EnergyModel::default(),
            write_scheme: WriteScheme::Raw,
            kind: MemoryKind::Nvm,
            endurance_limit: None,
            ecc: EccConfig::secded(),
            transient_read_ber: 0.0,
            fault_seed: 0,
        }
    }
}

/// Aggregate device statistics.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NvmStats {
    /// Line reads served by the array.
    pub reads: Counter,
    /// Line writes accepted (including ones DCW later skipped).
    pub writes: Counter,
    /// Line writes whose cell programming was skipped entirely (DCW/FNW
    /// with identical data).
    pub skipped_writes: Counter,
    /// Total memory cells (bits) programmed.
    pub bits_written: u64,
    /// Total energy consumed, in whole picojoules. Accumulated as an
    /// integer so no sub-pJ residue is lost across lines (the energy
    /// model itself is integer-valued; see [`EnergyModel`]).
    pub energy_pj: u64,
    /// Number of power cycles survived.
    pub power_cycles: u64,
    /// Lines that exceeded the endurance limit (failure injection).
    pub failed_lines: u64,
    /// Reads whose bit errors ECC corrected in place.
    pub ecc_corrected_reads: Counter,
    /// Total raw bit flips repaired by ECC.
    pub ecc_corrected_bits: u64,
    /// Reads rejected as uncorrectable (within the detection bound).
    pub ecc_uncorrectable_reads: Counter,
    /// Reads whose flip count exceeded the detection bound and aliased
    /// into silently corrupted data — the failure mode scrubbing and
    /// remapping exist to keep at zero.
    pub ecc_silent_escapes: Counter,
}

impl NvmStats {
    /// Exports every statistic into `reg` under `<prefix>.<name>`.
    /// Energy is already integer picojoules, so the exported value is
    /// the exact total, not a rounded one.
    pub fn export(&self, reg: &mut ss_trace::MetricsRegistry, prefix: &str) {
        reg.set(&format!("{prefix}.reads"), self.reads.get());
        reg.set(&format!("{prefix}.writes"), self.writes.get());
        reg.set(
            &format!("{prefix}.skipped_writes"),
            self.skipped_writes.get(),
        );
        reg.set(&format!("{prefix}.bits_written"), self.bits_written);
        reg.set(&format!("{prefix}.energy_pj"), self.energy_pj);
        reg.set(&format!("{prefix}.power_cycles"), self.power_cycles);
        reg.set(&format!("{prefix}.failed_lines"), self.failed_lines);
        reg.set(
            &format!("{prefix}.ecc_corrected_reads"),
            self.ecc_corrected_reads.get(),
        );
        reg.set(
            &format!("{prefix}.ecc_corrected_bits"),
            self.ecc_corrected_bits,
        );
        reg.set(
            &format!("{prefix}.ecc_uncorrectable_reads"),
            self.ecc_uncorrectable_reads.get(),
        );
        reg.set(
            &format!("{prefix}.ecc_silent_escapes"),
            self.ecc_silent_escapes.get(),
        );
    }
}

/// Flip-N-Write keeps one flip bit per 32-bit word of a line.
const FLIP_WORDS: usize = LINE_SIZE / 4;
const _: () = assert!(
    FLIP_WORDS == u16::BITS as usize,
    "flip mask must fill a u16"
);

/// Everything the device keeps about one line address.
#[derive(Debug, Clone, Copy)]
pub(crate) struct LineRecord {
    /// The stored cells; all zero while the line is not `resident`.
    data: [u8; LINE_SIZE],
    /// Writes that programmed cells (DCW/FNW skips excluded). Cell wear
    /// survives every power cycle.
    pub(crate) wear: u64,
    /// Flip-N-Write state: bit `w` set stores word `w` inverted.
    flips: u16,
    /// Whether the line holds data: written, tampered or bit-flipped
    /// since the last DRAM power cycle. Only resident lines show up in
    /// [`NvmDevice::cold_scan`] and [`NvmDevice::resident_lines`].
    resident: bool,
}

impl LineRecord {
    const EMPTY: LineRecord = LineRecord {
        data: [0u8; LINE_SIZE],
        wear: 0,
        flips: 0,
        resident: false,
    };

    fn flip_state(&self) -> [bool; FLIP_WORDS] {
        core::array::from_fn(|w| self.flips >> w & 1 != 0)
    }

    fn set_flip_state(&mut self, state: &[bool; FLIP_WORDS]) {
        self.flips = state
            .iter()
            .enumerate()
            .fold(0, |mask, (w, &flip)| mask | u16::from(flip) << w);
    }
}

/// An append-only sequence kept `N` elements to an allocation, each
/// made once at its full size: no element ever moves, and every
/// allocation is the same size.
#[derive(Debug, Clone)]
struct Chunked<T, const N: usize> {
    chunks: Vec<Vec<T>>,
}

impl<T, const N: usize> Chunked<T, N> {
    const fn new() -> Self {
        Chunked { chunks: Vec::new() }
    }

    fn len(&self) -> usize {
        self.chunks
            .last()
            .map_or(0, |last| (self.chunks.len() - 1) * N + last.len())
    }

    /// Appends `value`; returns its position.
    fn push(&mut self, value: T) -> usize {
        let pos = self.len();
        match self.chunks.last_mut() {
            Some(last) if last.len() < N => last.push(value),
            _ => {
                let mut chunk = Vec::with_capacity(N);
                chunk.push(value);
                self.chunks.push(chunk);
            }
        }
        pos
    }

    fn get(&self, pos: usize) -> Option<&T> {
        self.chunks.get(pos / N)?.get(pos % N)
    }

    fn get_mut(&mut self, pos: usize) -> Option<&mut T> {
        self.chunks.get_mut(pos / N)?.get_mut(pos % N)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.chunks.iter_mut().flatten()
    }
}

/// A page's slot map: per block, 1 + the position of its record, or 0.
type SlotMap = [u32; BLOCKS_PER_PAGE];

/// Every line record of a device, found through a dense page index.
///
/// Records and slot maps are appended in creation order to fixed-size
/// allocations (one page of records, 4 KiB of maps), so the store
/// never moves a record and its heap use does not depend on the order
/// in which lines are first written.
#[derive(Debug, Clone)]
pub(crate) struct LineStore {
    /// Per 4 KiB page of the address space: 1 + the position of the
    /// page's slot map in `maps`, or 0 when it has none.
    index: Vec<u32>,
    /// One slot map per page that has records, in order of first record.
    maps: Chunked<SlotMap, 16>,
    /// The records, in order of creation.
    records: Chunked<LineRecord, BLOCKS_PER_PAGE>,
}

impl LineStore {
    /// An empty store whose index covers `capacity_bytes`; allocated
    /// zero-filled, so pages never touched are never written.
    fn new(capacity_bytes: u64) -> Self {
        let pages = capacity_bytes.div_ceil(PAGE_SIZE as u64);
        LineStore {
            index: vec![0; usize::try_from(pages).unwrap_or(0)],
            maps: Chunked::new(),
            records: Chunked::new(),
        }
    }

    pub(crate) fn get(&self, addr: BlockAddr) -> Option<&LineRecord> {
        let map = *self.index.get(usize::try_from(addr.page().raw()).ok()?)?;
        let slots = self.maps.get((map as usize).checked_sub(1)?)?;
        let slot = *slots.get(addr.block_in_page())?;
        self.records.get((slot as usize).checked_sub(1)?)
    }

    /// The record of `addr`, created empty if absent. The index grows
    /// when `addr` lies past it (the write-free paths do not range
    /// check); `None` only when a count overflows the index.
    fn get_or_insert(&mut self, addr: BlockAddr) -> Option<&mut LineRecord> {
        let page = usize::try_from(addr.page().raw()).ok()?;
        if page >= self.index.len() {
            self.index.resize(page + 1, 0);
        }
        let map = &mut self.index[page];
        if *map == 0 {
            *map = u32::try_from(self.maps.len() + 1).ok()?;
            self.maps.push([0; BLOCKS_PER_PAGE]);
        }
        let slot = self
            .maps
            .get_mut(*map as usize - 1)?
            .get_mut(addr.block_in_page())?;
        if *slot == 0 {
            *slot = u32::try_from(self.records.len() + 1).ok()?;
            self.records.push(LineRecord::EMPTY);
        }
        self.records.get_mut(*slot as usize - 1)
    }

    /// Every record, in no particular order.
    fn records_mut(&mut self) -> impl Iterator<Item = &mut LineRecord> {
        self.records.iter_mut()
    }

    /// `(line address, record)` for every record, in address order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (BlockAddr, &LineRecord)> + '_ {
        self.index
            .iter()
            .enumerate()
            .filter_map(|(page, &map)| {
                let slots = self.maps.get((map as usize).checked_sub(1)?)?;
                Some((PageId::new(page as u64), slots))
            })
            .flat_map(move |(page, slots)| {
                slots.iter().enumerate().filter_map(move |(block, &slot)| {
                    let line = self.records.get((slot as usize).checked_sub(1)?)?;
                    Some((page.block_addr(block), line))
                })
            })
    }
}

/// A persistent, line-granularity NVM array.
///
/// Contents are stored sparsely; unwritten lines read as zero (a fresh
/// device). Data *persists across [`NvmDevice::power_cycle`]* — the
/// remanence property that motivates encrypting NVMM — and can be
/// exfiltrated wholesale with [`NvmDevice::cold_scan`].
#[derive(Debug, Clone)]
pub struct NvmDevice {
    config: NvmConfig,
    /// One record per line address that has held data or worn, so a
    /// line write is one record lookup.
    lines: LineStore,
    stats: NvmStats,
    /// Worn-out lines → number of weak cells (bits that read inverted).
    failed: BTreeMap<u64, u32>,
    /// One-shot injected transient read errors: addr → flip count,
    /// consumed by the next read of that line.
    injected: BTreeMap<u64, u32>,
    /// Deterministic stream for background transient draws.
    fault_rng: DetRng,
    /// Exact integer image of the per-line transient probability
    /// (`ber · bits-per-line`, capped at 1), precomputed once so the
    /// per-read fault decision is a pure integer compare.
    p_line_threshold: u64,
    /// Exact integer image of the 0.2 double-bit-burst probability.
    burst_threshold: u64,
}

impl NvmDevice {
    /// Creates a zero-filled device.
    pub fn new(config: NvmConfig) -> Self {
        let fault_rng = DetRng::new(config.fault_seed ^ 0x7A17_FAD5_EED0_0BE5);
        // The one place float probability enters: the configured BER is
        // converted to integer DetRng thresholds at construction, and
        // every subsequent draw is float-free. // lint:allow(DET-004)
        let p_line = (config.transient_read_ber * (LINE_SIZE * 8) as f64).min(1.0); // lint:allow(DET-004)
        NvmDevice {
            lines: LineStore::new(config.capacity_bytes),
            config,
            stats: NvmStats::default(),
            failed: BTreeMap::new(),
            injected: BTreeMap::new(),
            fault_rng,
            p_line_threshold: DetRng::threshold(p_line),
            burst_threshold: DetRng::threshold(0.2),
        }
    }

    /// Device configuration.
    pub fn config(&self) -> &NvmConfig {
        &self.config
    }

    fn check_range(&self, addr: BlockAddr) -> Result<()> {
        if addr.raw() + LINE_SIZE as u64 > self.config.capacity_bytes {
            Err(Error::AddrOutOfRange {
                addr: addr.addr(),
                capacity: self.config.capacity_bytes,
            })
        } else {
            Ok(())
        }
    }

    /// Reads one 64 B line through the ECC model.
    ///
    /// Raw bit errors come from three sources, unioned per read: weak
    /// cells on worn-out lines (permanent, deterministic positions),
    /// one-shot injected transients ([`NvmDevice::inject_read_error`]),
    /// and background transients drawn at
    /// [`NvmConfig::transient_read_ber`]. Up to [`EccConfig::correct`]
    /// flips are repaired ([`LineRead::Corrected`]); up to
    /// [`EccConfig::detect`] the read fails loudly; beyond that the code
    /// aliases and corrupted data is served as [`LineRead::Clean`]
    /// (counted in [`NvmStats::ecc_silent_escapes`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddrOutOfRange`] if `addr` is beyond capacity,
    /// or [`Error::UncorrectableEcc`] for a detected-but-uncorrectable
    /// error.
    pub fn read_line(&mut self, addr: BlockAddr) -> Result<LineRead> {
        self.check_range(addr)?;
        self.stats.reads.inc();
        self.stats.energy_pj += self.config.energy.read_pj;
        let data = self.peek(addr);
        let flipped = self.error_bits(addr);
        if flipped.is_empty() {
            return Ok(LineRead::Clean(data));
        }
        let flips = flipped.len() as u32;
        let ecc = self.config.ecc;
        if flips <= ecc.correct {
            self.stats.ecc_corrected_reads.inc();
            self.stats.ecc_corrected_bits += u64::from(flips);
            Ok(LineRead::Corrected { data, flips })
        } else if flips <= ecc.detect {
            self.stats.ecc_uncorrectable_reads.inc();
            Err(Error::UncorrectableEcc {
                addr: addr.addr(),
                flips,
            })
        } else {
            // Past the detection bound the code aliases to a valid
            // codeword: the flips are served as if the line were clean.
            self.stats.ecc_silent_escapes.inc();
            let mut garbled = data;
            for bit in flipped {
                garbled[bit / 8] ^= 1 << (bit % 8);
            }
            Ok(LineRead::Clean(garbled))
        }
    }

    /// The set of raw bit positions that read wrong on this access.
    fn error_bits(&mut self, addr: BlockAddr) -> Vec<usize> {
        let mut bits: BTreeSet<usize> = BTreeSet::new();
        // Permanent weak cells: positions are a pure function of the
        // fault seed and address, so the same cells stay weak forever.
        if let Some(&weak) = self.failed.get(&addr.raw()) {
            let mut rng = DetRng::new(
                self.config
                    .fault_seed
                    .wrapping_add(addr.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                    ^ 0x5EAF_CE11_F1A7_B175,
            );
            let weak = (weak as usize).min(LINE_SIZE * 8);
            while bits.len() < weak {
                bits.insert(rng.below((LINE_SIZE * 8) as u64) as usize);
            }
        }
        // One-shot injected transient, consumed by this read.
        if let Some(flips) = self.injected.remove(&addr.raw()) {
            let want = (bits.len() + flips as usize).min(LINE_SIZE * 8);
            while bits.len() < want {
                bits.insert(self.fault_rng.below((LINE_SIZE * 8) as u64) as usize);
            }
        }
        // Background transients at the configured bit-error rate:
        // decided by integer threshold compares against the DetRng
        // stream, so the fault sequence is bit-reproducible everywhere.
        if self.p_line_threshold > 0 && self.fault_rng.coin(self.p_line_threshold) {
            // Mostly single-bit events; occasionally a double-bit
            // burst so the uncorrectable→retry path gets exercised.
            let n = if self.fault_rng.coin(self.burst_threshold) {
                2
            } else {
                1
            };
            let want = (bits.len() + n).min(LINE_SIZE * 8);
            while bits.len() < want {
                bits.insert(self.fault_rng.below((LINE_SIZE * 8) as u64) as usize);
            }
        }
        bits.into_iter().collect()
    }

    /// Schedules a one-shot transient read error: the next `read_line`
    /// of `addr` sees `flips` extra raw bit errors (then the line is
    /// healthy again, modelling a soft error). Fault-injection surface
    /// for the harness.
    pub fn inject_read_error(&mut self, addr: BlockAddr, flips: u32) {
        if flips > 0 {
            self.injected.insert(addr.raw(), flips);
        }
    }

    /// Cancels a pending injected read error (e.g. the access it was
    /// aimed at never reached the array). Returns whether one was
    /// pending.
    pub fn clear_injected_error(&mut self, addr: BlockAddr) -> bool {
        self.injected.remove(&addr.raw()).is_some()
    }

    /// Forces a line into the worn-out state with `weak_bits` weak cells
    /// (at least 1) — fault-injection surface modelling a stuck line.
    pub fn fail_line(&mut self, addr: BlockAddr, weak_bits: u32) {
        let raw = addr.raw();
        if !self.failed.contains_key(&raw) {
            self.stats.failed_lines += 1;
        }
        let entry = self.failed.entry(raw).or_insert(0);
        *entry = (*entry).max(weak_bits.max(1));
    }

    /// Number of weak cells on a worn-out line (0 if healthy).
    pub fn weak_bit_count(&self, addr: BlockAddr) -> u32 {
        self.failed.get(&addr.raw()).copied().unwrap_or(0)
    }

    /// Writes one 64 B line, applying the configured write-reduction
    /// scheme for energy/wear accounting.
    ///
    /// # Errors
    ///
    /// Returns [`Error::AddrOutOfRange`] if `addr` is beyond capacity.
    pub fn write_line(&mut self, addr: BlockAddr, data: &[u8; LINE_SIZE]) -> Result<()> {
        self.check_range(addr)?;
        let Some(line) = self.lines.get_or_insert(addr) else {
            return Err(Error::AddrOutOfRange {
                addr: addr.addr(),
                capacity: self.config.capacity_bytes,
            });
        };
        self.stats.writes.inc();
        let mut flips = line.flip_state();
        let outcome = self.config.write_scheme.apply(&line.data, data, &mut flips);
        line.set_flip_state(&flips);
        line.data = *data;
        line.resident = true;
        self.stats.bits_written += u64::from(outcome.bits_written);
        self.stats.energy_pj += self.config.energy.write_energy_pj(outcome.bits_written);
        if outcome.skipped {
            self.stats.skipped_writes.inc();
        } else {
            line.wear += 1;
            if let Some(limit) = self.config.endurance_limit {
                let wear = line.wear;
                if wear > limit {
                    // One weak cell at first failure, another for every
                    // further `limit` writes: degradation is gradual, so
                    // ECC-corrected reads give the controller a rescue
                    // window before the line turns uncorrectable.
                    let weak = 1 + ((wear - limit - 1) / limit.max(1)) as u32;
                    if !self.failed.contains_key(&addr.raw()) {
                        self.stats.failed_lines += 1;
                    }
                    let entry = self.failed.entry(addr.raw()).or_insert(0);
                    *entry = (*entry).max(weak);
                }
            }
        }
        Ok(())
    }

    /// Whether `addr`'s cells have worn out.
    pub fn is_failed(&self, addr: BlockAddr) -> bool {
        self.failed.contains_key(&addr.raw())
    }

    /// Reads a line without touching stats or timing — used internally and
    /// by the cold-scan attack model.
    pub fn peek(&self, addr: BlockAddr) -> [u8; LINE_SIZE] {
        self.lines
            .get(addr)
            .map_or([0u8; LINE_SIZE], |line| line.data)
    }

    /// DRAM timing preset for motivation comparisons: symmetric ~50 ns
    /// accesses, no endurance limit, volatile.
    pub fn dram_config(capacity_bytes: u64) -> NvmConfig {
        NvmConfig {
            capacity_bytes,
            timing: crate::timing::NvmTiming {
                read: ss_common::Nanos::new(50),
                write: ss_common::Nanos::new(50),
                ..crate::timing::NvmTiming::default()
            },
            energy: crate::timing::EnergyModel {
                read_pj: 512,
                write_base_pj: 512,
                write_per_flipped_bit_pj: 1,
            },
            write_scheme: WriteScheme::Raw,
            kind: MemoryKind::Dram,
            endurance_limit: None,
            ecc: EccConfig::secded(),
            transient_read_ber: 0.0,
            fault_seed: 0,
        }
    }

    /// Simulates a power cycle. NVM contents persist — that is the
    /// point; DRAM contents and flip state vanish, while cell wear stays.
    pub fn power_cycle(&mut self) {
        self.stats.power_cycles += 1;
        if self.config.kind == MemoryKind::Dram {
            // An emptied record is invisible: it reads zero, is not
            // resident and, without wear, is not worn.
            for line in self.lines.records_mut() {
                *line = LineRecord {
                    wear: line.wear,
                    ..LineRecord::EMPTY
                };
            }
        }
    }

    /// Models an attacker with physical access scanning the powered-off
    /// chip: iterates every line holding data, in address order, with its
    /// raw (possibly ciphertext) contents.
    pub fn cold_scan(&self) -> impl Iterator<Item = (BlockAddr, &[u8; LINE_SIZE])> {
        self.lines
            .iter()
            .filter(|(_, line)| line.resident)
            .map(|(a, line)| (a, &line.data))
    }

    /// The record of `addr`, created empty if absent, marked resident:
    /// the write-free paths that put data into a line. They do not range
    /// check, so `addr` may lie past the capacity.
    fn resident_line(&mut self, addr: BlockAddr) -> Option<&mut LineRecord> {
        let line = self.lines.get_or_insert(addr)?;
        line.resident = true;
        Some(line)
    }

    /// Overwrites a line without any accounting — models an attacker
    /// tampering with memory contents (man-in-the-middle / overwrite
    /// attacks from the §4.1 threat model).
    pub fn tamper(&mut self, addr: BlockAddr, data: [u8; LINE_SIZE]) {
        if let Some(line) = self.resident_line(addr) {
            line.data = data;
        }
    }

    /// Flips a single stored bit in place — models a transient NVM cell
    /// disturb fault (fault-injection surface for the harness). A line
    /// that was never written reads as zero, so the flip lands on an
    /// otherwise-zero line.
    ///
    /// # Panics
    ///
    /// Panics if `bit >= LINE_SIZE * 8`.
    pub fn flip_bit(&mut self, addr: BlockAddr, bit: usize) {
        assert!(bit < LINE_SIZE * 8, "bit index out of line");
        if let Some(line) = self.resident_line(addr) {
            line.data[bit / 8] ^= 1 << (bit % 8);
        }
    }

    /// Device statistics so far.
    pub fn stats(&self) -> &NvmStats {
        &self.stats
    }

    /// Per-line wear, read in place from the line records.
    pub fn wear(&self) -> WearTracker<'_> {
        WearTracker::new(&self.lines)
    }

    /// Resets statistics (not contents or wear) — used between experiment
    /// phases.
    pub fn reset_stats(&mut self) {
        self.stats = NvmStats {
            power_cycles: self.stats.power_cycles,
            failed_lines: self.stats.failed_lines,
            ..NvmStats::default()
        };
    }

    /// Number of distinct lines holding data.
    pub fn resident_lines(&self) -> usize {
        self.lines.iter().filter(|(_, line)| line.resident).count()
    }
}

/// Re-export used by `write_line`; kept public for tooling.
pub use crate::write_reduction::diff_bits as line_diff_bits;

/// The device before its line records: data, Flip-N-Write state and
/// wear each in a map of their own. Kept as the oracle that
/// `page_indexed_store_matches_the_three_map_device` drives in lockstep with
/// [`NvmDevice`].
#[cfg(test)]
mod reference {
    use std::collections::{BTreeMap, BTreeSet};

    use ss_common::{BlockAddr, DetRng, Error, Result, LINE_SIZE};

    use super::{MemoryKind, NvmConfig, NvmStats};
    use crate::ecc::LineRead;

    pub(super) struct ThreeMapDevice {
        config: NvmConfig,
        lines: BTreeMap<u64, [u8; LINE_SIZE]>,
        flip_bits: BTreeMap<u64, [bool; LINE_SIZE / 4]>,
        wear: BTreeMap<u64, u64>,
        pub(super) total_writes: u64,
        pub(super) stats: NvmStats,
        failed: BTreeMap<u64, u32>,
        injected: BTreeMap<u64, u32>,
        fault_rng: DetRng,
        p_line_threshold: u64,
        burst_threshold: u64,
    }

    impl ThreeMapDevice {
        pub(super) fn new(config: NvmConfig) -> Self {
            let fault_rng = DetRng::new(config.fault_seed ^ 0x7A17_FAD5_EED0_0BE5);
            let p_line = (config.transient_read_ber * (LINE_SIZE * 8) as f64).min(1.0);
            ThreeMapDevice {
                config,
                lines: BTreeMap::new(),
                flip_bits: BTreeMap::new(),
                wear: BTreeMap::new(),
                total_writes: 0,
                stats: NvmStats::default(),
                failed: BTreeMap::new(),
                injected: BTreeMap::new(),
                fault_rng,
                p_line_threshold: DetRng::threshold(p_line),
                burst_threshold: DetRng::threshold(0.2),
            }
        }

        fn check_range(&self, addr: BlockAddr) -> Result<()> {
            if addr.raw() + LINE_SIZE as u64 > self.config.capacity_bytes {
                Err(Error::AddrOutOfRange {
                    addr: addr.addr(),
                    capacity: self.config.capacity_bytes,
                })
            } else {
                Ok(())
            }
        }

        pub(super) fn read_line(&mut self, addr: BlockAddr) -> Result<LineRead> {
            self.check_range(addr)?;
            self.stats.reads.inc();
            self.stats.energy_pj += self.config.energy.read_pj;
            let data = self.peek(addr);
            let flipped = self.error_bits(addr);
            if flipped.is_empty() {
                return Ok(LineRead::Clean(data));
            }
            let flips = flipped.len() as u32;
            let ecc = self.config.ecc;
            if flips <= ecc.correct {
                self.stats.ecc_corrected_reads.inc();
                self.stats.ecc_corrected_bits += u64::from(flips);
                Ok(LineRead::Corrected { data, flips })
            } else if flips <= ecc.detect {
                self.stats.ecc_uncorrectable_reads.inc();
                Err(Error::UncorrectableEcc {
                    addr: addr.addr(),
                    flips,
                })
            } else {
                self.stats.ecc_silent_escapes.inc();
                let mut garbled = data;
                for bit in flipped {
                    garbled[bit / 8] ^= 1 << (bit % 8);
                }
                Ok(LineRead::Clean(garbled))
            }
        }

        fn error_bits(&mut self, addr: BlockAddr) -> Vec<usize> {
            let mut bits: BTreeSet<usize> = BTreeSet::new();
            if let Some(&weak) = self.failed.get(&addr.raw()) {
                let mut rng = DetRng::new(
                    self.config
                        .fault_seed
                        .wrapping_add(addr.raw().wrapping_mul(0x9E37_79B9_7F4A_7C15))
                        ^ 0x5EAF_CE11_F1A7_B175,
                );
                let weak = (weak as usize).min(LINE_SIZE * 8);
                while bits.len() < weak {
                    bits.insert(rng.below((LINE_SIZE * 8) as u64) as usize);
                }
            }
            if let Some(flips) = self.injected.remove(&addr.raw()) {
                let want = (bits.len() + flips as usize).min(LINE_SIZE * 8);
                while bits.len() < want {
                    bits.insert(self.fault_rng.below((LINE_SIZE * 8) as u64) as usize);
                }
            }
            if self.p_line_threshold > 0 && self.fault_rng.coin(self.p_line_threshold) {
                let n = if self.fault_rng.coin(self.burst_threshold) {
                    2
                } else {
                    1
                };
                let want = (bits.len() + n).min(LINE_SIZE * 8);
                while bits.len() < want {
                    bits.insert(self.fault_rng.below((LINE_SIZE * 8) as u64) as usize);
                }
            }
            bits.into_iter().collect()
        }

        pub(super) fn inject_read_error(&mut self, addr: BlockAddr, flips: u32) {
            if flips > 0 {
                self.injected.insert(addr.raw(), flips);
            }
        }

        pub(super) fn fail_line(&mut self, addr: BlockAddr, weak_bits: u32) {
            let raw = addr.raw();
            if !self.failed.contains_key(&raw) {
                self.stats.failed_lines += 1;
            }
            let entry = self.failed.entry(raw).or_insert(0);
            *entry = (*entry).max(weak_bits.max(1));
        }

        pub(super) fn write_line(&mut self, addr: BlockAddr, data: &[u8; LINE_SIZE]) -> Result<()> {
            self.check_range(addr)?;
            self.stats.writes.inc();
            let old = self.peek(addr);
            let flips = self
                .flip_bits
                .entry(addr.raw())
                .or_insert([false; LINE_SIZE / 4]);
            let outcome = self.config.write_scheme.apply(&old, data, flips);
            self.stats.bits_written += u64::from(outcome.bits_written);
            self.stats.energy_pj += self.config.energy.write_energy_pj(outcome.bits_written);
            if outcome.skipped {
                self.stats.skipped_writes.inc();
            } else {
                let wear = self.wear.entry(addr.raw()).or_insert(0);
                *wear += 1;
                self.total_writes += 1;
                if let Some(limit) = self.config.endurance_limit {
                    let wear = *wear;
                    if wear > limit {
                        let weak = 1 + ((wear - limit - 1) / limit.max(1)) as u32;
                        if !self.failed.contains_key(&addr.raw()) {
                            self.stats.failed_lines += 1;
                        }
                        let entry = self.failed.entry(addr.raw()).or_insert(0);
                        *entry = (*entry).max(weak);
                    }
                }
            }
            self.lines.insert(addr.raw(), *data);
            Ok(())
        }

        fn peek(&self, addr: BlockAddr) -> [u8; LINE_SIZE] {
            self.lines
                .get(&addr.raw())
                .copied()
                .unwrap_or([0u8; LINE_SIZE])
        }

        pub(super) fn power_cycle(&mut self) {
            self.stats.power_cycles += 1;
            if self.config.kind == MemoryKind::Dram {
                self.lines.clear();
                self.flip_bits.clear();
            }
        }

        pub(super) fn cold_scan(&self) -> Vec<(BlockAddr, [u8; LINE_SIZE])> {
            let mut addrs: Vec<_> = self.lines.keys().copied().collect();
            addrs.sort_unstable();
            addrs
                .into_iter()
                .map(|a| (BlockAddr::new(a), self.lines[&a]))
                .collect()
        }

        pub(super) fn tamper(&mut self, addr: BlockAddr, data: [u8; LINE_SIZE]) {
            self.lines.insert(addr.raw(), data);
        }

        pub(super) fn flip_bit(&mut self, addr: BlockAddr, bit: usize) {
            let line = self.lines.entry(addr.raw()).or_insert([0u8; LINE_SIZE]);
            line[bit / 8] ^= 1 << (bit % 8);
        }

        pub(super) fn resident_lines(&self) -> usize {
            self.lines.len()
        }

        pub(super) fn max_wear(&self) -> Option<(BlockAddr, u64)> {
            self.wear
                .iter()
                .max_by_key(|&(addr, &n)| (n, std::cmp::Reverse(*addr)))
                .map(|(&a, &n)| (BlockAddr::new(a), n))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dev() -> NvmDevice {
        NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            ..NvmConfig::default()
        })
    }

    #[test]
    fn unwritten_lines_read_zero() {
        let mut d = dev();
        assert_eq!(
            d.read_line(BlockAddr::new(0)).unwrap(),
            LineRead::Clean([0u8; LINE_SIZE])
        );
    }

    #[test]
    fn write_read_roundtrip() {
        let mut d = dev();
        let a = BlockAddr::new(128);
        d.write_line(a, &[9u8; LINE_SIZE]).unwrap();
        assert_eq!(d.read_line(a).unwrap().into_data(), [9u8; LINE_SIZE]);
        assert_eq!(d.stats().reads.get(), 1);
        assert_eq!(d.stats().writes.get(), 1);
    }

    #[test]
    fn out_of_range_rejected() {
        let mut d = dev();
        let oob = BlockAddr::new(1 << 20);
        assert!(matches!(
            d.read_line(oob),
            Err(Error::AddrOutOfRange { .. })
        ));
        assert!(matches!(
            d.write_line(oob, &[0u8; LINE_SIZE]),
            Err(Error::AddrOutOfRange { .. })
        ));
    }

    #[test]
    fn dram_loses_contents_at_power_off() {
        let mut d = NvmDevice::new(NvmDevice::dram_config(1 << 20));
        let a = BlockAddr::new(64);
        d.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        d.power_cycle();
        assert_eq!(
            d.read_line(a).unwrap().into_data(),
            [0u8; LINE_SIZE],
            "DRAM retained data"
        );
        assert!(d.cold_scan().next().is_none(), "cold scan found DRAM data");
    }

    #[test]
    fn remanence_across_power_cycle() {
        let mut d = dev();
        let a = BlockAddr::new(64);
        d.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        d.power_cycle();
        assert_eq!(d.read_line(a).unwrap().into_data(), [0xEE; LINE_SIZE]);
        assert_eq!(d.stats().power_cycles, 1);
    }

    #[test]
    fn power_cycle_volatile_set_is_lines_and_flip_state_only() {
        // Pins the exact DRAM-drop semantics the crash harness leans on:
        // a power cycle clears the stored lines (and the FNW flip state
        // that travels with them) for DRAM, while lifetime accounting —
        // stats and cell wear — survives in both kinds, because it
        // models the controller's bookkeeping, not charge in the array.
        let mut d = NvmDevice::new(NvmConfig {
            write_scheme: WriteScheme::Dcw,
            ..NvmDevice::dram_config(1 << 20)
        });
        let a = BlockAddr::new(64);
        d.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        let wear = d.wear().total_writes();
        d.power_cycle();
        assert_eq!(d.read_line(a).unwrap().into_data(), [0u8; LINE_SIZE]);
        // An identical rewrite is NOT skipped: DCW compares against the
        // post-cycle zeros, so the stored line really dropped.
        d.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        assert_eq!(d.stats().skipped_writes.get(), 0);
        assert_eq!(d.stats().writes.get(), 2, "stats survive the cycle");
        assert!(d.wear().total_writes() > wear, "wear survives the cycle");

        // NVM under the same scheme: the line persists, so the identical
        // rewrite IS skipped — remanence is the mirror image of the
        // DRAM drop.
        let mut n = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            write_scheme: WriteScheme::Dcw,
            ..NvmConfig::default()
        });
        n.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        n.power_cycle();
        n.write_line(a, &[0xEE; LINE_SIZE]).unwrap();
        assert_eq!(n.stats().skipped_writes.get(), 1);
        assert_eq!(n.stats().power_cycles, 1);
    }

    #[test]
    fn cold_scan_sees_everything_in_order() {
        let mut d = dev();
        d.write_line(BlockAddr::new(192), &[2u8; LINE_SIZE])
            .unwrap();
        d.write_line(BlockAddr::new(64), &[1u8; LINE_SIZE]).unwrap();
        let scanned: Vec<_> = d.cold_scan().map(|(a, l)| (a.raw(), l[0])).collect();
        assert_eq!(scanned, vec![(64, 1), (192, 2)]);
    }

    #[test]
    fn dcw_device_skips_identical_writes() {
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            write_scheme: WriteScheme::Dcw,
            ..NvmConfig::default()
        });
        let a = BlockAddr::new(0);
        d.write_line(a, &[5u8; LINE_SIZE]).unwrap();
        d.write_line(a, &[5u8; LINE_SIZE]).unwrap();
        assert_eq!(d.stats().skipped_writes.get(), 1);
        assert_eq!(d.wear().total_writes(), 1);
    }

    #[test]
    fn energy_accumulates() {
        let mut d = dev();
        let e0 = d.stats().energy_pj;
        d.write_line(BlockAddr::new(0), &[0xFF; LINE_SIZE]).unwrap();
        let e1 = d.stats().energy_pj;
        assert!(e1 > e0);
        d.read_line(BlockAddr::new(0)).unwrap();
        assert!(d.stats().energy_pj > e1);
    }

    #[test]
    fn tamper_bypasses_stats() {
        let mut d = dev();
        d.tamper(BlockAddr::new(0), [0xAB; LINE_SIZE]);
        assert_eq!(d.stats().writes.get(), 0);
        assert_eq!(d.peek(BlockAddr::new(0)), [0xAB; LINE_SIZE]);
    }

    #[test]
    fn reset_stats_keeps_contents_and_wear() {
        let mut d = dev();
        d.write_line(BlockAddr::new(0), &[1u8; LINE_SIZE]).unwrap();
        d.reset_stats();
        assert_eq!(d.stats().writes.get(), 0);
        assert_eq!(d.peek(BlockAddr::new(0)), [1u8; LINE_SIZE]);
        assert_eq!(d.wear().total_writes(), 1);
    }

    /// Pins the documented accept-write / fail-read contract of
    /// `endurance_limit`: writes past the limit are always accepted
    /// (never an error), and it is *reads* that degrade — first as
    /// ECC-corrected, then (more weak cells) as uncorrectable.
    #[test]
    fn endurance_limit_accepts_writes_fails_reads() {
        let limit = 3u64;
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            endurance_limit: Some(limit),
            ..NvmConfig::default()
        });
        let a = BlockAddr::new(0);
        for i in 0..3 {
            d.write_line(a, &[i; LINE_SIZE]).unwrap();
            assert!(!d.is_failed(a), "failed too early at write {i}");
            assert_eq!(d.read_line(a).unwrap(), LineRead::Clean([i; LINE_SIZE]));
        }
        // The 4th write exceeds the limit. It is still ACCEPTED and the
        // data is stored — wear-out never errors the write path.
        d.write_line(a, &[0xF0; LINE_SIZE]).unwrap();
        assert!(d.is_failed(a));
        assert_eq!(d.stats().failed_lines, 1);
        assert_eq!(d.weak_bit_count(a), 1);
        assert_eq!(d.peek(a), [0xF0; LINE_SIZE]);
        // One weak cell is within SECDED's correction bound: the read
        // succeeds with repaired data and reports the flip.
        assert_eq!(
            d.read_line(a).unwrap(),
            LineRead::Corrected {
                data: [0xF0; LINE_SIZE],
                flips: 1
            }
        );
        assert_eq!(d.stats().ecc_corrected_reads.get(), 1);
        // Keep writing: every further `limit` writes grows another weak
        // cell. Writes are STILL accepted; reads eventually turn
        // uncorrectable.
        for i in 0..limit {
            d.write_line(a, &[i as u8; LINE_SIZE]).unwrap();
        }
        assert_eq!(d.weak_bit_count(a), 2);
        assert!(matches!(
            d.read_line(a),
            Err(Error::UncorrectableEcc { flips: 2, .. })
        ));
        assert_eq!(d.stats().ecc_uncorrectable_reads.get(), 1);
        // Unrelated lines are unaffected.
        let b = BlockAddr::new(64);
        d.write_line(b, &[7; LINE_SIZE]).unwrap();
        assert_eq!(d.read_line(b).unwrap(), LineRead::Clean([7; LINE_SIZE]));
    }

    #[test]
    fn weak_cell_positions_are_stable() {
        let mut d = dev();
        let a = BlockAddr::new(256);
        d.write_line(a, &[0x5A; LINE_SIZE]).unwrap();
        d.fail_line(a, 1);
        let first = d.read_line(a).unwrap();
        let second = d.read_line(a).unwrap();
        assert_eq!(first, second, "weak cells moved between reads");
        assert_eq!(first.flips(), 1);
        assert_eq!(*first.data(), [0x5A; LINE_SIZE]);
    }

    #[test]
    fn injected_read_error_is_one_shot() {
        let mut d = dev();
        let a = BlockAddr::new(0);
        d.write_line(a, &[3; LINE_SIZE]).unwrap();
        // Two flips: detected but uncorrectable under SECDED.
        d.inject_read_error(a, 2);
        assert!(matches!(
            d.read_line(a),
            Err(Error::UncorrectableEcc { flips: 2, .. })
        ));
        // The transient is consumed: a retry succeeds.
        assert_eq!(d.read_line(a).unwrap(), LineRead::Clean([3; LINE_SIZE]));
        // A single-bit transient is corrected inline.
        d.inject_read_error(a, 1);
        let r = d.read_line(a).unwrap();
        assert!(r.was_corrected());
        assert_eq!(*r.data(), [3; LINE_SIZE]);
        // clear_injected_error cancels a pending fault.
        d.inject_read_error(a, 2);
        assert!(d.clear_injected_error(a));
        assert!(!d.clear_injected_error(a));
        assert_eq!(d.read_line(a).unwrap(), LineRead::Clean([3; LINE_SIZE]));
    }

    #[test]
    fn disabled_ecc_serves_silent_garbage() {
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            ecc: EccConfig::disabled(),
            ..NvmConfig::default()
        });
        let a = BlockAddr::new(0);
        d.write_line(a, &[0xAA; LINE_SIZE]).unwrap();
        d.inject_read_error(a, 1);
        // No ECC: the flip escapes silently as a "clean" read.
        let r = d.read_line(a).unwrap();
        assert!(!r.was_corrected());
        assert_ne!(r.into_data(), [0xAA; LINE_SIZE]);
        assert_eq!(d.stats().ecc_silent_escapes.get(), 1);
    }

    #[test]
    fn beyond_detection_bound_aliases_silently() {
        let mut d = dev();
        let a = BlockAddr::new(0);
        d.write_line(a, &[0; LINE_SIZE]).unwrap();
        d.inject_read_error(a, 3);
        let r = d.read_line(a).unwrap();
        assert!(!r.was_corrected(), "3 flips must alias, not correct");
        let wrong: usize = r.data().iter().map(|b| b.count_ones() as usize).sum();
        assert_eq!(wrong, 3, "exactly the injected flips leak through");
        assert_eq!(d.stats().ecc_silent_escapes.get(), 1);
    }

    #[test]
    fn transient_ber_stream_is_deterministic() {
        let cfg = NvmConfig {
            capacity_bytes: 1 << 20,
            transient_read_ber: 1e-3,
            fault_seed: 7,
            ..NvmConfig::default()
        };
        let run = |mut d: NvmDevice| -> Vec<u32> {
            let a = BlockAddr::new(0);
            d.write_line(a, &[1; LINE_SIZE]).unwrap();
            (0..64)
                .map(|_| match d.read_line(a) {
                    Ok(r) => r.flips(),
                    Err(_) => u32::MAX,
                })
                .collect()
        };
        let a = run(NvmDevice::new(cfg.clone()));
        let b = run(NvmDevice::new(cfg));
        assert_eq!(a, b, "same seed must give the same transient stream");
        assert!(
            a.iter().any(|&f| f > 0),
            "a 1e-3 BER over 64 reads should fire at least once"
        );
    }

    #[test]
    fn dcw_skips_do_not_wear_cells() {
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            write_scheme: WriteScheme::Dcw,
            endurance_limit: Some(2),
            ..NvmConfig::default()
        });
        let a = BlockAddr::new(0);
        d.write_line(a, &[5; LINE_SIZE]).unwrap();
        // Identical rewrites are skipped by DCW and cost no endurance.
        for _ in 0..10 {
            d.write_line(a, &[5; LINE_SIZE]).unwrap();
        }
        assert!(!d.is_failed(a));
    }

    #[test]
    fn page_indexed_store_matches_the_three_map_device() {
        // Three whole pages and a fourth cut at block 20, so the page
        // index, both ends of a page's slot map and the capacity edge
        // are all reached. Five slots are out of range: three on page 3 and
        // two on page 5, past the index, which `tamper` and `flip_bit`
        // make grow.
        let capacity = (3 * BLOCKS_PER_PAGE + 20) as u64 * LINE_SIZE as u64;
        let slots: Vec<BlockAddr> = (0..4)
            .flat_map(|page| [0, 1, 19, 20, 62, 63].map(|block| (page, block)))
            .chain([(5, 0), (5, 63)])
            .map(|(page, block)| BlockAddr::new((page * 64 + block) * LINE_SIZE as u64))
            .collect();
        let schemes = [WriteScheme::Raw, WriteScheme::Dcw, WriteScheme::FlipNWrite];
        for (i, (scheme, kind)) in schemes
            .into_iter()
            .flat_map(|s| [MemoryKind::Nvm, MemoryKind::Dram].map(|k| (s, k)))
            .enumerate()
        {
            let config = NvmConfig {
                capacity_bytes: capacity,
                write_scheme: scheme,
                kind,
                endurance_limit: Some(6),
                transient_read_ber: 2e-4,
                fault_seed: i as u64,
                ..NvmConfig::default()
            };
            let mut dev = NvmDevice::new(config.clone());
            let mut oracle = reference::ThreeMapDevice::new(config);
            let mut rng = DetRng::new(0xDE_71CE + i as u64);
            // A few stored patterns, so DCW and FNW see identical and
            // near-identical rewrites as well as random ones.
            let mut patterns = [[0u8; LINE_SIZE], [0xFF; LINE_SIZE], [0u8; LINE_SIZE]];
            let mut scanned_past_the_index = false;
            rng.fill_bytes(&mut patterns[2]);
            for step in 0..4000 {
                let addr = slots[rng.below(slots.len() as u64) as usize];
                match rng.below(16) {
                    0..=5 => {
                        let mut data = patterns[rng.below(3) as usize];
                        for _ in 0..rng.below(4) {
                            data[rng.below(LINE_SIZE as u64) as usize] ^= 1;
                        }
                        assert_eq!(dev.write_line(addr, &data), oracle.write_line(addr, &data));
                    }
                    6..=10 => {
                        assert_eq!(dev.read_line(addr), oracle.read_line(addr), "step {step}")
                    }
                    11 => {
                        let mut data = [0u8; LINE_SIZE];
                        rng.fill_bytes(&mut data);
                        dev.tamper(addr, data);
                        oracle.tamper(addr, data);
                    }
                    12 => {
                        let bit = rng.below(LINE_SIZE as u64 * 8) as usize;
                        dev.flip_bit(addr, bit);
                        oracle.flip_bit(addr, bit);
                    }
                    13 => {
                        let weak = rng.below(3) as u32;
                        dev.fail_line(addr, weak);
                        oracle.fail_line(addr, weak);
                    }
                    14 => {
                        let flips = rng.below(4) as u32;
                        dev.inject_read_error(addr, flips);
                        oracle.inject_read_error(addr, flips);
                    }
                    _ => {
                        dev.power_cycle();
                        oracle.power_cycle();
                    }
                }
                assert_eq!(
                    dev.stats(),
                    &oracle.stats,
                    "{scheme:?} {kind:?} step {step}"
                );
                assert_eq!(dev.resident_lines(), oracle.resident_lines());
                assert_eq!(dev.wear().max_wear(), oracle.max_wear());
                assert_eq!(dev.wear().total_writes(), oracle.total_writes);
                let scan: Vec<_> = dev.cold_scan().map(|(a, l)| (a, *l)).collect();
                assert_eq!(scan, oracle.cold_scan(), "{scheme:?} {kind:?} step {step}");
                scanned_past_the_index |= scan.iter().any(|(a, _)| a.page().raw() == 5);
            }
            // Every path the sequence can take was taken.
            assert!(scanned_past_the_index);
            let st = oracle.stats;
            assert!(st.failed_lines > 0 && st.power_cycles > 0);
            assert!(st.ecc_corrected_reads.get() > 0 && st.ecc_uncorrectable_reads.get() > 0);
            assert!(st.ecc_silent_escapes.get() > 0);
            assert_eq!(st.skipped_writes.get() > 0, scheme != WriteScheme::Raw);
        }
    }

    #[test]
    fn line_store_spans_many_chunks() {
        // 40 pages and about 530 records: three chunks of slot maps and
        // nine of records, first written in a seeded order.
        let pages = 40u64;
        let mut store = LineStore::new(pages * PAGE_SIZE as u64);
        let mut model = BTreeMap::new();
        let mut rng = DetRng::new(0x11_5702E);
        for i in 0..600 {
            let block = rng.below(pages * BLOCKS_PER_PAGE as u64);
            let addr = BlockAddr::new(block * LINE_SIZE as u64);
            store.get_or_insert(addr).unwrap().wear = i;
            model.insert(addr, i);
        }
        assert!(model.len() > 8 * BLOCKS_PER_PAGE);
        for block in 0..pages * BLOCKS_PER_PAGE as u64 {
            let addr = BlockAddr::new(block * LINE_SIZE as u64);
            assert_eq!(store.get(addr).map(|r| r.wear), model.get(&addr).copied());
        }
        let walked: Vec<_> = store.iter().map(|(a, r)| (a, r.wear)).collect();
        assert_eq!(walked, model.into_iter().collect::<Vec<_>>());
        assert_eq!(store.records_mut().count(), walked.len());
    }

    #[test]
    fn diff_bits_reexport() {
        assert_eq!(line_diff_bits(&[0u8; LINE_SIZE], &[1u8; LINE_SIZE]), 64);
    }
}
