//! Counter-mode encryption (§2.2, §4), the paper's protection mode, and
//! the two direct baselines it is measured against: `Plain` (cleartext
//! at rest) and `Ecb` (direct AES).
//!
//! This module owns the AES engines and the DEUCE chunk state, and the
//! `Ctr` and direct (`Plain`/`Ecb`) arm of every controller operation:
//! read, write, shred, in-device zeroing and the rescue of a degrading
//! line. Those share one minor-counter bump and one page re-encryption,
//! the work an overflow forces (§4.2).

use std::collections::BTreeMap;

use ss_common::{BlockAddr, Cycles, PageId, Result, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_crypto::{CtrEngine, EcbEngine, Line};
use ss_trace::{Stage, TraceEvent};

use super::{MemoryController, ReadResult};
use crate::config::ProtectionMode;
use crate::counters::{BumpOutcome, CounterBlock};
use crate::deuce::{self, DeuceMeta, CHUNKS};

/// The AES engines and DEUCE chunk state of the encrypted modes. Both
/// engines are built at boot from the processor key; the mode picks
/// which one a path uses.
#[derive(Debug)]
pub(super) struct CounterMode {
    ctr: CtrEngine,
    ecb: EcbEngine,
    /// DEUCE chunk metadata per logical line. A line without an entry
    /// decrypts under its current minor counter throughout.
    deuce_meta: BTreeMap<u64, DeuceMeta>,
}

impl CounterMode {
    pub(super) fn new(key: [u8; 16]) -> Self {
        CounterMode {
            ctr: CtrEngine::new(key),
            ecb: EcbEngine::new(key),
            deuce_meta: BTreeMap::new(),
        }
    }
}

impl MemoryController {
    // ------------------------------------------------------------------
    // Direct modes: `Plain` stores cleartext, `Ecb` one AES block per
    // 16 bytes. No per-line metadata, so no shredder.
    // ------------------------------------------------------------------

    /// The stored form of `plain` under a direct mode: ECB ciphertext,
    /// or the cleartext itself under `Plain`.
    pub(super) fn direct_seal(&self, plain: &Line) -> Line {
        match self.config.protection {
            ProtectionMode::Ecb => self.cipher.ecb.encrypt_line(plain),
            _ => *plain,
        }
    }

    /// The plaintext behind a direct mode's `stored` line.
    pub(super) fn direct_open(&self, stored: &Line) -> Line {
        match self.config.protection {
            ProtectionMode::Ecb => self.cipher.ecb.decrypt_line(stored),
            _ => *stored,
        }
    }

    /// Direct-mode read. Under ECB the AES latency is serialised after
    /// the array access (§2.2's performance argument against ECB).
    pub(super) fn direct_read(&mut self, addr: BlockAddr, now: Cycles) -> Result<ReadResult> {
        let mut latency = self.sched(now, self.config.nvm_timing.read_cycles());
        self.profile.charge(Stage::NvmRead, latency);
        if self.config.protection == ProtectionMode::Ecb {
            self.profile.charge(Stage::AesEcb, self.config.aes_latency);
            latency += self.config.aes_latency;
        }
        let stored = self.nvm_read_data(addr)?;
        self.stats.mem.reads.inc();
        Ok(ReadResult {
            data: self.direct_open(&stored),
            latency,
            zero_filled: false,
        })
    }

    /// Direct-mode demand write.
    pub(super) fn direct_write(&mut self, addr: BlockAddr, data: &Line, now: Cycles) -> Result<()> {
        if self.config.protection == ProtectionMode::Ecb {
            self.profile.charge(Stage::AesEcb, self.config.aes_latency);
        }
        let stored = self.direct_seal(data);
        self.issue_data_write(addr, &stored, now)
    }

    /// Direct-mode in-device zeroing of one line.
    pub(super) fn direct_zero_line(&mut self, addr: BlockAddr) -> Result<()> {
        let stored = self.direct_seal(&[0u8; LINE_SIZE]);
        self.nvm_write_data(addr, &stored)
    }

    /// Direct-mode rescue: the stored line moves to a spare as it is.
    pub(super) fn direct_rescue_remap(
        &mut self,
        dev: BlockAddr,
        slot: BlockAddr,
        now: Cycles,
    ) -> Result<()> {
        let Some(stored) = self.rescue_read(slot)? else {
            return self.fail_remap(dev);
        };
        self.move_to_spare(dev, Some(&stored), now, |_| Ok(()))
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

    // ------------------------------------------------------------------
    // Counter mode (Fig. 6, Fig. 7).
    // ------------------------------------------------------------------

    fn chunk_minors(&self, addr: BlockAddr, current_minor: u8) -> [u8; CHUNKS] {
        match self.cipher.deuce_meta.get(&addr.raw()) {
            Some(meta) => core::array::from_fn(|i| meta.chunk_minor(i, current_minor)),
            None => [current_minor; CHUNKS],
        }
    }

    /// Decrypts the line stored at `addr` under `ctrs` (chunk by chunk
    /// when DEUCE is on).
    pub(super) fn decrypt_ctr(&self, addr: BlockAddr, ctrs: &CounterBlock, cipher: &Line) -> Line {
        let engine = &self.cipher.ctr;
        let page = addr.page();
        let block = addr.block_in_page();
        if self.config.deuce {
            let minors = self.chunk_minors(addr, ctrs.minors[block]);
            deuce::decrypt_chunked(engine, page.raw(), block as u8, ctrs.major, minors, cipher)
        } else {
            engine.decrypt_line(&ctrs.iv(page.raw(), block), cipher)
        }
    }

    /// Encrypts a whole line for `addr` under `ctrs`' IV and restarts its
    /// DEUCE epoch.
    fn encrypt_fresh(&mut self, addr: BlockAddr, ctrs: &CounterBlock, plain: &Line) -> Line {
        self.cipher.deuce_meta.remove(&addr.raw());
        self.cipher
            .ctr
            .encrypt_line(&ctrs.iv(addr.page().raw(), addr.block_in_page()), plain)
    }

    /// Fig. 7 step 3b: a dead block (a zero minor counter, which the
    /// scattered mode reuses as its liveness bit) reads as zeros without
    /// touching the array; the metadata fetch is the whole latency.
    pub(super) fn zero_fill_read(
        &mut self,
        addr: BlockAddr,
        latency: Cycles,
        now: Cycles,
    ) -> ReadResult {
        self.stats.mem.zero_fill_reads.inc();
        self.profile.charge(Stage::ZeroFill, latency);
        self.tracer.emit(now, || TraceEvent::ZeroFillRead { addr });
        ReadResult {
            data: [0u8; LINE_SIZE],
            latency,
            zero_filled: true,
        }
    }

    /// Counter-mode read (Fig. 7). A zero minor counter zero-fills
    /// without touching the array (step 3b). Otherwise pad generation
    /// overlaps the array read and only the XOR is serialised (§2.2).
    pub(super) fn ctr_read(&mut self, addr: BlockAddr, now: Cycles) -> Result<ReadResult> {
        let (ctrs, ctr_lat) = self.fetch_counters(addr.page(), now)?;
        if self.config.shredder && ctrs.is_shredded(addr.block_in_page()) {
            return Ok(self.zero_fill_read(addr, ctr_lat, now));
        }
        let read_lat = self.sched(now + ctr_lat, self.config.nvm_timing.read_cycles());
        self.profile.charge(Stage::NvmRead, read_lat);
        self.profile.charge(Stage::AesCtr, self.config.xor_latency);
        let latency = ctr_lat + read_lat + self.config.xor_latency;
        let cipher = self.nvm_read_data(addr)?;
        self.stats.mem.reads.inc();
        Ok(ReadResult {
            data: self.decrypt_ctr(addr, &ctrs, &cipher),
            latency,
            zero_filled: false,
        })
    }

    /// Counter-mode demand write: a fresh IV, the ciphertext, then the
    /// counters.
    pub(super) fn ctr_write(&mut self, addr: BlockAddr, data: &Line, now: Cycles) -> Result<()> {
        let (old_ctrs, _) = self.fetch_counters(addr.page(), now)?;
        let ctrs = self.bump_minor(addr, &old_ctrs, now)?;
        self.profile.charge(Stage::AesCtr, self.config.xor_latency);
        let cipher = if self.config.deuce {
            self.deuce_write_cipher(addr, &old_ctrs, &ctrs, data)
        } else {
            self.encrypt_fresh(addr, &ctrs, data)
        };
        self.issue_data_write(addr, &cipher, now)?;
        self.install_counters(addr.page(), ctrs, true, now)
    }

    /// Counter-mode in-device zeroing of one line: encrypted zeros under
    /// a fresh IV, off the bus.
    pub(super) fn ctr_zero_line(&mut self, addr: BlockAddr, now: Cycles) -> Result<()> {
        let (old_ctrs, _) = self.fetch_counters(addr.page(), now)?;
        let ctrs = self.bump_minor(addr, &old_ctrs, now)?;
        let cipher = self.encrypt_fresh(addr, &ctrs, &[0u8; LINE_SIZE]);
        self.nvm_write_data(addr, &cipher)?;
        self.install_counters(addr.page(), ctrs, true, now)
    }

    /// Counter-mode rescue of the degrading line at `addr`. A shredded
    /// block has no content to rescue, and its minor counter must STAY
    /// zero — bumping it would turn zero-fill reads back into array
    /// reads of stale ciphertext — so only its worn slot is retired. A
    /// live block's plaintext is re-encrypted under a fresh IV, exactly
    /// like a demand write, so it never reuses a (page, block, counter)
    /// tuple. Commit order: spare ciphertext first, then the counter +
    /// Merkle update makes the new IV authoritative; a crash in between
    /// leaves the old mapping decodable under the old counters.
    pub(super) fn ctr_rescue_remap(
        &mut self,
        addr: BlockAddr,
        dev: BlockAddr,
        slot: BlockAddr,
        now: Cycles,
    ) -> Result<()> {
        let page = addr.page();
        let (ctrs, _) = self.fetch_counters(page, now)?;
        if self.config.shredder && ctrs.is_shredded(addr.block_in_page()) {
            return self.move_to_spare(dev, None, now, |_| Ok(()));
        }
        let Some(cipher) = self.rescue_read(slot)? else {
            return self.fail_remap(dev);
        };
        let plain = self.decrypt_ctr(addr, &ctrs, &cipher);
        let new_ctrs = self.bump_minor(addr, &ctrs, now)?;
        let new_cipher = self.encrypt_fresh(addr, &new_ctrs, &plain);
        self.move_to_spare(dev, Some(&new_cipher), now, |mc| {
            mc.install_counters(page, new_ctrs, true, now)
        })
    }

    /// Counter-mode shred core (Fig. 6 steps 3–5): applies the shred
    /// strategy to the page's counters and returns the counter-fetch
    /// latency.
    pub(super) fn ctr_shred_page(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        let (old_ctrs, latency) = self.fetch_counters(page, now)?;
        let mut ctrs = old_ctrs;
        if ctrs.shred(self.config.shred_strategy) {
            // Only ShredStrategy::MinorIncrementAll overflows, and no
            // single block is exempt from its re-encryption.
            self.reencrypt_page(page, &old_ctrs, &ctrs, None, now)?;
        }
        // Drop DEUCE state: the page restarts from scratch.
        for b in 0..BLOCKS_PER_PAGE {
            self.cipher.deuce_meta.remove(&page.block_addr(b).raw());
        }
        self.install_counters(page, ctrs, true, now)?;
        Ok(latency)
    }

    /// Advances `addr`'s minor counter for a write of fresh ciphertext
    /// (§4.2) and returns the new counters; the caller installs them
    /// after the write. On overflow the major counter advances and every
    /// other live block of the page is re-encrypted under the new IVs.
    fn bump_minor(
        &mut self,
        addr: BlockAddr,
        ctrs: &CounterBlock,
        now: Cycles,
    ) -> Result<CounterBlock> {
        let (page, block) = (addr.page(), addr.block_in_page());
        let mut bumped = *ctrs;
        if bumped.bump_for_write(block) == BumpOutcome::Overflowed {
            self.tracer.emit(now, || TraceEvent::CounterOverflow {
                page,
                block: block as u8,
            });
            self.reencrypt_page(page, ctrs, &bumped, Some(block), now)?;
        }
        Ok(bumped)
    }

    /// Re-encrypts every block of `page` that is live under `old` with
    /// `new`'s IVs (§4.2): read, decrypt, encrypt, write back. Shredded
    /// blocks stay shredded at no cost.
    ///
    /// A minor overflow on the write path names the `written` block,
    /// whose fresh ciphertext its caller supplies: queued writes to the
    /// page drain first, and every other block's plaintext carries over,
    /// decrypted under `old`. An option-1 shred (`written` is `None`)
    /// must not carry the page's contents over, so it decrypts under
    /// `new`: the old plaintext never comes back under fresh IVs.
    fn reencrypt_page(
        &mut self,
        page: PageId,
        old: &CounterBlock,
        new: &CounterBlock,
        written: Option<usize>,
        now: Cycles,
    ) -> Result<()> {
        self.stats.reencryptions.inc();
        let decrypt_under = match written {
            Some(_) => {
                self.drain_queue_fully(now)?;
                old
            }
            None => new,
        };
        for b in 0..BLOCKS_PER_PAGE {
            if written == Some(b) || old.is_shredded(b) {
                continue;
            }
            let addr = page.block_addr(b);
            self.sched(now, self.config.nvm_timing.read_cycles());
            let cipher = self.nvm_read_data(addr)?;
            self.stats.mem.reads.inc();
            let plain = self.decrypt_ctr(addr, decrypt_under, &cipher);
            let new_cipher = self.encrypt_fresh(addr, new, &plain);
            self.sched(now, self.config.nvm_timing.write_cycles());
            self.nvm_write_data(addr, &new_cipher)?;
            self.stats.mem.writes.inc();
        }
        Ok(())
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
        let page = addr.page();
        let block = addr.block_in_page();
        let new_minor = new_ctrs.minors[block];
        let major_changed = new_ctrs.major != old_ctrs.major;
        let epoch_rollover = new_minor.is_multiple_of(self.config.deuce_epoch) || major_changed;
        if epoch_rollover || old_ctrs.is_shredded(block) {
            // Whole line under the new minor; the epoch restarts here.
            return self.encrypt_fresh(addr, new_ctrs, data);
        }
        // Recover the old plaintext (hardware knows the dirty-word mask
        // from the cache; we reconstruct it by decrypting the old line —
        // no stats/latency charged, see DESIGN.md).
        let old_cipher = self.nvm_peek_data(addr);
        let old_plain = self.decrypt_ctr(addr, old_ctrs, &old_cipher);
        let changed = deuce::changed_chunks(&old_plain, data);
        let mut meta = self
            .cipher
            .deuce_meta
            .get(&addr.raw())
            .copied()
            .unwrap_or(DeuceMeta::new_epoch(old_ctrs.minors[block]));
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
            &self.cipher.ctr,
            page.raw(),
            block as u8,
            new_ctrs.major,
            minors,
            data,
        );
        for c in 0..CHUNKS {
            if meta.modified[c] {
                cipher[c * 16..(c + 1) * 16].copy_from_slice(&full_new[c * 16..(c + 1) * 16]);
            }
        }
        self.cipher.deuce_meta.insert(addr.raw(), meta);
        cipher
    }
}

#[cfg(test)]
mod tests {
    use ss_common::{DetRng, Error};

    use super::*;
    use crate::config::{ControllerConfig, ShredStrategy};
    use crate::wqueue::WriteQueueConfig;

    fn mc() -> MemoryController {
        MemoryController::new(ControllerConfig::small_test()).unwrap()
    }

    fn mc_wq() -> MemoryController {
        MemoryController::new(ControllerConfig {
            write_queue: Some(WriteQueueConfig {
                capacity: 16,
                drain_low: 2,
                drain_high: 8,
            }),
            ..ControllerConfig::small_test()
        })
        .unwrap()
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
        assert_ne!(m.nvm.peek(addr), line(0x11), "plaintext leaked to NVM");
    }

    #[test]
    fn fresh_page_reads_zero_filled() {
        let mut m = mc();
        let r = m
            .read_block(PageId::new(5).block_addr(9), Cycles::ZERO)
            .unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
        assert_eq!(m.stats.mem.reads.get(), 0, "array untouched");
        assert_eq!(m.stats.mem.zero_fill_reads.get(), 1);
    }

    #[test]
    fn shred_zero_fills_and_writes_nothing() {
        let mut m = mc();
        let page = PageId::new(2);
        for b in 0..4 {
            m.write_block(page.block_addr(b), &line(b as u8 + 1), false, Cycles::ZERO)
                .unwrap();
        }
        let writes_before = m.stats.mem.writes.get();
        m.shred_page(page, true).unwrap();
        assert_eq!(m.stats.mem.writes.get(), writes_before, "shred wrote data");
        assert_eq!(m.stats.shreds.get(), 1);
        for b in 0..4 {
            let r = m.read_block(page.block_addr(b), Cycles::ZERO).unwrap();
            assert!(r.zero_filled);
            assert_eq!(r.data, [0u8; LINE_SIZE]);
        }
    }

    #[test]
    fn shred_makes_old_ciphertext_unintelligible() {
        // At minor 127, option 1's shred overflows and re-encrypts the
        // page, which must not carry the old plaintext to the fresh IVs.
        let secret = line(0x55);
        for strategy in [
            ShredStrategy::MinorIncrementAll,
            ShredStrategy::MajorBumpOnly,
            ShredStrategy::MajorBumpResetMinors,
        ] {
            let mut m = MemoryController::new(ControllerConfig {
                shred_strategy: strategy,
                ..ControllerConfig::small_test()
            })
            .unwrap();
            let page = PageId::new(3);
            let addr = page.block_addr(0);
            for _ in 0..127 {
                m.write_block(addr, &secret, false, Cycles::ZERO).unwrap();
            }
            m.shred_page(page, true).unwrap();
            let overflowed = strategy == ShredStrategy::MinorIncrementAll;
            assert_eq!(m.stats.reencryptions.get(), u64::from(overflowed));
            let r = m.read_block(addr, Cycles::ZERO).unwrap();
            assert_ne!(r.data, secret, "{strategy:?} recovered the old plaintext");
            // Only option 3 zero-fills; the others decrypt under a wrong
            // IV and return garbage, not zeros.
            let zeroing = strategy == ShredStrategy::MajorBumpResetMinors;
            assert_eq!(r.zero_filled, zeroing, "{strategy:?}");
            assert_eq!(r.data == [0u8; LINE_SIZE], zeroing, "{strategy:?}");
        }
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
        assert_eq!(m.stats.mem.reads.get(), 1);
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
        // The demand write, in-place zeroing and the rescue of a weak
        // line share one minor bump. Each pushes block 0 past minor 127.
        #[derive(Debug, Clone, Copy)]
        enum Caller {
            DemandWrite,
            ZeroInPlace,
            Rescue,
        }
        for queued in [false, true] {
            for caller in [Caller::DemandWrite, Caller::ZeroInPlace, Caller::Rescue] {
                let ctx = format!("{caller:?}, write queue {queued}");
                let mut m = if queued { mc_wq() } else { mc() };
                let page = PageId::new(9);
                let hot = page.block_addr(0);
                // Block 2 held data before the shred and stays dead;
                // block 1 is live when the minor overflows.
                m.write_block(page.block_addr(2), &line(0x22), false, Cycles::ZERO)
                    .unwrap();
                m.shred_page(page, true).unwrap();
                m.write_block(page.block_addr(1), &line(0x11), false, Cycles::ZERO)
                    .unwrap();
                for i in 0..127 {
                    m.write_block(hot, &line(i), false, Cycles::ZERO).unwrap();
                }
                assert_eq!(m.stats.reencryptions.get(), 0, "{ctx}");
                match caller {
                    Caller::DemandWrite => {
                        m.write_block(hot, &line(0xAA), false, Cycles::ZERO)
                            .unwrap();
                    }
                    Caller::ZeroInPlace => {
                        m.zero_page_in_place(page, Cycles::ZERO).unwrap();
                    }
                    Caller::Rescue => {
                        // The corrected read of the weak line defers its
                        // rescue to a spare under a fresh IV.
                        m.fence_drain(Cycles::ZERO).unwrap();
                        m.faults().force_line_failure(hot, 1);
                        let r = m.read_block(hot, Cycles::ZERO).unwrap();
                        assert_eq!(r.data, line(126), "{ctx}");
                        assert_eq!(m.stats.health.remaps.get(), 1, "{ctx}");
                    }
                }
                assert_eq!(m.stats.reencryptions.get(), 1, "{ctx}");
                for b in 0..BLOCKS_PER_PAGE {
                    let want = match (caller, b) {
                        (Caller::ZeroInPlace, _) => Some([0u8; LINE_SIZE]),
                        (Caller::DemandWrite, 0) => Some(line(0xAA)),
                        (Caller::Rescue, 0) => Some(line(126)),
                        (_, 1) => Some(line(0x11)),
                        _ => None,
                    };
                    let r = m.read_block(page.block_addr(b), Cycles::ZERO).unwrap();
                    assert_eq!(r.zero_filled, want.is_none(), "{ctx}, block {b}");
                    assert_eq!(r.data, want.unwrap_or([0u8; LINE_SIZE]), "{ctx}, block {b}");
                }
            }
        }
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
        let cipher_before = m.nvm.peek(addr);
        // Modify a single chunk and rewrite.
        data[0] ^= 0xFF;
        m.write_block(addr, &data, false, Cycles::ZERO).unwrap();
        let cipher_after = m.nvm.peek(addr);
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
        let mut rng = DetRng::new(5);
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
        let scan = m.faults().cold_scan_data();
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
        assert_eq!(m.nvm.peek(a0), m.nvm.peek(a1), "ECB hides equality?");
        assert_ne!(m.nvm.peek(a0), line(0x44));
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
    fn weak_line_remapped_and_data_survives() {
        let mut m = mc();
        let addr = PageId::new(3).block_addr(7);
        m.write_block(addr, &line(0xC4), false, Cycles::ZERO)
            .unwrap();
        m.faults().force_line_failure(addr, 1);
        // The demand read is ECC-corrected, then the line is rescued to
        // a spare under a fresh IV at operation end.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0xC4));
        assert_eq!(m.stats.health.remaps.get(), 1);
        assert_eq!(m.inspect().remapped_lines(), 1);
        // Demand read + rescue read were each corrected once; reads from
        // the (healthy) spare need no further correction.
        let corrected_after_remap = m.stats.health.ecc_corrected.get();
        let again = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(again.data, line(0xC4));
        assert_eq!(
            m.stats.health.ecc_corrected.get(),
            corrected_after_remap,
            "spare is clean"
        );
        // And writes/reads keep round-tripping through the spare.
        m.write_block(addr, &line(0xD1), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0xD1));
    }

    #[test]
    fn shredded_line_remap_preserves_zero_fill() {
        let mut m = mc();
        let page = PageId::new(0);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x77), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        m.faults().force_line_failure(addr, 1);
        // The demand path never touches a shredded line's array slot, so
        // the scrubber is what finds the wear-out (cursor starts at 0).
        let healed = m.scrub_step(Cycles::ZERO).unwrap();
        assert!(healed);
        assert_eq!(m.stats.health.remaps.get(), 1);
        // Shredding semantics survive healing: still zero-filled, the
        // minor counter was NOT bumped by the remap.
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
    }

    #[test]
    fn counter_tamper_detected_after_cache_drop() {
        let mut m = mc();
        let page = PageId::new(1);
        m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        m.flush_counters().unwrap();
        m.faults().tamper_counter_line(page, line(0xAD));
        m.faults().drop_counter_cache();
        let err = m.read_block(page.block_addr(0), Cycles::ZERO).unwrap_err();
        assert!(matches!(err, Error::IntegrityViolation { .. }));
    }
}
