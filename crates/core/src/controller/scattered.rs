//! Scattered two-share mode (DESIGN.md §15; *Secure Scattered Memory*,
//! arXiv:2402.15824).
//!
//! Every line is stored as two shares in disjoint NVM regions: a
//! uniform-random share in the data region and the XOR-masked share in
//! the mask region (modeling a second DIMM). Either share alone is
//! statistically independent of the plaintext; shredding discards the
//! mask share. The counter region is reused as block-liveness metadata
//! (minor 0 = dead → zero-fill), so the counter cache, Merkle tree,
//! journal, and recovery machinery all apply verbatim.

use ss_common::{BlockAddr, Counter, Cycles, DetRng, PageId, Result, BLOCKS_PER_PAGE};
use ss_crypto::{share, Line};
use ss_trace::{Stage, TraceEvent};

use super::{MemoryController, ReadResult};
use crate::config::ControllerConfig;

/// Domain-separation constant folded into the scattered mode's
/// share-stream seed, so share randomness never collides with the NVM
/// fault stream even under identical seeds.
const SHARE_DOMAIN: u64 = 0x5343_4154_5445_5244;

/// Scattered-mode activity counters, exported under `prot.*` for
/// [`crate::ProtectionMode::Scattered`] configurations only (the other
/// modes' metrics schema has no `prot.*` keys).
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

/// The scattered mode's own state.
#[derive(Debug)]
pub(super) struct Shares {
    /// NVM byte offset of the mask-share region (== device end under the
    /// other modes, where no masks are allocated). The region models a
    /// physically separate DIMM (DESIGN.md §15).
    mask_base: u64,
    /// Deterministic share stream (a DRBG in hardware). Seeded from the
    /// processor key, the domain constant, and the fault seed, so every
    /// run is reproducible.
    rng: DetRng,
}

impl Shares {
    pub(super) fn new(config: &ControllerConfig, mask_base: u64) -> Self {
        let mut key_word = [0u8; 8];
        key_word.copy_from_slice(&config.key[..8]);
        Shares {
            mask_base,
            rng: DetRng::new(u64::from_le_bytes(key_word) ^ SHARE_DOMAIN ^ config.nvm_fault_seed),
        }
    }
}

impl MemoryController {
    /// Device address of the mask share backing logical line `addr`.
    pub(super) fn mask_addr(&self, addr: BlockAddr) -> BlockAddr {
        BlockAddr::new(self.shares.mask_base + addr.raw())
    }

    /// Scattered read: zero-fill for dead blocks, otherwise fetch both
    /// shares (in parallel across regions) and recombine.
    pub(super) fn scattered_read_line(
        &mut self,
        addr: BlockAddr,
        now: Cycles,
    ) -> Result<ReadResult> {
        let (ctrs, ctr_lat) = self.fetch_counters(addr.page(), now)?;
        if ctrs.is_shredded(addr.block_in_page()) {
            // Dead block (never written, or its pad was discarded):
            // zero-fill without touching either share region.
            return Ok(self.zero_fill_read(addr, ctr_lat, now));
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
        let data = share::recombine_shares(&share_a, &share_b);
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
    pub(super) fn scattered_write_line(
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
        let share_a = share::gen_share(&mut self.shares.rng);
        let share_b = share::mask_share(data, &share_a);
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
    pub(super) fn scattered_shred_page(&mut self, page: PageId, now: Cycles) -> Result<Cycles> {
        let (mut ctrs, mut latency) = self.fetch_counters(page, now)?;
        let mut discarded = 0u32;
        for b in 0..BLOCKS_PER_PAGE {
            if ctrs.is_shredded(b) {
                continue;
            }
            let addr = page.block_addr(b);
            let fresh = share::gen_share(&mut self.shares.rng);
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

    /// Scattered rescue: a dead block's worn slot is retired outright
    /// (nothing live to rescue, and the block must stay dead); a live
    /// block is recombined and re-split under a *fresh* pad, so a spare
    /// never inherits previously used share material. Commit order:
    /// spare share first, then the mask write makes the fresh pair
    /// authoritative (journal pre-images cover a cut).
    pub(super) fn scattered_rescue_remap(
        &mut self,
        addr: BlockAddr,
        dev: BlockAddr,
        slot: BlockAddr,
        now: Cycles,
    ) -> Result<()> {
        let (ctrs, _) = self.fetch_counters(addr.page(), now)?;
        if ctrs.is_shredded(addr.block_in_page()) {
            return self.move_to_spare(dev, None, now, |_| Ok(()));
        }
        let Some(share_a) = self.rescue_read(slot)? else {
            return self.fail_remap(dev);
        };
        let mask = self.mask_addr(addr);
        let share_b = self.read_line_healing(mask)?.into_data();
        let plain = share::recombine_shares(&share_a, &share_b);
        self.stats.prot.recombines.inc();
        let new_a = share::gen_share(&mut self.shares.rng);
        let new_b = share::mask_share(&plain, &new_a);
        self.move_to_spare(dev, Some(&new_a), now, |mc| {
            mc.sched(now, mc.config.nvm_timing.write_cycles());
            mc.persist_line(mask, &new_b, None)?;
            mc.stats.prot.share_writes.inc();
            mc.stats.prot.mask_writes.inc();
            mc.stats.prot.fresh_share_rescues.inc();
            Ok(())
        })
    }
}

#[cfg(test)]
mod tests {
    use ss_common::{Error, LINE_SIZE};

    use super::*;
    use crate::config::ControllerConfigBuilder;

    fn line(v: u8) -> Line {
        [v; LINE_SIZE]
    }

    fn scattered() -> MemoryController {
        let cfg = ControllerConfigBuilder::scattered()
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
        assert_eq!(m.stats.prot.share_writes.get(), 1);
        assert_eq!(m.stats.prot.recombines.get(), 1);
    }

    #[test]
    fn scattered_fresh_page_reads_zero_filled() {
        let mut m = scattered();
        let r = m
            .read_block(PageId::new(5).block_addr(9), Cycles::ZERO)
            .unwrap();
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; LINE_SIZE]);
        assert_eq!(m.stats.mem.reads.get(), 0, "array untouched");
    }

    #[test]
    fn scattered_neither_region_holds_plaintext() {
        let mut m = scattered();
        let addr = PageId::new(1).block_addr(0);
        m.write_block(addr, &line(0x11), false, Cycles::ZERO)
            .unwrap();
        let share_a = m.nvm.peek(addr);
        let share_b = m.nvm.peek(m.mask_addr(addr));
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
        let writes_before = m.stats.mem.writes.get();
        m.shred_page(page, true).unwrap();
        // No *data-region* writes: the mask region absorbed the discard.
        assert_eq!(m.stats.mem.writes.get(), writes_before);
        assert_eq!(m.stats.prot.mask_discards.get(), 4);
        for b in 0..4 {
            let addr = page.block_addr(b);
            let r = m.read_block(addr, Cycles::ZERO).unwrap();
            assert!(r.zero_filled);
            assert_eq!(r.data, [0u8; LINE_SIZE]);
            // Even recombining the surviving regions yields noise now.
            let residue = ss_crypto::share::recombine_shares(
                &m.nvm.peek(addr),
                &m.nvm.peek(m.mask_addr(addr)),
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
        let share_before = m.nvm.peek(addr);
        m.faults().force_line_failure(addr, 1);
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert_eq!(r.data, line(0x77));
        assert_eq!(m.stats.health.remaps.get(), 1);
        assert_eq!(m.stats.prot.fresh_share_rescues.get(), 1);
        // Readable from the spare, and under a brand-new pad.
        assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x77));
        let rescued_slot = m.heal.redirect(addr);
        assert_ne!(m.nvm.peek(rescued_slot), share_before, "pad was reused");
    }

    #[test]
    fn scattered_rescue_of_dead_block_stays_dead() {
        let mut m = scattered();
        let page = PageId::new(6);
        let addr = page.block_addr(0);
        m.write_block(addr, &line(0x42), false, Cycles::ZERO)
            .unwrap();
        m.shred_page(page, true).unwrap();
        m.faults().force_line_failure(addr, 1);
        // Scrub finds the worn slot; the dead block is retired without
        // resurrecting content.
        while m.heal.redirect(addr) == addr {
            if m.scrub_step(Cycles::ZERO).unwrap() {
                break;
            }
        }
        let r = m.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled);
        assert_eq!(m.stats.prot.fresh_share_rescues.get(), 0);
    }

    #[test]
    fn scattered_liveness_tamper_detected() {
        let mut m = scattered();
        let page = PageId::new(1);
        m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        m.flush_counters().unwrap();
        m.faults().tamper_counter_line(page, line(0xAD));
        m.faults().drop_counter_cache();
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
            m.nvm.peek(PageId::new(1).block_addr(0))
        };
        assert_eq!(mk(), mk());
    }

    #[test]
    fn scattered_metrics_expose_prot_keys() {
        let mut m = scattered();
        m.write_block(PageId::new(0).block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
        let reg = m.inspect().metrics();
        let json = reg.to_json();
        assert!(json.contains("\"prot.share_writes\":1"), "{json}");
        // 256 liveness lines + 16384 mask lines for 1 MiB of data.
        assert!(json.contains("\"prot.metadata_lines\":16640"), "{json}");
        // Counter mode must NOT grow the schema.
        let cm = MemoryController::new(ControllerConfig::small_test())
            .unwrap()
            .inspect()
            .metrics()
            .to_json();
        assert!(!cm.contains("prot."), "{cm}");
    }
}
