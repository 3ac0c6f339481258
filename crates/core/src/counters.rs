//! Per-page encryption-counter blocks.
//!
//! One 64 B counter block per 4 KiB page, exactly as in Yan et al. \[40\]
//! (§2.2): a 64-bit major counter co-located with 64 seven-bit minor
//! counters. The block serialises to 64 bytes (8 for the major, 56 for
//! the packed minors) so it occupies one NVM line and one counter-cache
//! entry.

use ss_common::{BLOCKS_PER_PAGE, LINE_SIZE};
use ss_crypto::iv::{Iv, MINOR_FIRST, MINOR_MAX, MINOR_SHREDDED};

use crate::config::ShredStrategy;

/// Bytes of a counter line that pack eight 7-bit minors.
const MINOR_WORD_BYTES: usize = 7;

/// A page's encryption counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterBlock {
    /// The per-page major counter.
    pub major: u64,
    /// The per-block minor counters (7 significant bits each).
    pub minors: [u8; BLOCKS_PER_PAGE],
}

impl Default for CounterBlock {
    /// A fresh page starts shredded: major 0, all minors at the reserved
    /// zero value, so the very first read of an untouched page zero-fills.
    fn default() -> Self {
        CounterBlock {
            major: 0,
            minors: [MINOR_SHREDDED; BLOCKS_PER_PAGE],
        }
    }
}

/// What a write-path counter bump produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BumpOutcome {
    /// Minor counter advanced normally.
    Advanced,
    /// Minor counter overflowed: the major was bumped, every live minor
    /// reset, and the whole page must be re-encrypted.
    Overflowed,
}

impl CounterBlock {
    /// Builds the IV for `block` of the page with this counter state.
    ///
    /// # Panics
    ///
    /// Panics if `block >= 64`.
    pub fn iv(&self, page_id: u64, block: usize) -> Iv {
        Iv::new(page_id, block as u8, self.major, self.minors[block])
    }

    /// Whether `block` is in the shredded (reads-as-zero) state.
    pub fn is_shredded(&self, block: usize) -> bool {
        self.minors[block] == MINOR_SHREDDED
    }

    /// Whether every block of the page is shredded.
    pub fn fully_shredded(&self) -> bool {
        self.minors.iter().all(|&m| m == MINOR_SHREDDED)
    }

    /// Advances `block`'s minor counter for a write-back, implementing the
    /// overflow rule of §4.2: minors run 1..=127; on overflow the major is
    /// incremented and all live minors reset to 1 (shredded blocks keep
    /// their reserved 0 and remain zero-filled).
    pub fn bump_for_write(&mut self, block: usize) -> BumpOutcome {
        let m = self.minors[block];
        if m < MINOR_MAX {
            // Covers both the shredded state (0 → 1) and normal advance.
            self.minors[block] = m + 1;
            BumpOutcome::Advanced
        } else {
            self.major = self.major.wrapping_add(1);
            for minor in &mut self.minors {
                if *minor != MINOR_SHREDDED {
                    *minor = MINOR_FIRST;
                }
            }
            BumpOutcome::Overflowed
        }
    }

    /// Whether back-to-back shreds of the same page may be coalesced
    /// into one (the batched shred queue dedupes per drain window).
    ///
    /// For the major-bump strategies the observable state after N
    /// consecutive shreds with no intervening writes equals the state
    /// after one — any single major bump already invalidates every IV
    /// and (for option 3) arms zero-fill — so dropping duplicates is
    /// free. Option 1 spends a minor increment per shred, so coalescing
    /// would change overflow/re-encryption timing and is not allowed.
    pub fn shred_coalesces(strategy: ShredStrategy) -> bool {
        !matches!(strategy, ShredStrategy::MinorIncrementAll)
    }

    /// Applies a shred under the given strategy (§4.2's three options).
    /// Returns `true` when the strategy forces a page re-encryption
    /// (minor-increment overflow under option 1).
    pub fn shred(&mut self, strategy: ShredStrategy) -> bool {
        match strategy {
            ShredStrategy::MajorBumpResetMinors => {
                self.major = self.major.wrapping_add(1);
                self.minors = [MINOR_SHREDDED; BLOCKS_PER_PAGE];
                false
            }
            ShredStrategy::MajorBumpOnly => {
                self.major = self.major.wrapping_add(1);
                false
            }
            ShredStrategy::MinorIncrementAll => {
                let mut overflowed = false;
                for minor in &mut self.minors {
                    if *minor >= MINOR_MAX {
                        overflowed = true;
                    } else {
                        *minor += 1;
                    }
                }
                if overflowed {
                    self.major = self.major.wrapping_add(1);
                    for minor in &mut self.minors {
                        *minor = MINOR_FIRST;
                    }
                }
                overflowed
            }
        }
    }

    /// Serialises to one 64 B NVM line: major (8 bytes, LE) followed by
    /// the 64 minors packed 7 bits each (56 bytes), LSB first. Eight
    /// minors fill one little-endian 7-byte word, so each word is built
    /// in a register and stored at once.
    pub fn to_line(&self) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        let (major, packed) = out.split_at_mut(8);
        major.copy_from_slice(&self.major.to_le_bytes());
        for (word, minors) in packed
            .chunks_exact_mut(MINOR_WORD_BYTES)
            .zip(self.minors.chunks_exact(8))
        {
            let bits = minors
                .iter()
                .rev()
                .fold(0u64, |acc, &m| acc << 7 | u64::from(m));
            word.copy_from_slice(&bits.to_le_bytes()[..MINOR_WORD_BYTES]);
        }
        out
    }

    /// Deserialises from a 64 B NVM line, one 7-byte word of eight
    /// minors at a time.
    pub fn from_line(line: &[u8; LINE_SIZE]) -> Self {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&line[..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; BLOCKS_PER_PAGE];
        for (eight, word) in minors
            .chunks_exact_mut(8)
            .zip(line[8..].chunks_exact(MINOR_WORD_BYTES))
        {
            let mut bytes = [0u8; 8];
            bytes[..MINOR_WORD_BYTES].copy_from_slice(word);
            let bits = u64::from_le_bytes(bytes);
            for (j, m) in eight.iter_mut().enumerate() {
                *m = (bits >> (7 * j)) as u8 & MINOR_MAX;
            }
        }
        CounterBlock { major, minors }
    }
}

/// The bit-serial codec the word-at-a-time one replaced, kept as the
/// oracle that `word_codec_matches_the_bit_serial_one` compares it
/// against: minor `k` occupies bits `7k..7k + 7` after the major,
/// written and read one byte offset at a time.
#[cfg(test)]
mod reference {
    use super::{CounterBlock, BLOCKS_PER_PAGE, LINE_SIZE, MINOR_MAX};

    pub(super) fn to_line(c: &CounterBlock) -> [u8; LINE_SIZE] {
        let mut out = [0u8; LINE_SIZE];
        out[..8].copy_from_slice(&c.major.to_le_bytes());
        let mut bit = 0usize;
        for &m in &c.minors {
            let byte = 8 + bit / 8;
            let off = bit % 8;
            out[byte] |= m << off;
            if off > 1 {
                out[byte + 1] |= m >> (8 - off);
            }
            bit += 7;
        }
        out
    }

    pub(super) fn from_line(line: &[u8; LINE_SIZE]) -> CounterBlock {
        let mut major_bytes = [0u8; 8];
        major_bytes.copy_from_slice(&line[..8]);
        let major = u64::from_le_bytes(major_bytes);
        let mut minors = [0u8; BLOCKS_PER_PAGE];
        let mut bit = 0usize;
        for m in &mut minors {
            let byte = 8 + bit / 8;
            let off = bit % 8;
            let mut v = line[byte] >> off;
            if off > 1 {
                v |= line[byte + 1] << (8 - off);
            }
            *m = v & MINOR_MAX;
            bit += 7;
        }
        CounterBlock { major, minors }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_common::DetRng;

    #[test]
    fn default_is_fully_shredded() {
        let c = CounterBlock::default();
        assert!(c.fully_shredded());
        assert!(c.is_shredded(0));
        assert_eq!(c.major, 0);
    }

    #[test]
    fn bump_leaves_shredded_state() {
        let mut c = CounterBlock::default();
        assert_eq!(c.bump_for_write(3), BumpOutcome::Advanced);
        assert_eq!(c.minors[3], 1);
        assert!(!c.is_shredded(3));
        assert!(c.is_shredded(2));
    }

    #[test]
    fn minor_overflow_bumps_major_and_skips_zero() {
        let mut c = CounterBlock::default();
        c.minors[0] = MINOR_MAX;
        c.minors[1] = 50;
        c.minors[2] = MINOR_SHREDDED;
        assert_eq!(c.bump_for_write(0), BumpOutcome::Overflowed);
        assert_eq!(c.major, 1);
        // Live minors reset to 1 (never 0, which is reserved).
        assert_eq!(c.minors[0], MINOR_FIRST);
        assert_eq!(c.minors[1], MINOR_FIRST);
        // Shredded blocks stay shredded.
        assert_eq!(c.minors[2], MINOR_SHREDDED);
    }

    #[test]
    fn block_can_be_written_127_times_before_reencryption() {
        // §4.2: a block can be written back 2^7 = 128 times (minors 0→127
        // exhausted) before the page needs re-encryption.
        let mut c = CounterBlock::default();
        let mut writes = 0;
        while c.bump_for_write(0) == BumpOutcome::Advanced {
            writes += 1;
        }
        assert_eq!(writes, 127);
    }

    #[test]
    fn shred_strategies() {
        let mut base = CounterBlock::default();
        base.minors[0] = 5;
        base.minors[1] = 7;
        base.major = 10;

        let mut opt3 = base;
        assert!(!opt3.shred(ShredStrategy::MajorBumpResetMinors));
        assert_eq!(opt3.major, 11);
        assert!(opt3.fully_shredded());

        let mut opt2 = base;
        assert!(!opt2.shred(ShredStrategy::MajorBumpOnly));
        assert_eq!(opt2.major, 11);
        assert_eq!(opt2.minors[0], 5, "minors untouched");
        assert!(!opt2.is_shredded(0), "option 2 cannot zero-fill");

        let mut opt1 = base;
        assert!(!opt1.shred(ShredStrategy::MinorIncrementAll));
        assert_eq!(opt1.major, 10, "no major bump without overflow");
        assert_eq!(opt1.minors[0], 6);
    }

    #[test]
    fn coalescing_matches_strategy_semantics() {
        assert!(CounterBlock::shred_coalesces(
            ShredStrategy::MajorBumpResetMinors
        ));
        assert!(CounterBlock::shred_coalesces(ShredStrategy::MajorBumpOnly));
        assert!(!CounterBlock::shred_coalesces(
            ShredStrategy::MinorIncrementAll
        ));
    }

    #[test]
    fn minor_increment_strategy_overflows_quickly() {
        let mut c = CounterBlock::default();
        c.minors[0] = MINOR_MAX;
        assert!(c.shred(ShredStrategy::MinorIncrementAll));
        assert_eq!(c.major, 1);
        assert!(c.minors.iter().all(|&m| m == MINOR_FIRST));
    }

    #[test]
    fn serialisation_roundtrip() {
        let mut c = CounterBlock {
            major: 0xDEAD_BEEF_CAFE_F00D,
            minors: [0; BLOCKS_PER_PAGE],
        };
        for (i, m) in c.minors.iter_mut().enumerate() {
            *m = (i as u8 * 3) & MINOR_MAX;
        }
        let line = c.to_line();
        assert_eq!(CounterBlock::from_line(&line), c);
    }

    #[test]
    fn serialisation_roundtrip_extremes() {
        for fill in [MINOR_SHREDDED, MINOR_FIRST, MINOR_MAX] {
            let c = CounterBlock {
                major: u64::MAX,
                minors: [fill; BLOCKS_PER_PAGE],
            };
            assert_eq!(CounterBlock::from_line(&c.to_line()), c);
        }
    }

    #[test]
    fn word_codec_matches_the_bit_serial_one() {
        let mut rng = DetRng::new(0xC0DEC);
        for _ in 0..2_000 {
            let mut c = CounterBlock {
                major: rng.next_u64(),
                minors: [0; BLOCKS_PER_PAGE],
            };
            for m in &mut c.minors {
                *m = rng.below(u64::from(MINOR_MAX) + 1) as u8;
            }
            let line = c.to_line();
            assert_eq!(line, reference::to_line(&c));
            assert_eq!(CounterBlock::from_line(&line), c);
            // A tampered counter line can hold any 64 bytes.
            let mut raw = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut raw);
            assert_eq!(CounterBlock::from_line(&raw), reference::from_line(&raw));
        }
    }

    #[test]
    fn iv_reflects_counters() {
        let mut c = CounterBlock {
            major: 9,
            ..CounterBlock::default()
        };
        c.minors[7] = 4;
        let iv = c.iv(123, 7);
        assert_eq!(iv.page_id, 123);
        assert_eq!(iv.block, 7);
        assert_eq!(iv.major, 9);
        assert_eq!(iv.minor, 4);
    }
}
