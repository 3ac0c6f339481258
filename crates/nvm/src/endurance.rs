//! Write-endurance tracking.
//!
//! PCM cells endure 10–100 million writes (§2.1). The device counts the
//! writes each line endures in its line records; [`WearTracker`] reads
//! those counts in place and reports the most-worn line. Absent wear
//! levelling the hottest line limits device life, so its wear is how
//! the benches quantify what Silent Shredder's eliminated writes save.

use ss_common::BlockAddr;

use crate::device::LineStore;

/// Per-line write counts of an [`NvmDevice`](crate::NvmDevice), from
/// [`NvmDevice::wear`](crate::NvmDevice::wear). Only writes that
/// programmed cells count (DCW/FNW skips do not).
#[derive(Debug, Clone, Copy)]
pub struct WearTracker<'a> {
    lines: &'a LineStore,
}

impl<'a> WearTracker<'a> {
    pub(crate) fn new(lines: &'a LineStore) -> Self {
        WearTracker { lines }
    }

    /// `(line, writes)` for every line written at least once, in address
    /// order.
    fn worn(&self) -> impl Iterator<Item = (BlockAddr, u64)> + 'a {
        self.lines
            .iter()
            .filter(|(_, line)| line.wear > 0)
            .map(|(addr, line)| (addr, line.wear))
    }

    /// Total line writes recorded.
    pub fn total_writes(&self) -> u64 {
        self.worn().map(|(_, n)| n).sum()
    }

    /// Writes endured by `addr` so far.
    pub fn wear(&self, addr: BlockAddr) -> u64 {
        self.lines.get(addr).map_or(0, |line| line.wear)
    }

    /// The most-worn line and its write count, if any writes happened.
    /// Ties go to the lowest address.
    pub fn max_wear(&self) -> Option<(BlockAddr, u64)> {
        self.worn()
            .max_by_key(|&(addr, n)| (n, std::cmp::Reverse(addr)))
    }

    /// Lines whose wear exceeds `limit` (would have failed).
    pub fn failed_lines(&self, limit: u64) -> usize {
        self.worn().filter(|&(_, n)| n > limit).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{NvmConfig, NvmDevice};
    use ss_common::LINE_SIZE;

    fn a(n: u64) -> BlockAddr {
        BlockAddr::new(n * 64)
    }

    /// A device with `writes` line writes to each `(line, writes)`.
    fn worn(writes: &[(u64, u64)]) -> NvmDevice {
        let mut d = NvmDevice::new(NvmConfig {
            capacity_bytes: 1 << 20,
            ..NvmConfig::default()
        });
        for &(line, n) in writes {
            for _ in 0..n {
                d.write_line(a(line), &[0u8; LINE_SIZE]).unwrap();
            }
        }
        d
    }

    #[test]
    fn counts_per_line_and_total() {
        let d = worn(&[(1, 2), (2, 1)]);
        let w = d.wear();
        assert_eq!(w.total_writes(), 3);
        assert_eq!(w.wear(a(1)), 2);
        assert_eq!(w.wear(a(2)), 1);
        assert_eq!(w.wear(a(3)), 0);
    }

    #[test]
    fn max_wear_finds_hottest() {
        assert_eq!(worn(&[]).wear().max_wear(), None);
        assert_eq!(worn(&[(7, 5), (8, 1)]).wear().max_wear(), Some((a(7), 5)));
        // Ties go to the lowest address.
        assert_eq!(worn(&[(9, 2), (3, 2)]).wear().max_wear(), Some((a(3), 2)));
    }

    #[test]
    fn tampered_lines_are_not_worn() {
        let mut d = worn(&[(1, 1)]);
        d.tamper(a(2), [1u8; LINE_SIZE]);
        d.flip_bit(a(3), 0);
        let w = d.wear();
        assert_eq!(w.wear(a(2)), 0);
        assert_eq!(w.wear(a(3)), 0);
        assert_eq!(w.total_writes(), 1);
        assert_eq!(w.failed_lines(0), 1);
    }

    #[test]
    fn failed_lines_exceed_the_limit() {
        let d = worn(&[(0, 10)]);
        let w = d.wear();
        assert_eq!(w.failed_lines(9), 1);
        assert_eq!(w.failed_lines(10), 0);
    }
}
