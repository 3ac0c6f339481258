//! A plain reference model of architectural memory state.
//!
//! The shadow model tracks what the running software is *entitled* to
//! observe: the last value written to each line since the last shred of
//! its page, zeros for shredded and (under Silent Shredder) untouched
//! lines, and the set of plaintext lines that were shredded away and
//! must never reappear in a cold scan of the NVM array.

use std::collections::{BTreeMap, BTreeSet};

use ss_common::{BlockAddr, PageId, BLOCKS_PER_PAGE, LINE_SIZE};

/// A 64-byte line.
pub type Line = [u8; LINE_SIZE];

/// The reference model the controller is checked against after every
/// fault (see [`crate::run_plan`]).
#[derive(Debug, Clone, Default)]
pub struct ShadowModel {
    /// Expected plaintext by raw block address. A shred sets every block
    /// of the page to zeros, so shredded lines stay tracked.
    lines: BTreeMap<u64, Line>,
    /// Plaintext lines that were live when their page was shredded: a
    /// cold scan of an *encrypted* NVM array must never surface them.
    secrets: BTreeSet<Line>,
}

impl ShadowModel {
    /// An empty model (matches a freshly built controller).
    pub fn new() -> Self {
        ShadowModel::default()
    }

    /// Records a data write of `line` at `addr`.
    pub fn note_write(&mut self, addr: BlockAddr, line: Line) {
        self.lines.insert(addr.raw(), line);
    }

    /// Records a successful shred of `page`: every block now reads zero,
    /// and all previously live plaintext becomes a remanence secret.
    pub fn note_shred(&mut self, page: PageId) {
        for b in 0..BLOCKS_PER_PAGE {
            let addr = page.block_addr(b);
            if let Some(old) = self.lines.insert(addr.raw(), [0u8; LINE_SIZE]) {
                if old != [0u8; LINE_SIZE] {
                    self.secrets.insert(old);
                }
            }
        }
    }

    /// Expected plaintext at `addr`. Untracked lines are `None` unless
    /// `zero_fresh` (Silent Shredder zero-fills untouched lines, and an
    /// unencrypted array genuinely holds zeros), in which case they are
    /// all-zero.
    pub fn expected(&self, addr: BlockAddr, zero_fresh: bool) -> Option<Line> {
        match self.lines.get(&addr.raw()) {
            Some(l) => Some(*l),
            None if zero_fresh => Some([0u8; LINE_SIZE]),
            None => None,
        }
    }

    /// All tracked lines (address, expected plaintext).
    pub fn tracked(&self) -> impl Iterator<Item = (BlockAddr, &Line)> {
        let mut addrs: Vec<&u64> = self.lines.keys().collect();
        addrs.sort_unstable();
        addrs
            .into_iter()
            .map(|raw| (BlockAddr::new(*raw), &self.lines[raw]))
    }

    /// Tracked lines belonging to `page`.
    pub fn tracked_in_page(&self, page: PageId) -> Vec<(BlockAddr, Line)> {
        (0..BLOCKS_PER_PAGE)
            .filter_map(|b| {
                let addr = page.block_addr(b);
                self.lines.get(&addr.raw()).map(|l| (addr, *l))
            })
            .collect()
    }

    /// Whether `line` is a remanence secret (pre-shred plaintext).
    pub fn is_secret(&self, line: &Line) -> bool {
        self.secrets.contains(line)
    }

    /// Number of remanence secrets accumulated so far.
    pub fn secret_count(&self) -> usize {
        self.secrets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn write_then_shred_becomes_secret_and_zero() {
        let mut s = ShadowModel::new();
        let page = PageId::new(2);
        let addr = page.block_addr(3);
        s.note_write(addr, [7; LINE_SIZE]);
        assert_eq!(s.expected(addr, false), Some([7; LINE_SIZE]));
        s.note_shred(page);
        assert_eq!(s.expected(addr, false), Some([0; LINE_SIZE]));
        assert!(s.is_secret(&[7; LINE_SIZE]));
        assert_eq!(s.secret_count(), 1);
    }

    #[test]
    fn untracked_lines_follow_zero_fresh() {
        let s = ShadowModel::new();
        let addr = PageId::new(1).block_addr(0);
        assert_eq!(s.expected(addr, true), Some([0; LINE_SIZE]));
        assert_eq!(s.expected(addr, false), None);
    }

    #[test]
    fn rewrite_after_shred_replaces_zeros() {
        let mut s = ShadowModel::new();
        let page = PageId::new(1);
        let addr = page.block_addr(0);
        s.note_write(addr, [1; LINE_SIZE]);
        s.note_shred(page);
        s.note_write(addr, [2; LINE_SIZE]);
        assert_eq!(s.expected(addr, false), Some([2; LINE_SIZE]));
        // The pre-shred value stays secret; the new one is live.
        assert!(s.is_secret(&[1; LINE_SIZE]));
        assert!(!s.is_secret(&[2; LINE_SIZE]));
    }

    #[test]
    fn tracked_iteration_is_sorted_and_complete() {
        let mut s = ShadowModel::new();
        s.note_write(PageId::new(3).block_addr(1), [3; LINE_SIZE]);
        s.note_write(PageId::new(1).block_addr(0), [1; LINE_SIZE]);
        let addrs: Vec<u64> = s.tracked().map(|(a, _)| a.raw()).collect();
        assert_eq!(addrs.len(), 2);
        assert!(addrs.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(s.tracked_in_page(PageId::new(3)).len(), 1);
    }
}
