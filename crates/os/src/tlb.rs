//! Per-core TLB model.
//!
//! Address translation is not free: every memory access consults the
//! TLB, and a miss costs a page-table walk. The paper leans on this in
//! two places — §1 (VMs request large allocations to reduce page-table
//! walks) and §7.2 (large pages "skip one or more levels of translation").
//! The simulator models a per-core, set-associative, LRU TLB tagged by
//! `(ASID, VPN)`, with explicit shootdown on remap (the fault handler
//! changes a page's backing when a zero-page mapping is upgraded to a
//! private frame, and `free`/`exit` retire mappings).

use std::collections::VecDeque;

use ss_common::Counter;

use crate::kernel::ProcId;

/// Total TLB entries (64, a typical L1 DTLB; the old configurable
/// default).
const TLB_ENTRIES: usize = 64;

/// TLB associativity (the old configurable default).
const TLB_WAYS: usize = 4;

/// TLB statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TlbStats {
    /// Translations served from the TLB.
    pub hits: Counter,
    /// Translations that required a walk.
    pub misses: Counter,
    /// Entries removed by shootdowns.
    pub shootdowns: Counter,
}

impl TlbStats {
    /// Miss rate in `[0, 1]`.
    pub fn miss_rate(&self) -> f64 {
        let total = self.hits.get() + self.misses.get();
        if total == 0 {
            0.0
        } else {
            self.misses.get() as f64 / total as f64
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TlbEntry {
    asid: u64,
    vpn: u64,
}

/// A set-associative, LRU TLB.
///
/// # Examples
///
/// ```
/// use ss_os::tlb::Tlb;
/// use ss_os::ProcId;
///
/// let mut tlb = Tlb::new();
/// let pid = ProcId(1);
/// assert!(!tlb.lookup(pid, 5)); // cold miss
/// tlb.insert(pid, 5);
/// assert!(tlb.lookup(pid, 5));
/// tlb.shootdown(pid, 5);
/// assert!(!tlb.lookup(pid, 5));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    sets: Vec<VecDeque<TlbEntry>>,
    stats: TlbStats,
}

impl Default for Tlb {
    fn default() -> Self {
        Tlb::new()
    }
}

impl Tlb {
    /// Creates an empty 64-entry, 4-way TLB.
    pub fn new() -> Self {
        Tlb {
            sets: (0..TLB_ENTRIES / TLB_WAYS)
                .map(|_| VecDeque::new())
                .collect(),
            stats: TlbStats::default(),
        }
    }

    /// Statistics so far.
    pub fn stats(&self) -> &TlbStats {
        &self.stats
    }

    fn set_index(&self, vpn: u64) -> usize {
        (vpn % self.sets.len() as u64) as usize
    }

    /// Looks up `(pid, vpn)`, promoting on hit. Counts a hit or miss.
    pub fn lookup(&mut self, pid: ProcId, vpn: u64) -> bool {
        let set = self.set_index(vpn);
        let entry = TlbEntry { asid: pid.0, vpn };
        if let Some(i) = self.sets[set].iter().position(|e| *e == entry) {
            self.stats.hits.inc();
            let e = self.sets[set].remove(i).expect("position from iter");
            self.sets[set].push_front(e);
            true
        } else {
            self.stats.misses.inc();
            false
        }
    }

    /// Installs a translation after a walk.
    pub fn insert(&mut self, pid: ProcId, vpn: u64) {
        let set = self.set_index(vpn);
        let entry = TlbEntry { asid: pid.0, vpn };
        if self.sets[set].iter().any(|e| *e == entry) {
            return;
        }
        if self.sets[set].len() >= TLB_WAYS {
            self.sets[set].pop_back();
        }
        self.sets[set].push_front(entry);
    }

    /// Removes one translation (remap / unmap shootdown).
    pub fn shootdown(&mut self, pid: ProcId, vpn: u64) {
        let set = self.set_index(vpn);
        let entry = TlbEntry { asid: pid.0, vpn };
        if let Some(i) = self.sets[set].iter().position(|e| *e == entry) {
            self.sets[set].remove(i);
            self.stats.shootdowns.inc();
        }
    }

    /// Removes every translation of a process (exit / context teardown).
    pub fn flush_asid(&mut self, pid: ProcId) {
        for set in &mut self.sets {
            let before = set.len();
            set.retain(|e| e.asid != pid.0);
            self.stats.shootdowns.add((before - set.len()) as u64);
        }
    }

    /// Number of resident translations.
    pub fn len(&self) -> usize {
        self.sets.iter().map(|s| s.len()).sum()
    }

    /// Whether the TLB is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Number of sets: VPNs `v` and `v + SETS` share a set.
    const SETS: u64 = (TLB_ENTRIES / TLB_WAYS) as u64;

    #[test]
    fn hit_after_insert() {
        let mut t = Tlb::new();
        let p = ProcId(1);
        assert!(!t.lookup(p, 3));
        t.insert(p, 3);
        assert!(t.lookup(p, 3));
        assert_eq!(t.stats().hits.get(), 1);
        assert_eq!(t.stats().misses.get(), 1);
    }

    #[test]
    fn asids_do_not_alias() {
        let mut t = Tlb::new();
        t.insert(ProcId(1), 3);
        assert!(!t.lookup(ProcId(2), 3), "cross-process TLB hit");
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut t = Tlb::new();
        let p = ProcId(1);
        // Fill set 0's ways with VPNs 0, SETS, 2*SETS, ...
        for way in 0..TLB_WAYS as u64 {
            t.insert(p, way * SETS);
        }
        t.lookup(p, 0); // 0 is MRU, so VPN SETS is now LRU
        t.insert(p, TLB_WAYS as u64 * SETS); // evicts VPN SETS
        assert!(t.lookup(p, 0));
        assert!(!t.lookup(p, SETS));
        assert!(t.lookup(p, TLB_WAYS as u64 * SETS));
        assert_eq!(t.len(), TLB_WAYS);
    }

    #[test]
    fn shootdown_removes_exactly_one() {
        let mut t = Tlb::new();
        let p = ProcId(1);
        t.insert(p, 1);
        t.insert(p, 1 + SETS);
        t.shootdown(p, 1);
        assert!(!t.lookup(p, 1));
        assert!(t.lookup(p, 1 + SETS));
        assert_eq!(t.stats().shootdowns.get(), 1);
        // Shooting down an absent entry is a no-op.
        t.shootdown(p, 99);
        assert_eq!(t.stats().shootdowns.get(), 1);
    }

    #[test]
    fn flush_asid_clears_process() {
        let mut t = Tlb::new();
        t.insert(ProcId(1), 0);
        t.insert(ProcId(1), 1);
        t.insert(ProcId(2), 2);
        t.flush_asid(ProcId(1));
        assert!(!t.lookup(ProcId(1), 0));
        assert!(t.lookup(ProcId(2), 2));
        assert_eq!(t.len(), 1);
        assert_eq!(t.stats().shootdowns.get(), 2);
    }

    #[test]
    fn duplicate_insert_is_idempotent() {
        let mut t = Tlb::new();
        let p = ProcId(1);
        t.insert(p, 0);
        t.insert(p, 0);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn miss_rate() {
        let mut t = Tlb::new();
        let p = ProcId(1);
        assert_eq!(t.stats().miss_rate(), 0.0);
        t.lookup(p, 0);
        t.insert(p, 0);
        t.lookup(p, 0);
        assert_eq!(t.stats().miss_rate(), 0.5);
    }
}
