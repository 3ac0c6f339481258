//! Self-healing policy state: read-retry, spare-pool remapping, and
//! quarantine for the NVM data region.
//!
//! The paper motivates Silent Shredder with NVM's limited write
//! endurance (§1, §6.3); this module gives the controller the recovery
//! machinery a production part would pair with it. Three layers, in
//! escalation order:
//!
//! 1. **Retry**: a transient (soft) read error is re-read up to
//!    `MAX_RETRIES` times with bounded, deterministic exponential
//!    backoff. Soft errors do not repeat, so retries almost always clear
//!    them.
//! 2. **Remap** ([`SparePool`]): a line whose *permanent* weak cells are
//!    still within the ECC correction bound is rescued — decrypted,
//!    re-encrypted under a fresh IV (minor-counter bump), and moved to a
//!    spare line, with the counter + Merkle update committing the move.
//! 3. **Quarantine**: a line that is uncorrectable or cannot get a spare
//!    degrades loudly — every access returns
//!    [`ss_common::Error::Quarantined`] instead of silent garbage. A
//!    later full-line write may revive it if a spare has become
//!    moot/available.
//!
//! The spare pool and quarantine list model the controller's persistent
//! metadata: they survive [`power_loss`](crate::MemoryController::power_loss)
//! like the remap tables in real NVDIMM firmware do.

use std::collections::{BTreeMap, BTreeSet};

use ss_common::{BlockAddr, Counter, Cycles};

/// Re-reads after a transient uncorrectable read error before the read
/// fails (the old configurable default).
pub(crate) const MAX_RETRIES: u32 = 3;

/// Backoff before the first retry; it doubles per attempt (the old
/// configurable default).
pub(crate) const RETRY_BACKOFF_BASE: Cycles = Cycles::new(16);

/// Backoff charged before retry `attempt` (1-based):
/// `RETRY_BACKOFF_BASE * 2^(attempt-1)`, saturating.
pub(crate) fn retry_backoff(attempt: u32) -> Cycles {
    let shift = attempt.saturating_sub(1).min(16);
    Cycles::new(RETRY_BACKOFF_BASE.raw().saturating_mul(1 << shift))
}

/// Healing activity counters, exposed through
/// [`ControllerStats`](crate::ControllerStats).
#[derive(Debug, Clone, Default)]
pub struct HealthStats {
    /// Reads the device ECC corrected on the controller's behalf.
    pub ecc_corrected: Counter,
    /// Read retries issued after an uncorrectable transient error.
    pub retries: Counter,
    /// Reads that succeeded only after at least one retry.
    pub retried_ok: Counter,
    /// Total deterministic backoff charged across retries, in cycles.
    pub backoff_cycles: u64,
    /// Lines remapped into the spare pool (including write-path revives).
    pub remaps: Counter,
    /// Remap attempts that failed (spare pool exhausted or the rescue
    /// read was already uncorrectable).
    pub remap_failures: Counter,
    /// Quarantine events (lines retired without a successful remap).
    pub quarantined: Counter,
    /// Lines read by the background scrubber.
    pub scrub_reads: Counter,
    /// Scrub passes that found and healed (or retired) a degrading line.
    pub scrub_heals: Counter,
}

/// The bad-line remap table: a pool of spare lines, a map from failed
/// device slots to their spare, and the quarantine list for lines that
/// could not be saved. Spares are numbered from 0 within the pool; the
/// controller's NVM layout places the pool after the counter region.
#[derive(Debug, Clone)]
pub struct SparePool {
    /// Number of spare lines in the pool.
    total: u64,
    /// Bump allocator over the pool (spares are never reused: a spare
    /// that itself wears out is replaced by the next free slot).
    next_free: u64,
    /// Failed device line → its spare's number.
    map: BTreeMap<u64, u64>,
    /// Device lines that failed remap; every access errors loudly.
    quarantined: BTreeSet<u64>,
}

impl SparePool {
    /// An empty pool of `lines` spares.
    pub fn new(lines: u64) -> Self {
        SparePool {
            total: lines,
            next_free: 0,
            map: BTreeMap::new(),
            quarantined: BTreeSet::new(),
        }
    }

    /// The spare accesses to `dev` land on (`None` when not remapped).
    pub fn spare_of(&self, dev: BlockAddr) -> Option<u64> {
        self.map.get(&dev.raw()).copied()
    }

    /// Assigns the next free spare to `dev` (replacing any previous
    /// assignment, so a worn-out spare can itself be retired). Returns
    /// the spare, or `None` when the pool is exhausted.
    pub fn allocate(&mut self, dev: BlockAddr) -> Option<u64> {
        if self.next_free >= self.total {
            return None;
        }
        let spare = self.next_free;
        self.next_free += 1;
        self.map.insert(dev.raw(), spare);
        Some(spare)
    }

    /// Rolls back an interrupted allocation: removes the `dev → spare`
    /// redirect installed by [`SparePool::allocate`] and, when the spare
    /// was the most recent allocation, returns the slot to the bump
    /// allocator. Used only by crash recovery — a committed remap is
    /// never undone. Returns whether a redirect was removed.
    pub fn undo_remap(&mut self, dev: BlockAddr, spare: u64) -> bool {
        if self.spare_of(dev) != Some(spare) {
            return false;
        }
        self.map.remove(&dev.raw());
        if self.next_free > 0 && spare == self.next_free - 1 {
            self.next_free -= 1;
        }
        true
    }

    /// Puts `dev` on the quarantine list.
    pub fn quarantine(&mut self, dev: BlockAddr) {
        self.quarantined.insert(dev.raw());
    }

    /// Removes `dev` from the quarantine list (a full-line write revived
    /// it through a fresh spare).
    pub fn unquarantine(&mut self, dev: BlockAddr) {
        self.quarantined.remove(&dev.raw());
    }

    /// Whether `dev` is quarantined.
    pub fn is_quarantined(&self, dev: BlockAddr) -> bool {
        self.quarantined.contains(&dev.raw())
    }

    /// Number of lines currently remapped to spares.
    pub fn remapped_count(&self) -> u64 {
        self.map.len() as u64
    }

    /// Number of lines currently quarantined.
    pub fn quarantined_count(&self) -> u64 {
        self.quarantined.len() as u64
    }

    /// Spare lines still unallocated.
    pub fn free(&self) -> u64 {
        self.total - self.next_free
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_bounded_exponential() {
        assert_eq!(retry_backoff(1), Cycles::new(16));
        assert_eq!(retry_backoff(2), Cycles::new(32));
        assert_eq!(retry_backoff(3), Cycles::new(64));
        // Deterministic: same attempt, same backoff.
        assert_eq!(retry_backoff(3), retry_backoff(3));
    }

    #[test]
    fn pool_allocates_redirects_and_exhausts() {
        let mut pool = SparePool::new(2);
        let a = BlockAddr::new(0);
        let b = BlockAddr::new(64);
        assert_eq!(pool.spare_of(a), None, "not remapped yet");
        let s0 = pool.allocate(a).unwrap();
        assert_eq!(s0, 0);
        assert_eq!(pool.spare_of(a), Some(s0));
        assert_eq!(pool.free(), 1);
        // Re-allocating the same line retires its old spare.
        let s1 = pool.allocate(a).unwrap();
        assert_eq!(s1, 1);
        assert_eq!(pool.spare_of(a), Some(s1));
        assert_eq!(pool.free(), 0);
        assert!(pool.allocate(b).is_none(), "pool should be exhausted");
        assert_eq!(pool.remapped_count(), 1);
    }

    #[test]
    fn undo_remap_rolls_back_latest_allocation() {
        let mut pool = SparePool::new(2);
        let a = BlockAddr::new(0);
        let s0 = pool.allocate(a).unwrap();
        assert!(pool.undo_remap(a, s0));
        assert_eq!(pool.spare_of(a), None, "redirect removed");
        assert_eq!(pool.free(), 2, "slot returned to the bump allocator");
        // Mismatched spare (stale journal entry) is a no-op.
        let s1 = pool.allocate(a).unwrap();
        assert!(!pool.undo_remap(a, 0xDEAD));
        assert_eq!(pool.spare_of(a), Some(s1));
        assert!(!pool.undo_remap(BlockAddr::new(64), s1), "unmapped line");
    }

    #[test]
    fn quarantine_roundtrip() {
        let mut pool = SparePool::new(1);
        let a = BlockAddr::new(128);
        assert!(!pool.is_quarantined(a));
        pool.quarantine(a);
        assert!(pool.is_quarantined(a));
        assert_eq!(pool.quarantined_count(), 1);
        pool.unquarantine(a);
        assert!(!pool.is_quarantined(a));
    }
}
