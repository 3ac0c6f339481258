//! The minimal instruction vocabulary driving the simulator.

use ss_common::VirtAddr;

/// One unit of simulated work, as produced by workload generators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `n` non-memory instructions (1 cycle each).
    Compute(u64),
    /// A load from a virtual address.
    Load(VirtAddr),
    /// A store to part of a cache line (read-for-ownership semantics).
    Store(VirtAddr),
    /// A full-cache-line store (e.g. `memset` inner loop, `movq`
    /// sequences covering a whole line).
    StoreLine(VirtAddr),
    /// A non-temporal full-line store (`movntq`): bypasses the caches.
    StoreNt(VirtAddr),
    /// A store fence (`sfence`): waits for posted writes to drain.
    Fence,
}

impl Op {
    /// How many retired instructions this op represents.
    pub fn instructions(&self) -> u64 {
        match self {
            Op::Compute(n) => *n,
            _ => 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instruction_counts() {
        assert_eq!(Op::Compute(10).instructions(), 10);
        assert_eq!(Op::Load(VirtAddr::new(0)).instructions(), 1);
        assert_eq!(Op::Fence.instructions(), 1);
    }
}
