//! Per-core retirement and cycle accounting.

use ss_common::{Cycles, LatencyStat};

use crate::inst::Op;
use crate::machine::DataPath;

/// Counters for one core.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CoreStats {
    /// Instructions retired.
    pub instructions: u64,
    /// Cycles elapsed on this core.
    pub cycles: Cycles,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed (all flavours).
    pub stores: u64,
    /// Latency distribution of loads as seen by the core.
    pub load_latency: LatencyStat,
}

impl CoreStats {
    /// Instructions per cycle (0 when no cycles elapsed).
    pub fn ipc(&self) -> f64 {
        if self.cycles.raw() == 0 {
            0.0
        } else {
            self.instructions as f64 / self.cycles.raw() as f64
        }
    }
}

/// One in-order core: a thin state machine over [`CoreStats`].
#[derive(Debug, Clone, Default)]
pub struct CpuCore {
    stats: CoreStats,
}

impl CpuCore {
    /// Creates a core at cycle zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current local time.
    pub fn now(&self) -> Cycles {
        self.stats.cycles
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Retires `n` compute instructions (1 cycle each).
    pub fn retire_compute(&mut self, n: u64) {
        self.stats.instructions += n;
        self.stats.cycles += Cycles::new(n);
    }

    /// Retires a load that took `latency`.
    pub fn retire_load(&mut self, latency: Cycles) {
        self.stats.instructions += 1;
        self.stats.loads += 1;
        self.stats.cycles += Cycles::new(1) + latency;
        self.stats.load_latency.record(latency);
    }

    /// Retires a store that stalled the core for `latency` (issue cost;
    /// posted writes do not stall for the full memory access).
    pub fn retire_store(&mut self, latency: Cycles) {
        self.stats.instructions += 1;
        self.stats.stores += 1;
        self.stats.cycles += Cycles::new(1) + latency;
    }

    /// Retires a fence that waited `latency` for writes to drain.
    pub fn retire_fence(&mut self, latency: Cycles) {
        self.stats.instructions += 1;
        self.stats.cycles += Cycles::new(1) + latency;
    }

    /// Advances local time without retiring anything (e.g. the core sits
    /// in a page-fault handler accounted elsewhere).
    pub fn stall(&mut self, latency: Cycles) {
        self.stats.cycles += latency;
    }

    /// Executes `op` at this core's local time. Memory operations go to
    /// `datapath` as core `core` and stall for the latency it returns.
    pub fn step<D: DataPath + ?Sized>(&mut self, core: usize, op: Op, datapath: &mut D) {
        let now = self.now();
        match op {
            Op::Compute(k) => self.retire_compute(k),
            Op::Load(va) => self.retire_load(datapath.load(core, va, now)),
            Op::Store(va) => self.retire_store(datapath.store(core, va, now)),
            Op::StoreLine(va) => self.retire_store(datapath.store_line(core, va, now)),
            Op::StoreNt(va) => self.retire_store(datapath.store_nt(core, va, now)),
            Op::Fence => self.retire_fence(datapath.fence(core, now)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_is_one_for_pure_compute() {
        let mut c = CpuCore::new();
        c.retire_compute(1000);
        assert_eq!(c.stats().ipc(), 1.0);
    }

    #[test]
    fn memory_stalls_reduce_ipc() {
        let mut c = CpuCore::new();
        c.retire_compute(100);
        c.retire_load(Cycles::new(99));
        // 101 instructions over 200 cycles.
        assert!((c.stats().ipc() - 101.0 / 200.0).abs() < 1e-12);
        assert_eq!(c.stats().load_latency.count(), 1);
    }

    #[test]
    fn empty_core_has_zero_ipc() {
        assert_eq!(CpuCore::new().stats().ipc(), 0.0);
    }

    #[test]
    fn stall_adds_cycles_only() {
        let mut c = CpuCore::new();
        c.stall(Cycles::new(50));
        assert_eq!(c.stats().instructions, 0);
        assert_eq!(c.now(), Cycles::new(50));
    }

    #[test]
    fn stores_and_fences_counted() {
        let mut c = CpuCore::new();
        c.retire_store(Cycles::new(3));
        c.retire_fence(Cycles::new(10));
        assert_eq!(c.stats().stores, 1);
        assert_eq!(c.stats().instructions, 2);
        assert_eq!(c.now(), Cycles::new(1 + 3 + 1 + 10));
    }
}
