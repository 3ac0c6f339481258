//! Deterministic multi-core execution driver.
//!
//! Cores are actors with local clocks; the driver always advances the
//! core with the smallest local time, so accesses hit the shared caches
//! and memory channels in a globally consistent order — a discrete-event
//! approximation of the paper's cycle-accurate gem5 runs.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use ss_common::{Cycles, VirtAddr};

use crate::core_model::{CoreStats, CpuCore};
use crate::inst::Op;

/// The memory system as seen by a core. Implemented by `ss-sim` over the
/// hierarchy + OS + controller stack; latencies returned here are what
/// the core stalls for.
pub trait DataPath {
    /// Performs a load; returns its latency.
    fn load(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles;
    /// Performs a partial-line store; returns the stall latency.
    fn store(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles;
    /// Performs a full-line store; returns the stall latency.
    fn store_line(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles;
    /// Performs a non-temporal (cache-bypassing) store.
    fn store_nt(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles;
    /// Waits for this core's posted writes to drain.
    fn fence(&mut self, core: usize, now: Cycles) -> Cycles;
}

/// Result of a multi-core run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSummary {
    /// Per-core statistics.
    pub cores: Vec<CoreStats>,
}

impl RunSummary {
    /// Mean of the per-core IPCs (cores that retired nothing excluded).
    pub fn mean_ipc(&self) -> f64 {
        let active: Vec<f64> = self
            .cores
            .iter()
            .filter(|c| c.instructions > 0)
            .map(|c| c.ipc())
            .collect();
        if active.is_empty() {
            0.0
        } else {
            active.iter().sum::<f64>() / active.len() as f64
        }
    }

    /// Total instructions retired.
    pub fn total_instructions(&self) -> u64 {
        self.cores.iter().map(|c| c.instructions).sum()
    }

    /// The longest core runtime (wall-clock of the run).
    pub fn makespan(&self) -> Cycles {
        self.cores
            .iter()
            .map(|c| c.cycles)
            .max()
            .unwrap_or(Cycles::ZERO)
    }

    /// Mean load latency over all cores, in cycles.
    pub fn mean_load_latency(&self) -> f64 {
        let mut merged = ss_common::LatencyStat::new();
        for c in &self.cores {
            merged.merge(&c.load_latency);
        }
        merged.mean()
    }
}

/// Runs one instruction stream per core to completion (or until a core
/// has retired `instruction_limit` instructions), interleaving cores by
/// local time.
///
/// # Panics
///
/// Panics if `streams` is empty.
pub fn run_multicore<I, D>(
    streams: Vec<I>,
    datapath: &mut D,
    instruction_limit: Option<u64>,
) -> RunSummary
where
    I: Iterator<Item = Op>,
    D: DataPath + ?Sized,
{
    assert!(!streams.is_empty(), "need at least one core");
    let n = streams.len();
    let mut cores: Vec<CpuCore> = (0..n).map(|_| CpuCore::new()).collect();
    let mut streams: Vec<I> = streams;
    // Min-heap of (local_time, core_id); ties broken by core id for
    // determinism.
    let mut heap: BinaryHeap<Reverse<(u64, usize)>> = (0..n).map(|c| Reverse((0, c))).collect();
    let mut live = vec![true; n];

    while let Some(Reverse((_, c))) = heap.pop() {
        if !live[c] {
            continue;
        }
        if let Some(limit) = instruction_limit {
            if cores[c].stats().instructions >= limit {
                live[c] = false;
                continue;
            }
        }
        match streams[c].next() {
            None => {
                live[c] = false;
            }
            Some(op) => {
                cores[c].step(c, op, datapath);
                heap.push(Reverse((cores[c].now().raw(), c)));
            }
        }
    }

    RunSummary {
        cores: cores.into_iter().map(|c| c.stats().clone()).collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A trivial datapath: every access costs a fixed latency.
    struct FixedLat(u64);

    impl DataPath for FixedLat {
        fn load(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::new(self.0)
        }
        fn store(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::new(self.0)
        }
        fn store_line(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::new(self.0)
        }
        fn store_nt(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::new(self.0)
        }
        fn fence(&mut self, _c: usize, _n: Cycles) -> Cycles {
            Cycles::ZERO
        }
    }

    /// Records the global order in which accesses arrive.
    struct OrderProbe {
        order: Vec<(usize, u64)>,
    }

    impl DataPath for OrderProbe {
        fn load(&mut self, c: usize, _v: VirtAddr, now: Cycles) -> Cycles {
            self.order.push((c, now.raw()));
            Cycles::new(10)
        }
        fn store(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::ZERO
        }
        fn store_line(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::ZERO
        }
        fn store_nt(&mut self, _c: usize, _v: VirtAddr, _n: Cycles) -> Cycles {
            Cycles::ZERO
        }
        fn fence(&mut self, _c: usize, _n: Cycles) -> Cycles {
            Cycles::ZERO
        }
    }

    #[test]
    fn single_core_compute_only() {
        let ops = vec![Op::Compute(50), Op::Compute(50)];
        let summary = run_multicore(vec![ops.into_iter()], &mut FixedLat(0), None);
        assert_eq!(summary.total_instructions(), 100);
        assert_eq!(summary.mean_ipc(), 1.0);
    }

    #[test]
    fn loads_stall() {
        let ops = vec![Op::Load(VirtAddr::new(0)); 10];
        let summary = run_multicore(vec![ops.into_iter()], &mut FixedLat(9), None);
        // Each load: 1 cycle + 9 stall = 10 cycles.
        assert_eq!(summary.cores[0].cycles, Cycles::new(100));
        assert!((summary.mean_ipc() - 0.1).abs() < 1e-12);
        assert_eq!(summary.mean_load_latency(), 9.0);
    }

    #[test]
    fn cores_interleave_by_local_time() {
        // Core 0 does long computes between loads; core 1 loads rapidly.
        // Accesses must arrive in non-decreasing time order per the driver.
        let s0 = vec![Op::Compute(100), Op::Load(VirtAddr::new(0))];
        let s1 = vec![Op::Load(VirtAddr::new(64)); 5];
        let mut probe = OrderProbe { order: Vec::new() };
        run_multicore(vec![s0.into_iter(), s1.into_iter()], &mut probe, None);
        let times: Vec<u64> = probe.order.iter().map(|&(_, t)| t).collect();
        let mut sorted = times.clone();
        sorted.sort_unstable();
        assert_eq!(
            times, sorted,
            "accesses out of time order: {:?}",
            probe.order
        );
        // Core 1's early loads come before core 0's late one.
        assert_eq!(probe.order.first().map(|&(c, _)| c), Some(1));
        assert_eq!(probe.order.last().map(|&(c, _)| c), Some(0));
    }

    #[test]
    fn instruction_limit_stops_cores() {
        let ops = std::iter::repeat(Op::Compute(1));
        let summary = run_multicore(vec![ops], &mut FixedLat(0), Some(500));
        assert_eq!(summary.total_instructions(), 500);
    }

    #[test]
    fn determinism() {
        let mk = || {
            vec![
                vec![Op::Load(VirtAddr::new(0)), Op::Compute(3)].into_iter(),
                vec![Op::Compute(2), Op::Load(VirtAddr::new(64))].into_iter(),
            ]
        };
        let a = run_multicore(mk(), &mut FixedLat(7), None);
        let b = run_multicore(mk(), &mut FixedLat(7), None);
        assert_eq!(a, b);
    }
}
