//! Time-shared execution: more processes than cores.
//!
//! §6.1 argues Silent Shredder matters most on *highly loaded* systems:
//! consolidation pushes processor utilisation up, memory pressure makes
//! page faults frequent, and fault latency (dominated by zeroing)
//! becomes critical. This module runs an arbitrary number of processes
//! on the fixed core count with round-robin quanta and per-switch
//! overhead, so load can be swept past 1.0.
//!
//! Context switches do **not** flush the TLBs — entries are ASID-tagged,
//! as on real hardware — but a switched-in process naturally re-misses
//! on its cold translations.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use ss_common::Cycles;
use ss_cpu::{CpuCore, Op, RunSummary};
use ss_os::ProcId;

use crate::system::System;

/// One schedulable job: a process and its remaining instruction stream.
struct Job {
    pid: ProcId,
    ops: std::vec::IntoIter<Op>,
}

/// Instructions per scheduling quantum (the old configurable default).
const QUANTUM: u64 = 20_000;

/// Kernel overhead charged at every context switch (the old
/// configurable default).
const SWITCH_COST: Cycles = Cycles::new(2_000);

impl System {
    /// Runs `jobs` (any number) over all cores with round-robin quanta
    /// of 20,000 instructions. Each job must reference memory of the
    /// given process. Returns the per-core execution summary.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty.
    pub fn run_timeshared(&mut self, jobs: Vec<(ProcId, Vec<Op>)>) -> RunSummary {
        assert!(!jobs.is_empty(), "need at least one job");
        let cores = self.config().cores();
        let mut ready: VecDeque<Job> = jobs
            .into_iter()
            .map(|(pid, ops)| Job {
                pid,
                ops: ops.into_iter(),
            })
            .collect();
        let mut cpu: Vec<CpuCore> = (0..cores).map(|_| CpuCore::new()).collect();
        let mut last_pid: Vec<Option<ProcId>> = vec![None; cores];
        // Min-heap of idle cores by local time (ties by index).
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> =
            (0..cores).map(|c| Reverse((0, c))).collect();

        while let (Some(Reverse((_, core))), false) = (heap.pop(), ready.is_empty()) {
            let mut job = ready.pop_front().expect("checked non-empty");
            // A real context switch only happens when the core changes
            // address spaces; re-dispatching the same process is free.
            if last_pid[core] != Some(job.pid) {
                cpu[core].stall(SWITCH_COST);
                last_pid[core] = Some(job.pid);
            }
            self.set_running(core, job.pid);
            let mut retired = 0u64;
            let mut exhausted = false;
            while retired < QUANTUM {
                match job.ops.next() {
                    None => {
                        exhausted = true;
                        break;
                    }
                    Some(op) => {
                        cpu[core].step(core, op, self);
                        retired += op.instructions();
                    }
                }
            }
            self.clear_running(core);
            if !exhausted {
                ready.push_back(job);
            }
            heap.push(Reverse((cpu[core].now().raw(), core)));
        }

        RunSummary {
            cores: cpu.into_iter().map(|c| c.stats().clone()).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemConfig;
    use ss_common::PAGE_SIZE;

    /// Compute instructions per page: 16 pages of them make a job about
    /// eight quanta long, so every job is preempted several times.
    const COMPUTE: u64 = 10_000;

    fn job_ops(heap: ss_common::VirtAddr, pages: u64) -> Vec<Op> {
        (0..pages)
            .flat_map(|p| {
                [
                    Op::StoreLine(heap.add(p * PAGE_SIZE as u64)),
                    Op::Compute(COMPUTE),
                    Op::Load(heap.add(p * PAGE_SIZE as u64 + 512)),
                ]
            })
            .collect()
    }

    fn run_load(jobs_n: usize) -> RunSummary {
        let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
        sys.age_free_frames();
        let mut jobs = Vec::new();
        for _ in 0..jobs_n {
            let pid = sys.kernel_create_process();
            let heap = sys.sys_alloc(pid, 16 * PAGE_SIZE as u64).unwrap();
            let ops = job_ops(heap, 16);
            assert!(ops.iter().map(Op::instructions).sum::<u64>() > QUANTUM);
            jobs.push((pid, ops));
        }
        sys.run_timeshared(jobs)
    }

    #[test]
    fn all_jobs_complete() {
        let summary = run_load(6); // 6 jobs on 2 cores
                                   // 6 jobs × 16 pages × 3 ops, Compute(COMPUTE) counting COMPUTE
                                   // instructions.
        let expected: u64 = 6 * 16 * (1 + COMPUTE + 1);
        assert_eq!(summary.total_instructions(), expected);
    }

    #[test]
    fn oversubscription_costs_switches() {
        let light = run_load(2); // one job per core: few switches
        let heavy = run_load(8);
        // Per-instruction cost should be higher under oversubscription
        // (context switches + cache/TLB interference).
        let cost = |s: &RunSummary| {
            s.cores.iter().map(|c| c.cycles.raw()).sum::<u64>() as f64
                / s.total_instructions() as f64
        };
        assert!(
            cost(&heavy) > cost(&light),
            "oversubscription should cost: {} vs {}",
            cost(&heavy),
            cost(&light)
        );
    }

    #[test]
    #[should_panic(expected = "at least one job")]
    fn empty_jobs_panics() {
        let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
        sys.run_timeshared(vec![]);
    }
}
