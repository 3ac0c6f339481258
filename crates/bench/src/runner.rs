//! Shared experiment machinery.

use ss_common::Result;
use ss_cpu::Op;
use ss_sim::{RunReport, System, SystemConfig};
use ss_workloads::Workload;

/// How big to run the experiments. The paper's full scale (16 GiB, 64 MiB
/// L4, ≥500 M instructions/core) is deliberately scaled down per
/// DESIGN.md; both scales preserve the baseline-vs-shredder comparisons.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// Tiny: seconds per figure. Used by `repro --quick` and the tests.
    Quick,
    /// The default for the `repro` binary.
    Full,
}

impl ExperimentScale {
    /// Cache shrink factor relative to Table 1. Chosen together with
    /// `workload_divisor` so footprints exceed the L4 by the same ~4-30x
    /// margin as SPEC reference inputs exceed a 64 MiB L4.
    pub fn shrink(self) -> usize {
        match self {
            ExperimentScale::Quick => 256,
            ExperimentScale::Full => 128,
        }
    }

    /// Data-memory size in MiB.
    pub fn data_mib(self) -> u64 {
        match self {
            ExperimentScale::Quick => 16,
            ExperimentScale::Full => 128,
        }
    }

    /// Cores to run multiprogrammed workloads on.
    pub fn cores(self) -> usize {
        match self {
            ExperimentScale::Quick => 2,
            ExperimentScale::Full => 8,
        }
    }

    /// Workload size divisor (pages, nodes).
    pub fn workload_divisor(self) -> u64 {
        match self {
            ExperimentScale::Quick => 4,
            ExperimentScale::Full => 1,
        }
    }

    /// Applies the scale to a system configuration.
    pub fn apply(self, cfg: SystemConfig) -> SystemConfig {
        let mut cfg = cfg.scaled(self.shrink(), self.data_mib());
        cfg.hierarchy.cores = self.cores();
        cfg
    }
}

/// Runs `workload` multiprogrammed (one instance per core, different
/// seeds where the workload supports it) on a system built from `cfg`.
/// Frames are pre-aged so every allocation shreds (steady-state reuse).
///
/// # Errors
///
/// Propagates system construction and syscall errors.
pub fn run_workload(
    cfg: SystemConfig,
    workload: &dyn Workload,
    scale: ExperimentScale,
) -> Result<RunReport> {
    let cfg = scale.apply(cfg);
    let cores = cfg.cores();
    let mut system = System::new(cfg)?;
    system.age_free_frames();
    let mut streams: Vec<std::vec::IntoIter<Op>> = Vec::new();
    for core in 0..cores {
        let pid = system.spawn_process(core)?;
        let heap = system.sys_alloc(pid, workload.footprint_bytes())?;
        streams.push(workload.trace(heap).into_iter());
    }
    let summary = system.run(streams, None);
    system.drain_caches();
    Ok(RunReport::collect(&system, summary))
}

/// Scales a workload's intrinsic size fields down (helper used by the
/// experiment functions before calling [`run_workload`]).
pub fn scaled_spec(
    mut w: ss_workloads::SpecWorkload,
    scale: ExperimentScale,
) -> ss_workloads::SpecWorkload {
    w.pages = (w.pages / scale.workload_divisor()).max(16);
    w
}

/// Scales a graph workload.
pub fn scaled_graph(
    mut w: ss_workloads::GraphWorkload,
    scale: ExperimentScale,
) -> ss_workloads::GraphWorkload {
    w.nodes = (w.nodes / scale.workload_divisor()).max(128);
    w
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_workloads::spec_suite;

    #[test]
    fn quick_run_produces_report() {
        let w = scaled_spec(spec_suite()[0].clone(), ExperimentScale::Quick);
        let report = run_workload(SystemConfig::silent_shredder(), &w, ExperimentScale::Quick)
            .expect("run failed");
        assert!(report.summary.total_instructions() > 0);
        assert!(report.shreds > 0, "aged frames must shred on allocation");
        assert_eq!(report.mem.zeroing_writes.get(), 0);
    }

    #[test]
    fn baseline_quick_run_zeroes() {
        let w = scaled_spec(spec_suite()[0].clone(), ExperimentScale::Quick);
        let report =
            run_workload(SystemConfig::baseline(), &w, ExperimentScale::Quick).expect("run failed");
        assert!(report.mem.zeroing_writes.get() > 0);
        assert_eq!(report.shreds, 0);
    }
}
