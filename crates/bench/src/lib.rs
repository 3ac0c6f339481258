//! Benchmark harness: regenerates every table and figure of the paper's
//! evaluation (§3, §5–§6) on the simulator.
//!
//! * [`runner`] — shared machinery for instantiating systems and running
//!   workloads on them.
//! * [`experiments`] — one function per paper artifact:
//!   Fig. 4 (kernel zeroing share of `memset`), Fig. 5 (shredding's share
//!   of graph-construction writes), Table 1 (configuration), Figs. 8–11
//!   (write savings / read savings / read speedup / IPC), Fig. 12
//!   (counter-cache size sweep), Table 2 (measured feature matrix of
//!   initialization mechanisms), plus the ablations DESIGN.md lists.
//! * [`mod@bench`] — the one program behind the committed benches
//!   (`protbench`, `shardbench`): a [`bench::Bench`] supplies the rows
//!   and the gate, and [`bench::main`] owns the flags, reports and exit
//!   status.
//!
//! The `repro` binary prints each artifact, and the `faultsweep` binary
//! runs the fault-injection campaign from the `ss-harness` crate.

#![forbid(unsafe_code)]

pub mod bench;
pub mod experiments;
pub mod runner;

pub use experiments::{
    ablation_counter_persistence, ablation_counter_strategy, ablation_dcw_fnw, ablation_endurance,
    ablation_wear_leveling, fig04, fig05, fig08_to_11, fig12, table2, BenchRow, Fig12Row, Fig4Row,
    Fig5Row, Table2Row,
};
pub use runner::{run_workload, ExperimentScale};
