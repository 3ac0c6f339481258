//! Workload generators reproducing the paper's evaluation inputs (§5).
//!
//! The paper runs 26 SPEC CPU2006 benchmarks (reference inputs,
//! checkpointed at the initialization phase) and PowerGraph applications
//! (checkpointed at graph construction) on real hardware under gem5.
//! Neither SPEC binaries nor PowerGraph are available here, so — per the
//! substitution rules in DESIGN.md — this crate generates *synthetic
//! memory traces with the same structure*:
//!
//! * [`spec`] — 26 named workload models. Each is parameterised by
//!   footprint, memory intensity, how much of each allocated page the
//!   program itself initialises, how often it reads data it never wrote
//!   (the shredded-read fraction), and rewrite behaviour. The parameters
//!   are calibrated to the per-benchmark characteristics the paper
//!   reports (write-sparse H264/DealII/Hmmer, fresh-read-heavy Bwaves,
//!   write-heavy Milc/Lbm, …); see EXPERIMENTS.md.
//! * [`graph`] — the eleven PowerGraph applications of Fig. 5 as *memory
//!   traces of real algorithms*: a synthetic power-law (Twitter-like) or
//!   bipartite (Netflix-like) graph is generated, its CSR construction
//!   emitted as stores, and the algorithm's access pattern (sequential
//!   edge scans + random vertex-state access) emitted as loads/stores.
//!
//! Every generator is seeded and deterministic.

#![forbid(unsafe_code)]

pub mod graph;
pub mod micro;
pub mod spec;

pub use graph::{GraphApp, GraphWorkload};
pub use micro::{MicroPattern, MicroWorkload};
pub use spec::{spec_suite, SpecWorkload};

use ss_cpu::Op;

/// A workload that can be instantiated for one process.
pub trait Workload {
    /// The benchmark's display name (matches the paper's figures).
    fn name(&self) -> &str;

    /// Bytes of heap the workload allocates.
    fn footprint_bytes(&self) -> u64;

    /// Generates the operation trace, given the base virtual address the
    /// OS returned for the workload's allocation.
    fn trace(&self, heap: ss_common::VirtAddr) -> Vec<Op>;
}
