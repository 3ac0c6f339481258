//! Deterministic fault-injection sweep over the harness config matrix.
//!
//! ```text
//! faultsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!            [--metrics-json FILE] [--scattered] [--trace] [--list]
//! ```
//!
//! Runs the seeded fault plan for seeds `0..N` (N = 32) against
//! [`HarnessConfig::matrix`] (`--scattered`:
//! [`HarnessConfig::scattered_matrix`]) and exits nonzero iff a fault
//! resolved as an undetected corruption or a final sweep failed.
//! `--metrics-json FILE` writes the unified metrics registry (DESIGN.md
//! §10) per config, summed over the campaign's seeds; `--trace` (replay
//! only) prints each run's event trace in simulated cycles. Everything
//! else is the shared [`ss_harness::sweep`] program, run with the
//! [`FaultSweep`] campaign.
//!
//! [`HarnessConfig::matrix`]: ss_harness::HarnessConfig::matrix
//! [`HarnessConfig::scattered_matrix`]: ss_harness::HarnessConfig::scattered_matrix

use std::process::ExitCode;

use ss_harness::{sweep, FaultSweep};

fn main() -> ExitCode {
    sweep::main::<FaultSweep>(std::env::args().skip(1))
}
