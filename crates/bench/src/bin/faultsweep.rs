//! Deterministic fault-injection sweep over the harness config matrix.
//!
//! ```text
//! faultsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!            [--metrics-json FILE] [--trace] [--list]
//! ```
//!
//! Runs the seeded fault plan for seeds `0..N` (N = 32) against the 27
//! configs of [`FaultSweep::matrix`] (counter-mode, ECB, plain and
//! scattered two-share rows, each on a one-shard controller) and exits
//! nonzero iff a fault resolved as an undetected corruption or a final
//! sweep failed.
//! `--metrics-json FILE` writes the unified metrics registry (DESIGN.md
//! §10) per config, summed over the campaign's seeds; `--trace` (replay
//! only) prints each run's event trace in simulated cycles. Everything
//! else is the shared [`ss_harness::sweep`] program, run with the
//! [`FaultSweep`] campaign.
//!
//! [`FaultSweep::matrix`]: ss_harness::Campaign::matrix

use std::process::ExitCode;

use ss_harness::{sweep, FaultSweep};

fn main() -> ExitCode {
    sweep::main::<FaultSweep>(std::env::args().skip(1))
}
