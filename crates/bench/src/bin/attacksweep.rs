//! Deterministic adversary sweep over the attack config matrix.
//!
//! ```text
//! attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--weakened] [--list]
//! ```
//!
//! Runs every attack script in [`AttackKind::ALL`] for seeds `0..N`
//! (N = 32) against the 10 configs of [`AttackSweep::matrix`]
//! (counter-mode and scattered two-share rows, 4- and 8-shard
//! included) and exits nonzero iff anything leaked. `--weakened` runs
//! only [`AttackSweep::weakened`] (no Merkle tree), whose
//! rollback-replay attack leaks, so the sweep must exit red — CI runs it
//! to prove the gate fires. Everything else is the shared
//! [`ss_harness::sweep`] program, run with the [`AttackSweep`] campaign.
//!
//! [`AttackKind::ALL`]: ss_harness::AttackKind::ALL
//! [`AttackSweep::matrix`]: ss_harness::Campaign::matrix
//! [`AttackSweep::weakened`]: ss_harness::Campaign::weakened

use std::process::ExitCode;

use ss_harness::{sweep, AttackSweep};

fn main() -> ExitCode {
    sweep::main::<AttackSweep>(std::env::args().skip(1))
}
