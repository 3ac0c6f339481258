//! Deterministic adversary sweep over the attack config matrix.
//!
//! ```text
//! attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--scattered] [--weakened] [--list]
//! ```
//!
//! Runs every attack script in [`AttackKind::ALL`] for seeds `0..N`
//! (N = 32) against [`AttackConfig::matrix`] (`--scattered`:
//! [`AttackConfig::scattered_matrix`]) and exits nonzero iff anything
//! leaked. `--weakened` runs only [`AttackConfig::weakened`] (no Merkle
//! tree), whose rollback-replay attack leaks, so the sweep must exit red
//! — CI runs it to prove the gate fires. Everything else is the shared
//! [`ss_harness::sweep`] program, run with the [`AttackSweep`] campaign.
//!
//! [`AttackKind::ALL`]: ss_harness::AttackKind::ALL
//! [`AttackConfig::matrix`]: ss_harness::AttackConfig::matrix
//! [`AttackConfig::scattered_matrix`]: ss_harness::AttackConfig::scattered_matrix
//! [`AttackConfig::weakened`]: ss_harness::AttackConfig::weakened

use std::process::ExitCode;

use ss_harness::{sweep, AttackSweep};

fn main() -> ExitCode {
    sweep::main::<AttackSweep>(std::env::args().skip(1))
}
