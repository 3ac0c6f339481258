//! Deterministic torn-write crash sweep over the persist-step matrix.
//!
//! ```text
//! crashsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!            [--scattered] [--weakened] [--list]
//! ```
//!
//! Cuts every scenario in [`CrashScenario::ALL`] at every persist step,
//! whole and torn, for seeds `0..N` (N = 8) against
//! [`CrashConfig::matrix`] (`--scattered`:
//! [`CrashConfig::scattered_matrix`]) and exits nonzero iff a crash point
//! went silent. `--weakened` runs only [`CrashConfig::weakened`] (reboot
//! recovery disabled), whose demand-write cuts serve garbage silently,
//! so the sweep must exit red — CI runs it to prove the gate fires.
//! Everything else is the shared [`ss_harness::sweep`] program, run with
//! the [`CrashSweep`] campaign.
//!
//! [`CrashScenario::ALL`]: ss_harness::CrashScenario::ALL
//! [`CrashConfig::matrix`]: ss_harness::CrashConfig::matrix
//! [`CrashConfig::scattered_matrix`]: ss_harness::CrashConfig::scattered_matrix
//! [`CrashConfig::weakened`]: ss_harness::CrashConfig::weakened

use std::process::ExitCode;

use ss_harness::{sweep, CrashSweep};

fn main() -> ExitCode {
    sweep::main::<CrashSweep>(std::env::args().skip(1))
}
