//! Deterministic fault-injection and crash-recovery harness.
//!
//! Silent Shredder's security argument rests on what survives a crash:
//! the counter cache must be battery-backed write-back (§4.3) because
//! losing a major/minor counter makes ciphertext unrecoverable, and the
//! Merkle tree must reject replayed counters. This crate exercises
//! exactly those boundaries:
//!
//! * [`FaultPlan`] — a seeded, fully deterministic schedule of faults,
//!   indexed by cumulative NVM write count: power loss, counter-cache
//!   line drops, single-bit NVM cell flips (data and counter lines),
//!   counter replay, and MMIO shred failures.
//! * [`ShadowModel`] — a plain reference model of architectural state
//!   (expected plaintext per line, pre-shred secrets) that the
//!   controller is checked against after every fault.
//! * [`run_plan`] — drives a deterministic workload against the
//!   [`ss_core::ShardedController`] of a [`SweepConfig`] (one shard is
//!   the plain controller), fires the plan, runs recovery
//!   (`power_loss` → `recover_mut` → resume or degrade), and classifies
//!   every fault as recovered, detected, benign (with a verified bounded
//!   effect), skipped (not applicable to the configuration), or — the
//!   failure case — an undetected corruption.
//! * [`scenario`] — the write-queue-depth crash matrix used by
//!   `tests/persistence.rs`.
//!
//! * [`adversary`] — the malicious counterpart to the fault plan: an
//!   [`Adversary`] with scripted physical capabilities (cold scan of
//!   every persisted region between power cycles, stolen-DIMM offline
//!   decrypt, counter rollback and stale-ciphertext replay) driven
//!   through multi-step attack scenarios whose outcomes are classified
//!   `Defended`/`Detected`/`Leaked` — any `Leaked` fails the sweep.
//!   `attacksweep` (in `crates/bench`) runs the attack × seed × config
//!   matrix and is gated in CI against a committed golden report.
//! * [`crash`] — the torn-write persist-step crash matrix.
//! * [`sweep`] — the one program behind all three sweep binaries, over a
//!   [`Campaign`] per engine, and the one [`SweepConfig`] every engine
//!   runs: label, controller, shard count and whether reboot recovers.
//! * [`report`] — the outcome bookkeeping the three engines share: one
//!   [`Tally`] over each engine's [`Outcome`] enum and one [`Report`]
//!   over each engine's [`Record`] type.
//!
//! Everything is seeded through [`ss_common::DetRng`]: the same seed
//! always produces the same plan, the same workload, and the same
//! report. `faultsweep --seed N` (in `crates/bench`) replays one plan
//! with per-fault detail; `attacksweep --seed N` does the same for
//! attack scripts.

#![forbid(unsafe_code)]

pub mod adversary;
pub mod crash;
pub mod engine;
mod machine;
pub mod plan;
pub mod report;
pub mod scenario;
pub mod shadow;
pub mod sweep;

pub use adversary::{
    demo_records, run_attack, run_attacks, Adversary, AttackKind, AttackOutcome, AttackRecord,
    AttackSweep, DimmImage,
};
pub use crash::{run_crash_config, CrashOutcome, CrashRecord, CrashScenario, CrashSweep};
pub use engine::{run_plan, run_plan_full, FaultOutcome, FaultRecord, FaultSweep, PlanArtifacts};
pub use plan::{FaultKind, FaultPlan, ScheduledFault};
pub use report::{Outcome, PlanReport, Record, Report, Tally};
pub use scenario::{crash_at_depth, CrashVerdict};
pub use shadow::ShadowModel;
pub use sweep::{Campaign, SweepConfig};
