//! The adversary model, end to end: two scripted multi-step attacks
//! from `ss_harness::adversary` against the paper's secure controller —
//! one silently *Defended* (shred-then-steal: cold scan + stolen-DIMM
//! offline decrypt + reboot reads all denied), one loudly *Detected*
//! (rollback-replay: the on-chip Merkle root rejects the stale
//! counter). The same records are asserted byte-for-byte by
//! `tests/end_to_end.rs::attack_demo_scenarios_resolve_as_documented`,
//! so this demo cannot silently rot.
//!
//! ```sh
//! cargo run --release --example attack_demo
//! ```
//!
//! For the full matrix (4 attacks × seeds × 10 configs, sharded and
//! scattered included) run the sweep: `cargo run --release -p ss-bench
//! --bin attacksweep`.

use ss_harness::{demo_records, AttackOutcome, AttackRecord};

fn narrate(heading: &str, record: &AttackRecord) {
    println!("{heading}");
    for step in &record.steps {
        println!("    . {step}");
    }
    println!("  => {}: {}\n", record.outcome.label(), record.detail);
}

fn main() {
    println!("Adversary-model demonstration (§4.1; arXiv:1902.03518 attacker)\n");
    let (defended, detected) = demo_records();

    narrate(
        "1. shred-then-steal: write secrets, shred, steal the DIMM cold",
        &defended,
    );
    narrate(
        "2. rollback-replay: capture counter+ciphertext, replay them at reboot",
        &detected,
    );

    assert_eq!(
        defended.outcome,
        AttackOutcome::Defended,
        "shred-then-steal must be silently defended"
    );
    assert_eq!(
        detected.outcome,
        AttackOutcome::Detected,
        "rollback-replay must be loudly detected"
    );
    println!(
        "Both attack-model properties hold: the zero-minor rule denies the \
         cold-scan/offline attacker, and the on-chip Merkle root (which the \
         adversary cannot roll back) catches the replay."
    );
}
