//! Security integration tests: the §4.1 / arXiv:1902.03518 attack
//! model against the real controller + NVM stack, driven through the
//! `ss_harness::adversary` capability API instead of ad-hoc peeks.
//!
//! The grid below is the contract: every attack script × every matrix
//! configuration resolves `Defended` or `Detected`, never `Leaked` (the
//! one exception is scattered-mode rollback-replay, pinned at `Skipped`
//! until the limit in DESIGN.md §15 is fixed), and the per-cell tests
//! pin *why* each defense holds (zero-minor reads, fresh-IV rescue,
//! on-chip Merkle root). Negative controls (plain NVM,
//! integrity off) prove the attacks are real by letting them succeed.

use silent_shredder::common::{Cycles, Error, PageId};
use silent_shredder::core::{CounterPersistence, NvmTarget};
use silent_shredder::prelude::*;
use ss_harness::{
    run_attack, run_attacks, Adversary, AttackKind, AttackOutcome, AttackSweep, Campaign,
    SweepConfig,
};

const SECRET: [u8; 64] = *b"TOP-SECRET private key material_TOP-SECRET private key material_";

fn adversary(cfg: ControllerConfig) -> Adversary {
    Adversary::build(&SweepConfig::new("test", cfg)).expect("adversary boot")
}

// --- the attack × defense grid --------------------------------------

#[test]
fn every_attack_is_defended_or_detected_on_every_matrix_config() {
    for cfg in AttackSweep::matrix() {
        for seed in [0, 11] {
            let report = run_attacks(&cfg, seed);
            assert!(
                report.clean(),
                "{} seed {seed} leaked:\n{report}",
                cfg.label
            );
            let scattered = cfg.controller.protection == ProtectionMode::Scattered;
            for record in &report.records {
                let expected = match record.kind {
                    // Scattered liveness metadata does not advance on
                    // live overwrites, so there is no rollback for the
                    // Merkle root to catch: the script skips rather than
                    // claim a defense (the limit in DESIGN.md §15).
                    AttackKind::RollbackReplay if scattered => AttackOutcome::Skipped,
                    // The only attack that *must* surface loudly: the
                    // adversary wrote valid-looking stale state, so
                    // serving anything silently would be a leak either
                    // way — the Merkle check turns it into an error.
                    AttackKind::RollbackReplay => AttackOutcome::Detected,
                    // Everything else is absorbed without the victim
                    // even noticing (zero-fill reads, fresh-IV or
                    // fresh-share rescue).
                    _ => AttackOutcome::Defended,
                };
                assert_eq!(
                    record.outcome, expected,
                    "{} seed {seed}: {record}",
                    cfg.label
                );
            }
        }
    }
}

#[test]
fn weakened_config_proves_the_attacks_are_real() {
    // Negative control: drop the Merkle tree and rollback-replay
    // actually resurrects stale state. If this ever stops leaking, the
    // attack scripts have gone soft and the whole grid proves nothing.
    let weakened = AttackSweep::weakened().expect("attacksweep has a weakened config");
    let record = run_attack(&weakened, AttackKind::RollbackReplay, 0);
    assert_eq!(record.outcome, AttackOutcome::Leaked, "{record}");
}

// --- remanence: cold-scan the stolen DIMM ---------------------------

#[test]
fn remanence_attack_succeeds_without_encryption() {
    let mut adv = adversary(
        ControllerConfigBuilder::plain()
            .data_capacity(1 << 20)
            .build()
            .expect("plain config"),
    );
    let addr = PageId::new(1).block_addr(0);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.power_off().unwrap();
    let image = adv.cold_scan().unwrap();
    assert!(
        image.contains_line(&SECRET),
        "plain NVM must leak (that is the vulnerability)"
    );
}

#[test]
fn remanence_attack_fails_with_ctr_encryption() {
    let mut adv = adversary(ControllerConfig::small_test());
    let addr = PageId::new(1).block_addr(0);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.power_off().unwrap();
    let image = adv.cold_scan().unwrap();
    assert!(!image.contains_line(&SECRET), "ciphertext equals plaintext");
}

// --- shredding vs the strongest (key-holding) attacker --------------

#[test]
fn shred_reads_zero_on_every_shard() {
    // One victim page per shard (pages 1..=4 hit shards 1,2,3,0 under
    // the round-robin interleave): after a shred, reads must zero-fill
    // on every shard, and the stolen-DIMM decrypt oracle must get zeros
    // too.
    let cfg = SweepConfig::sharded("x4", ControllerConfig::small_test(), 4);
    let mut adv = Adversary::build(&cfg).unwrap();
    assert_eq!(adv.shards(), 4);
    let pages: Vec<PageId> = (1..=4).map(PageId::new).collect();
    for &page in &pages {
        adv.victim_write(page.block_addr(0), &SECRET).unwrap();
        adv.victim_shred(page).unwrap();
    }
    for &page in &pages {
        let read = adv.victim_read(page.block_addr(0)).unwrap();
        assert!(
            read.zero_filled,
            "shredded read on page {page} hit the array"
        );
        assert_eq!(read.data, [0u8; 64]);
    }
    adv.power_off().unwrap();
    for &page in &pages {
        let plain = adv.offline_read(page.block_addr(0)).unwrap();
        assert_eq!(plain, [0u8; 64], "offline decrypt of shredded page {page}");
    }
    assert!(!adv.cold_scan().unwrap().contains_line(&SECRET));
}

#[test]
fn shredded_page_is_unintelligible_even_with_the_key() {
    // With the zero-fill rule disabled (major-bump-only), decryption
    // under the *current* IVs still cannot produce the old plaintext —
    // the major bump changed the pad.
    let mut adv = adversary(
        ControllerConfigBuilder::small_test()
            .shred_strategy(ShredStrategy::MajorBumpOnly)
            .build()
            .expect("major-bump-only config"),
    );
    let page = PageId::new(2);
    adv.victim_write(page.block_addr(0), &SECRET).unwrap();
    adv.victim_shred(page).unwrap();
    let read = adv.victim_read(page.block_addr(0)).unwrap();
    assert_ne!(read.data, SECRET);
    adv.power_off().unwrap();
    assert_ne!(adv.offline_read(page.block_addr(0)).unwrap(), SECRET);
}

// --- healing path: fresh-IV rescue, shred covers the spare pool -----

#[test]
fn remap_rescue_uses_a_fresh_iv() {
    let mut adv = adversary(ControllerConfig::small_test());
    let addr = PageId::new(3).block_addr(5);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.victim_flush_counters().unwrap();
    // Capture the original ciphertext across a power cycle, then wear
    // the line out so the demand read rescues it into the spare pool.
    adv.power_off().unwrap();
    let original_cipher = adv.capture_line(addr).unwrap();
    adv.power_on().unwrap();
    adv.age_line(addr, 1).unwrap();
    let read = adv.victim_read(addr).unwrap();
    assert_eq!(read.data, SECRET, "rescue must preserve the plaintext");
    assert_eq!(adv.remapped_lines(), 1, "the worn line must be remapped");
    adv.power_off().unwrap();
    let image = adv.cold_scan().unwrap();
    let spares: Vec<_> = image
        .spares
        .iter()
        .filter(|(_, _, l)| *l != [0u8; 64])
        .collect();
    assert!(!spares.is_empty(), "the rescued line must live in the pool");
    for (_, at, line) in &image.spares {
        assert_ne!(*line, SECRET, "spare at {at} holds raw plaintext");
        assert_ne!(
            *line, original_cipher,
            "spare at {at} reused the original IV: old ciphertext repeats"
        );
    }
}

#[test]
fn shred_covers_remapped_spare_residue() {
    let mut adv = adversary(ControllerConfig::small_test());
    let page = PageId::new(3);
    let addr = page.block_addr(5);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.age_line(addr, 1).unwrap();
    adv.victim_read(addr).unwrap();
    assert_eq!(adv.remapped_lines(), 1);
    adv.victim_shred(page).unwrap();
    let read = adv.victim_read(addr).unwrap();
    assert!(read.zero_filled, "shredded remapped line must zero-fill");
    adv.power_off().unwrap();
    assert_eq!(
        adv.offline_read(addr).unwrap(),
        [0u8; 64],
        "the rescued copy must be as dead as the original after shred"
    );
}

// --- rollback / replay ----------------------------------------------

#[test]
fn merkle_detects_counter_rollback_across_reboot() {
    let mut adv = adversary(ControllerConfig::small_test());
    let page = PageId::new(3);
    let addr = page.block_addr(0);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.victim_flush_counters().unwrap();
    // Capture version-1 state at one power cycle.
    adv.power_off().unwrap();
    let stale_cipher = adv.capture_line(addr).unwrap();
    let stale_counter = adv.capture_counter(page).unwrap();
    let roots_v1 = adv.cold_scan().unwrap().merkle_roots;
    adv.power_on().unwrap();
    // The victim advances to version 2 and persists.
    adv.victim_write(addr, &[1; 64]).unwrap();
    adv.victim_flush_counters().unwrap();
    // Replay the stale pair at the next reboot.
    adv.power_off().unwrap();
    let roots_v2 = adv.cold_scan().unwrap().merkle_roots;
    assert_ne!(roots_v1, roots_v2, "the on-chip root must have advanced");
    adv.replay_line(addr, stale_cipher).unwrap();
    adv.replay_counter(page, stale_counter).unwrap();
    // Reboot recovery re-verifies every counter line against the on-chip
    // root, so the rollback is caught at power-on, before any read.
    let err = adv.power_on().unwrap_err();
    assert!(matches!(err, Error::IntegrityViolation { .. }), "{err}");
    assert!(err.to_string().contains("page 3"), "{err}");
}

#[test]
fn integrity_disabled_makes_replay_silent() {
    // Negative control: without the Merkle tree the same script goes
    // undetected and decrypts the stale secret — demonstrating why the
    // paper requires counter integrity.
    let mut adv = adversary(
        ControllerConfigBuilder::small_test()
            .integrity(false)
            .build()
            .expect("integrity-off config"),
    );
    let page = PageId::new(3);
    let addr = page.block_addr(0);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.victim_flush_counters().unwrap();
    adv.power_off().unwrap();
    let stale_cipher = adv.capture_line(addr).unwrap();
    let stale_counter = adv.capture_counter(page).unwrap();
    assert!(
        adv.cold_scan().unwrap().merkle_roots[0].1.is_none(),
        "no on-chip root to compare against"
    );
    adv.power_on().unwrap();
    adv.victim_write(addr, &[1; 64]).unwrap();
    adv.victim_flush_counters().unwrap();
    adv.power_off().unwrap();
    adv.replay_line(addr, stale_cipher).unwrap();
    adv.replay_counter(page, stale_counter).unwrap();
    adv.power_on().unwrap();
    let read = adv.victim_read(addr).unwrap();
    assert_eq!(read.data, SECRET, "replay should succeed without integrity");
}

#[test]
fn tampering_with_data_yields_garbage_not_chosen_plaintext() {
    // §7.1: an attacker writing ciphertext of their choosing cannot
    // inject chosen plaintext without the key.
    let mut adv = adversary(ControllerConfig::small_test());
    let addr = PageId::new(1).block_addr(0);
    adv.victim_write(addr, &SECRET).unwrap();
    adv.victim_flush_counters().unwrap();
    adv.power_off().unwrap();
    adv.replay_line(addr, [0u8; 64]).unwrap();
    adv.power_on().unwrap();
    let read = adv.victim_read(addr).unwrap();
    assert_ne!(read.data, [0u8; 64], "attacker controlled the plaintext");
    assert_ne!(read.data, SECRET);
}

// --- software / crash surfaces --------------------------------------

#[test]
fn user_space_cannot_shred() {
    let mut adv = adversary(ControllerConfig::small_test());
    let page = PageId::new(1);
    adv.victim_write(page.block_addr(0), &SECRET).unwrap();
    let err = adv.user_shred(page).unwrap_err();
    assert!(matches!(err, Error::PrivilegeViolation { .. }), "{err}");
    // The denied shred must not have touched the page.
    let read = adv.victim_read(page.block_addr(0)).unwrap();
    assert_eq!(read.data, SECRET);
}

#[test]
fn user_space_cannot_shred_a_shard_either() {
    let cfg = SweepConfig::sharded("x4", ControllerConfig::small_test(), 4);
    let mut adv = Adversary::build(&cfg).unwrap();
    let page = PageId::new(2);
    adv.victim_write(page.block_addr(0), &SECRET).unwrap();
    let err = adv.user_shred(page).unwrap_err();
    assert!(matches!(err, Error::PrivilegeViolation { .. }), "{err}");
    assert_eq!(adv.victim_read(page.block_addr(0)).unwrap().data, SECRET);
}

#[test]
fn volatile_counter_cache_is_a_real_crash_hazard() {
    let mut adv = adversary(
        ControllerConfigBuilder::small_test()
            .counter_persistence(CounterPersistence::VolatileWriteBack)
            .build()
            .expect("volatile-counter config"),
    );
    adv.victim_write(PageId::new(1).block_addr(0), &SECRET)
        .unwrap();
    adv.power_off().unwrap();
    assert!(
        matches!(adv.power_on(), Err(Error::CounterLoss)),
        "recovery must refuse: dirty counters died with the power"
    );
}

// --- cells below stay on the raw controller: they probe properties the
// --- adversary model abstracts over (ciphertext structure, quarantine)

#[test]
fn ciphertext_is_spatially_and_temporally_unique() {
    let mut mc = MemoryController::new(ControllerConfig::small_test()).unwrap();
    let page = PageId::new(1);
    // Same plaintext at two addresses: different ciphertext (spatial).
    mc.write_block(page.block_addr(0), &SECRET, false, Cycles::ZERO)
        .unwrap();
    mc.write_block(page.block_addr(1), &SECRET, false, Cycles::ZERO)
        .unwrap();
    let c0 = mc.faults().nvm_peek(NvmTarget::Data(page.block_addr(0)));
    let c1 = mc.faults().nvm_peek(NvmTarget::Data(page.block_addr(1)));
    assert_ne!(c0, c1);
    // Rewriting the same plaintext: different ciphertext (temporal),
    // which defeats replay/dictionary profiling of write patterns.
    mc.write_block(page.block_addr(0), &SECRET, false, Cycles::ZERO)
        .unwrap();
    let c0b = mc.faults().nvm_peek(NvmTarget::Data(page.block_addr(0)));
    assert_ne!(c0, c0b);
}

#[test]
fn quarantined_lines_fail_loudly_not_silently() {
    // When ECC detects more than it can correct and the spare pool is
    // exhausted, reads must degrade to a *loud* error — never garbage.
    let mut mc = MemoryController::new(
        ControllerConfigBuilder::small_test()
            .spare_lines(0)
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = PageId::new(1).block_addr(0);
    mc.write_block(addr, &SECRET, false, Cycles::ZERO).unwrap();
    // Two weak cells exceed SECDED's single-bit correction.
    mc.faults().force_line_failure(addr, 2);
    let err = mc.read_block(addr, Cycles::ZERO).unwrap_err();
    assert!(matches!(err, Error::Quarantined { .. }));
    // With no spare to rescue to, writes degrade loudly too: the
    // address stays quarantined rather than accepting data it would
    // later serve corrupted.
    let err = mc
        .write_block(addr, &[7u8; 64], false, Cycles::ZERO)
        .unwrap_err();
    assert!(matches!(err, Error::Quarantined { .. }));
}

#[test]
fn ecb_mode_leaks_equality_ctr_does_not() {
    let mut ecb = MemoryController::new(
        ControllerConfigBuilder::new()
            .data_capacity(1 << 20)
            .protection(ProtectionMode::Ecb)
            .shredder(false)
            .integrity(false)
            .build()
            .unwrap(),
    )
    .unwrap();
    let a = PageId::new(0).block_addr(0);
    let b = PageId::new(0).block_addr(1);
    ecb.write_block(a, &SECRET, false, Cycles::ZERO).unwrap();
    ecb.write_block(b, &SECRET, false, Cycles::ZERO).unwrap();
    assert_eq!(
        ecb.faults().nvm_peek(NvmTarget::Data(a)),
        ecb.faults().nvm_peek(NvmTarget::Data(b))
    );
}
