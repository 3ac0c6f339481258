//! Golden-range regression tests: pin the headline metrics at Quick
//! scale so calibration drift is caught immediately. Ranges are wide
//! enough to tolerate benign model changes but tight enough that a
//! broken mechanism (zero-fill, shred accounting, counter cache) fails.

use ss_bench::experiments;
use ss_bench::runner::ExperimentScale;

#[test]
fn fig8_headline_ranges_hold() {
    let rows = experiments::fig08_to_11(ExperimentScale::Quick).expect("fig08");
    let avg = experiments::average_row(&rows);
    assert!(
        (0.35..=0.75).contains(&avg.write_savings),
        "write savings drifted: {:.3}",
        avg.write_savings
    );
    assert!(
        (0.25..=0.70).contains(&avg.read_savings),
        "read savings drifted: {:.3}",
        avg.read_savings
    );
    assert!(
        (1.3..=4.5).contains(&avg.read_speedup),
        "read speedup drifted: {:.2}",
        avg.read_speedup
    );
    assert!(
        (1.0..=1.25).contains(&avg.relative_ipc),
        "relative IPC drifted: {:.3}",
        avg.relative_ipc
    );
    // Every benchmark must benefit on writes and never regress IPC badly.
    for r in &rows {
        assert!(r.write_savings > 0.1, "{} write savings collapsed", r.name);
        assert!(r.relative_ipc > 0.97, "{} IPC regressed", r.name);
    }
}

#[test]
fn fig4_zeroing_share_in_range() {
    let rows = experiments::fig04(ExperimentScale::Quick).expect("fig04");
    for r in &rows {
        assert!(
            (0.15..=0.45).contains(&r.zeroing_fraction),
            "zeroing share drifted: {:.3}",
            r.zeroing_fraction
        );
        assert!(r.first_memset > 2 * r.second_memset);
    }
}

#[test]
fn fig12_miss_rate_is_monotone_nonincreasing() {
    let rows = experiments::fig12(ExperimentScale::Quick).expect("fig12");
    for pair in rows.windows(2) {
        assert!(
            pair[1].miss_rate <= pair[0].miss_rate + 0.01,
            "miss rate rose with capacity: {pair:?}"
        );
    }
    assert!(rows.first().expect("rows").miss_rate > rows.last().expect("rows").miss_rate);
}

#[test]
fn table2_silent_shredder_has_all_features() {
    let rows = experiments::table2(ExperimentScale::Quick).expect("table2");
    let ss = rows
        .iter()
        .find(|r| r.mechanism == "Silent Shredder")
        .expect("row");
    assert_eq!(ss.features(), [true; 6], "{ss:?}");
    // And no other mechanism matches it.
    for r in &rows {
        if r.mechanism != "Silent Shredder" {
            assert_ne!(r.features(), [true; 6], "{} too good", r.mechanism);
        }
    }
}

#[test]
fn load_sweep_benefit_does_not_collapse() {
    let rows = experiments::ablation_load(ExperimentScale::Quick).expect("load");
    for r in &rows {
        assert!(
            r.relative_ipc() > 1.0,
            "no benefit at load {}: {:.3}",
            r.load,
            r.relative_ipc()
        );
    }
}

mod common;

/// Triaged from `tests/properties.proptest-regressions` (seed
/// `fd373913…`, shrunk by proptest against `hierarchy_coherence`): core
/// 0 fills a two-way L1 set (lines 24, 8, 4 alias once 24 is evicted),
/// rewrites line 24, and core 1 must then snoop the *rewritten* value
/// out of core 0's private cache rather than read a stale copy from a
/// shared level or memory.
#[test]
fn regression_cross_core_read_after_rewrite_sees_newest_value() {
    common::run_hierarchy_coherence(
        2,
        &[
            (0, 0, 24, 0),
            (0, 0, 8, 0),
            (0, 0, 4, 0),
            (0, 0, 24, 1),
            (1, 1, 24, 0),
        ],
    );
}

/// Triaged from `tests/properties.proptest-regressions` (seed
/// `d65d8538…`, shrunk by proptest against `kernel_frame_conservation`):
/// one process allocates a 1-page heap and then a 4-page heap, and the
/// first store fault on the newer heap must map a frame without
/// double-mapping or losing any — the shrunk sequence caught frame
/// accounting going wrong on the second, larger allocation.
#[test]
fn regression_second_alloc_touch_conserves_frames() {
    common::run_kernel_frame_conservation(&[(0, 1, 0), (1, 1, 0), (1, 1, 3), (2, 1, 0)]);
}

// --- adversary-report determinism pins ------------------------------
//
// The attacksweep golden gate compares whole files; these named tests
// pin the *individual* ordering invariants that keep those files
// byte-stable, so a future violation fails with a precise name instead
// of a wall of golden diff. (The 32-seed double-run triage during
// development found no divergent seed — these guard the properties that
// keep it that way.)

/// Cold-scan images must be shard-major and address-ordered within each
/// shard: the scan iterates shards `0..n` over the device's BTreeMap.
/// A HashMap (or per-shard thread) sneaking into the scan path would
/// scramble this order and with it every sharded golden report.
#[test]
fn regression_attack_cold_scan_is_shard_major_address_ordered() {
    use silent_shredder::common::PageId;
    use silent_shredder::core::ControllerConfig;
    use ss_harness::{Adversary, SweepConfig};

    let cfg = SweepConfig::sharded("x4", ControllerConfig::small_test(), 4);
    let mut adv = Adversary::build(&cfg).unwrap();
    // One line on every shard (pages 1..=8 cover shards 0..4 twice).
    for p in 1..=8u64 {
        adv.victim_write(PageId::new(p).block_addr(0), &[p as u8; 64])
            .unwrap();
    }
    adv.victim_flush_counters().unwrap();
    adv.power_off().unwrap();
    let image = adv.cold_scan().unwrap();
    let data_keys: Vec<(u32, u64)> = image.data.iter().map(|(s, a, _)| (*s, a.raw())).collect();
    let mut sorted = data_keys.clone();
    sorted.sort_unstable();
    assert_eq!(data_keys, sorted, "data scan not (shard, addr)-ordered");
    let ctr_keys: Vec<(u32, u64)> = image
        .counters
        .iter()
        .map(|(s, p, _)| (*s, p.raw()))
        .collect();
    let mut sorted = ctr_keys.clone();
    sorted.sort_unstable();
    assert_eq!(ctr_keys, sorted, "counter scan not (shard, page)-ordered");
}

/// Attack records always appear in `AttackKind::ALL` order, whatever
/// the config — the report layout the goldens and the sweep's tally
/// lines rely on.
#[test]
fn regression_attack_records_follow_attack_kind_order() {
    use ss_harness::{run_attacks, AttackKind, AttackSweep, Campaign};
    for cfg in AttackSweep::matrix() {
        let report = run_attacks(&cfg, 17);
        let kinds: Vec<AttackKind> = report.records.iter().map(|r| r.kind).collect();
        assert_eq!(kinds, AttackKind::ALL.to_vec(), "{}", cfg.label);
    }
}

/// Every matrix config renders byte-identical text and JSON across two
/// independent runs at the same seed — the invariant that makes the
/// committed `ci/attacksweep-seeds8.golden.*` files meaningful. This is
/// the test that fails first if wall-clock, map iteration order, or an
/// unseeded source leaks into the attack path.
#[test]
fn regression_attack_reports_byte_stable_across_runs() {
    use ss_harness::{run_attacks, AttackSweep, Campaign};
    for cfg in AttackSweep::matrix() {
        for seed in [0u64, 19] {
            let a = run_attacks(&cfg, seed);
            let b = run_attacks(&cfg, seed);
            assert_eq!(
                format!("{a}"),
                format!("{b}"),
                "{} seed {seed}: text report diverged",
                cfg.label
            );
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "{} seed {seed}: json report diverged",
                cfg.label
            );
        }
    }
}
