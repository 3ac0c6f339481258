//! Golden-trace determinism tests (DESIGN.md §10).
//!
//! The observability layer's contract is twofold: the event stream and
//! metrics registry are *byte-identical* for identical `(config, seed)`
//! runs, and enabling them never changes what the simulation computes.

use ss_common::{Cycles, PageId};
use ss_core::{ControllerConfig, ControllerConfigBuilder, MemoryController};
use ss_harness::sweep::SweepReport;
use ss_harness::{run_plan, run_plan_full, HarnessConfig};
use ss_trace::TraceRecord;

fn traced_config() -> ControllerConfig {
    ControllerConfigBuilder::small_test()
        .trace_depth(Some(4096))
        .build()
        .expect("traced config")
}

/// Renders a stream exactly as `faultsweep --trace` prints it.
fn render(records: &[TraceRecord]) -> String {
    records.iter().map(|r| format!("{r}\n")).collect()
}

#[test]
fn identical_seeds_give_byte_identical_streams_and_metrics() {
    let cfg = HarnessConfig::new("trace-golden", traced_config());
    for seed in [0u64, 7, 23] {
        let a = run_plan_full(&cfg, seed, Some(4096));
        let b = run_plan_full(&cfg, seed, Some(4096));
        assert_eq!(
            render(&a.trace),
            render(&b.trace),
            "event stream diverged for seed {seed}"
        );
        assert_eq!(
            a.metrics.to_json(),
            b.metrics.to_json(),
            "metrics JSON diverged for seed {seed}"
        );
        assert_eq!(a.metrics.to_csv(), b.metrics.to_csv());
        assert!(!a.trace.is_empty(), "a CTR plan run must emit events");
        // Sequence numbers are the stream positions (nothing dropped at
        // this depth), and JSON rendering is itself deterministic.
        for (i, r) in a.trace.iter().enumerate() {
            assert_eq!(r.seq, i as u64);
            assert_eq!(r.to_json(), b.trace[i].to_json());
        }
    }
}

#[test]
fn tracing_never_changes_the_report() {
    let cfg = HarnessConfig::new("trace-zero-cost", traced_config());
    for seed in 0..8u64 {
        let plain = run_plan(&cfg, seed);
        let traced = run_plan_full(&cfg, seed, Some(512));
        assert_eq!(
            format!("{plain}"),
            format!("{}", traced.report),
            "tracing perturbed the report for seed {seed}"
        );
        assert_eq!(plain.to_json(), traced.report.to_json());
    }
}

#[test]
fn shred_emits_exactly_one_event_and_zero_fill_skips_nvm() {
    let mut mc = MemoryController::new(traced_config()).expect("config builds");
    let page = PageId::new(3);
    for b in 0..4 {
        mc.write_block(page.block_addr(b), &[0xAB; 64], false, Cycles::ZERO)
            .expect("write");
    }
    let before = mc.inspect().trace_records();
    assert!(
        !before.iter().any(|r| r.event.kind() == "shred"),
        "no shred happened yet"
    );

    mc.shred_page(page, true).expect("shred");
    let after_shred = mc.inspect().trace_records();
    let shreds = after_shred
        .iter()
        .filter(|r| r.event.kind() == "shred")
        .count();
    assert_eq!(shreds, 1, "one shred command emits exactly one Shred event");

    // Post-shred misses are served by the zero-fill path: each read
    // emits a ZeroFillRead event and never touches the NVM array.
    let nvm_reads_before = mc.inspect().nvm_stats().reads.get();
    for b in 0..4 {
        let r = mc
            .read_block(page.block_addr(b), Cycles::ZERO)
            .expect("read");
        assert!(r.zero_filled);
        assert_eq!(r.data, [0u8; 64]);
    }
    assert_eq!(
        mc.inspect().nvm_stats().reads.get(),
        nvm_reads_before,
        "zero-fill reads must not reach the NVM array"
    );
    let zero_fills = mc
        .inspect()
        .trace_records()
        .iter()
        .filter(|r| r.event.kind() == "zero_fill_read")
        .count();
    assert_eq!(zero_fills, 4, "each post-shred miss emits ZeroFillRead");
}

#[test]
fn metrics_snapshot_is_stable_and_deltas_work() {
    let mut mc = MemoryController::new(traced_config()).expect("config builds");
    let page = PageId::new(1);
    mc.write_block(page.block_addr(0), &[1; 64], false, Cycles::ZERO)
        .expect("write");
    let epoch0 = mc.inspect().metrics();
    mc.write_block(page.block_addr(1), &[2; 64], false, Cycles::ZERO)
        .expect("write");
    mc.shred_page(page, true).expect("shred");
    let epoch1 = mc.inspect().metrics();
    // The key set is workload-independent, so deltas line up 1:1.
    assert_eq!(epoch0.len(), epoch1.len());
    let d = epoch1.delta(&epoch0);
    assert_eq!(d.get("ctrl.writes"), Some(1));
    assert_eq!(d.get("ctrl.shreds"), Some(1));
    // Snapshots are pure reads: two in a row are byte-identical.
    assert_eq!(
        mc.inspect().metrics().to_json(),
        mc.inspect().metrics().to_json()
    );
}

#[test]
fn null_tracer_retains_nothing_but_profiles_still_accumulate() {
    let mut mc = MemoryController::new(ControllerConfig::small_test()).expect("config builds");
    let page = PageId::new(2);
    mc.write_block(page.block_addr(0), &[9; 64], false, Cycles::ZERO)
        .expect("write");
    mc.shred_page(page, true).expect("shred");
    assert!(!mc.inspect().trace_enabled());
    assert!(mc.inspect().trace_records().is_empty());
    assert_eq!(mc.inspect().trace_totals(), (0, 0));
    let m = mc.inspect().metrics();
    assert_eq!(m.get("trace.events"), Some(0));
    // Stage attribution is always on (pure counting, no behavior).
    assert!(m.get("profile.nvm_write.cycles").unwrap_or(0) > 0);
    assert!(mc.inspect().profile().total_cycles() > Cycles::ZERO);
}
