//! Cross-crate integration tests: the full machine, end to end.

use silent_shredder::common::{Cycles, PAGE_SIZE};
use silent_shredder::prelude::*;

fn small(shredder: bool) -> System {
    System::new(SystemConfig::small_test(shredder)).expect("boot failed")
}

fn touch_pages(heap: silent_shredder::common::VirtAddr, pages: u64) -> Vec<Op> {
    (0..pages)
        .flat_map(|p| {
            [
                Op::StoreLine(heap.add(p * PAGE_SIZE as u64)),
                Op::Compute(20),
                Op::Load(heap.add(p * PAGE_SIZE as u64 + 1024)),
            ]
        })
        .collect()
}

#[test]
fn shredder_and_baseline_agree_architecturally() {
    // Same program on both systems must observe identical values: zeros
    // on first touch, written data afterwards.
    for shredder in [false, true] {
        let mut sys = small(shredder);
        sys.age_free_frames();
        let pid = sys.spawn_process(0).unwrap();
        let heap = sys.sys_alloc(pid, 8 * PAGE_SIZE as u64).unwrap();
        sys.run(vec![touch_pages(heap, 8).into_iter()], None);
        // Every untouched line of every touched page reads zero.
        for p in 0..8u64 {
            let va = heap.add(p * PAGE_SIZE as u64 + 2048);
            let pa = match sys.kernel().translate(pid, va, false).unwrap() {
                silent_shredder::os::page_table::Translation::Ok(pa) => pa,
                other => panic!("expected mapping: {other:?}"),
            };
            let line = sys
                .hardware_mut()
                .controller
                .faults()
                .peek_plaintext(pa.block())
                .unwrap();
            assert_eq!(line, [0u8; 64], "page {p} shredder={shredder}");
        }
    }
}

#[test]
fn full_inter_process_isolation_through_real_hardware() {
    let mut sys = small(true);
    let spy_target;
    {
        let pid = sys.spawn_process(0).unwrap();
        let heap = sys.sys_alloc(pid, PAGE_SIZE as u64).unwrap();
        // Victim writes a secret via the real cache hierarchy.
        sys.run(vec![vec![Op::StoreLine(heap)].into_iter()], None);
        let pa = match sys.kernel().translate(pid, heap, false).unwrap() {
            silent_shredder::os::page_table::Translation::Ok(pa) => pa,
            other => panic!("{other:?}"),
        };
        spy_target = pa.page();
        sys.drain_caches();
        sys.exit_process_on(0).unwrap();
    }
    // Attacker process reuses the frame.
    let spy = sys.spawn_process(0).unwrap();
    let heap2 = sys.sys_alloc(spy, PAGE_SIZE as u64).unwrap();
    sys.run(vec![vec![Op::Store(heap2)].into_iter()], None);
    let pa2 = match sys.kernel().translate(spy, heap2, false).unwrap() {
        silent_shredder::os::page_table::Translation::Ok(pa) => pa,
        other => panic!("{other:?}"),
    };
    assert_eq!(
        pa2.page(),
        spy_target,
        "frame must be reused for the test to bite"
    );
    // Unwritten parts of the page read zero, not the victim's secret.
    let line = sys
        .hardware_mut()
        .controller
        .faults()
        .peek_plaintext(spy_target.block_addr(1))
        .unwrap();
    assert_eq!(line, [0u8; 64]);
}

#[test]
fn shredder_beats_baseline_on_every_headline_metric() {
    let run = |shredder: bool| {
        let mut sys = small(shredder);
        sys.age_free_frames();
        let pid = sys.spawn_process(0).unwrap();
        let heap = sys.sys_alloc(pid, 64 * PAGE_SIZE as u64).unwrap();
        let summary = sys.run(vec![touch_pages(heap, 64).into_iter()], None);
        sys.drain_caches();
        let mem = sys.hardware().controller.inspect().stats().mem;
        (
            mem.writes.get(),
            mem.read_latency.mean(),
            summary.mean_ipc(),
        )
    };
    let (writes_b, lat_b, ipc_b) = run(false);
    let (writes_s, lat_s, ipc_s) = run(true);
    assert!(writes_s < writes_b, "writes: {writes_s} !< {writes_b}");
    assert!(lat_s < lat_b, "read latency: {lat_s} !< {lat_b}");
    assert!(ipc_s > ipc_b, "ipc: {ipc_s} !> {ipc_b}");
}

#[test]
fn crash_recovery_preserves_data_with_battery_backed_counters() {
    let mut sys = small(true);
    let pid = sys.spawn_process(0).unwrap();
    let heap = sys.sys_alloc(pid, PAGE_SIZE as u64).unwrap();
    sys.run(vec![vec![Op::StoreLine(heap)].into_iter()], None);
    let pa = match sys.kernel().translate(pid, heap, false).unwrap() {
        silent_shredder::os::page_table::Translation::Ok(pa) => pa,
        other => panic!("{other:?}"),
    };
    sys.drain_caches();
    let before = sys
        .hardware_mut()
        .controller
        .faults()
        .peek_plaintext(pa.block())
        .unwrap();
    assert_ne!(before, [0u8; 64]);
    sys.crash().unwrap();
    sys.hardware_mut().controller.recover_mut().unwrap();
    let after = sys
        .hardware_mut()
        .controller
        .faults()
        .peek_plaintext(pa.block())
        .unwrap();
    assert_eq!(before, after, "data lost across power cycle");
}

#[test]
fn workload_runs_are_deterministic_end_to_end() {
    let run = || {
        let mut sys = small(true);
        sys.age_free_frames();
        let pid = sys.spawn_process(0).unwrap();
        let w = ss_workload_for_test();
        let heap = sys.sys_alloc(pid, w.footprint_bytes()).unwrap();
        let summary = sys.run(vec![w.trace(heap).into_iter()], None);
        (
            summary.total_instructions(),
            summary.makespan(),
            sys.hardware().controller.inspect().stats().mem.writes.get(),
            sys.hardware()
                .controller
                .inspect()
                .stats()
                .mem
                .zero_fill_reads
                .get(),
        )
    };
    assert_eq!(run(), run());
}

fn ss_workload_for_test() -> SpecWorkload {
    let mut w = silent_shredder::workloads::spec_suite()[0].clone();
    w.pages = 32;
    w
}

#[test]
fn hypervisor_runs_on_real_hardware_stack() {
    use silent_shredder::cache::{Hierarchy, HierarchyConfig};
    use silent_shredder::common::PageId;
    use silent_shredder::os::Hypervisor;
    use silent_shredder::sim::Hardware;

    let hierarchy = Hierarchy::new(&HierarchyConfig {
        cores: 2,
        ..HierarchyConfig::scaled_down(128)
    })
    .unwrap();
    let controller = MemoryController::new(
        ControllerConfigBuilder::new()
            .data_capacity(4 << 20)
            .counter_cache_bytes(32 << 10)
            .build()
            .unwrap(),
    )
    .unwrap();
    let mut hw = Hardware::new(hierarchy, controller);
    let frames: Vec<PageId> = (1..512).map(PageId::new).collect();
    let mut hyp = Hypervisor::new(
        frames,
        ZeroStrategy::ShredCommand,
        ZeroStrategy::ShredCommand,
    );
    // Two VM generations over the same frames: no data writes for any
    // shredding, and no cross-VM leakage.
    let (vm1, _) = hyp.create_vm(&mut hw, 0, 64, Cycles::ZERO).unwrap();
    let k1 = hyp.vm_kernel_mut(vm1).unwrap();
    let p1 = k1.create_process();
    let buf = k1.sys_alloc(p1, 16 * PAGE_SIZE as u64).unwrap();
    for i in 0..16u64 {
        let (pa, _) = k1
            .handle_fault(
                &mut hw,
                0,
                p1,
                buf.add(i * PAGE_SIZE as u64),
                true,
                Cycles::ZERO,
            )
            .unwrap();
        use silent_shredder::os::machine::MachineOps;
        hw.write_line_temporal(0, pa.block(), &[0xEE; 64], false, Cycles::ZERO);
    }
    hyp.destroy_vm(vm1).unwrap();
    let (vm2, _) = hyp.create_vm(&mut hw, 0, 64, Cycles::ZERO).unwrap();
    let k2 = hyp.vm_kernel_mut(vm2).unwrap();
    let p2 = k2.create_process();
    let buf2 = k2.sys_alloc(p2, 16 * PAGE_SIZE as u64).unwrap();
    let (pa, _) = k2
        .handle_fault(&mut hw, 0, p2, buf2, true, Cycles::ZERO)
        .unwrap();
    use silent_shredder::os::machine::MachineOps;
    let (line, _) = hw.read_line(0, pa.block(), Cycles::ZERO);
    assert_eq!(line, [0u8; 64], "inter-VM leak");
    assert_eq!(
        hw.controller.inspect().stats().mem.zeroing_writes.get(),
        0,
        "shred command wrote zeros"
    );
}

#[test]
fn attack_demo_scenarios_resolve_as_documented() {
    // `examples/attack_demo.rs` narrates exactly these two records; this
    // test pins their outcomes and step scripts so the demo cannot rot.
    use ss_harness::{demo_records, AttackKind, AttackOutcome, Record};
    let (defended, detected) = demo_records();

    assert_eq!(defended.kind, AttackKind::ShredThenSteal);
    assert_eq!(defended.outcome, AttackOutcome::Defended, "{defended}");
    let script = defended.steps.join("\n");
    assert!(script.contains("victim: shred page"), "{script}");
    assert!(script.contains("adversary: cut power"), "{script}");
    assert!(script.contains("adversary: cold scan"), "{script}");
    assert!(
        script.contains("adversary: offline decrypt attempt"),
        "{script}"
    );
    assert!(
        defended.detail.contains("denied"),
        "defended detail should say the probes were denied: {defended}"
    );

    assert_eq!(detected.kind, AttackKind::RollbackReplay);
    assert_eq!(detected.outcome, AttackOutcome::Detected, "{detected}");
    let script = detected.steps.join("\n");
    assert!(
        script.contains("adversary: capture counter line"),
        "{script}"
    );
    assert!(
        script.contains("adversary: roll back counter line"),
        "{script}"
    );
    assert!(script.contains("adversary: restore power"), "{script}");
    assert!(
        detected.detail.contains("Merkle"),
        "detected detail should credit the Merkle tree: {detected}"
    );

    // Determinism: the demo's records are a pure function — rendering
    // them twice gives identical bytes (what the example prints).
    let (d2, t2) = demo_records();
    assert_eq!(format!("{defended}{detected}"), format!("{d2}{t2}"));
    assert_eq!(defended.to_json(), d2.to_json());
    assert_eq!(detected.to_json(), t2.to_json());
}
