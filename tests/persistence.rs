//! Full-stack persistent-memory tests (§2.1): named regions written
//! through the real caches and AES-CTR controller survive a power loss
//! and remap across "reboots".

use silent_shredder::cache::{Hierarchy, HierarchyConfig};
use silent_shredder::common::{Cycles, PageId, PAGE_SIZE};
use silent_shredder::core::CounterPersistence;
use silent_shredder::os::machine::MachineOps;
use silent_shredder::prelude::*;
use silent_shredder::sim::Hardware;

fn hardware(persistence: CounterPersistence) -> Hardware {
    let hierarchy = Hierarchy::new(&HierarchyConfig {
        cores: 1,
        ..HierarchyConfig::scaled_down(128)
    })
    .expect("hierarchy");
    let controller = MemoryController::new(
        ControllerConfigBuilder::new()
            .data_capacity(2 << 20)
            .counter_cache_bytes(16 << 10)
            .counter_persistence(persistence)
            .build()
            .expect("controller config"),
    )
    .expect("controller");
    Hardware::new(hierarchy, controller)
}

fn frames() -> Vec<PageId> {
    (1..256).map(PageId::new).collect()
}

const RECORD: [u8; 64] = *b"persistent record 0001 [checksum=0xDEADBEEF] end-of-record-.....";

#[test]
fn named_region_survives_power_loss() {
    let mut hw = hardware(CounterPersistence::BatteryBackedWriteBack);
    let region_frame;
    {
        let mut kernel = Kernel::new(
            KernelConfig {
                zero_strategy: ZeroStrategy::ShredCommand,
                ..KernelConfig::default()
            },
            frames(),
        );
        kernel.enable_pmem().unwrap();
        let pid = kernel.create_process();
        kernel
            .sys_palloc(&mut hw, 0, pid, 0xDB, 4 * PAGE_SIZE as u64, Cycles::ZERO)
            .unwrap();
        let entry = kernel.pmem().unwrap().find(0xDB).unwrap();
        region_frame = entry.first_frame;
        // The application writes a durable record: non-temporal store
        // straight to the persistence domain (as pmem programming
        // models require), through real encryption.
        hw.write_line_nt(0, region_frame.block_addr(0), &RECORD, false, Cycles::ZERO);
        let wait = hw.fence(0, Cycles::ZERO);
        assert!(wait.raw() > 0 || hw.controller.fence(Cycles::ZERO) == Cycles::ZERO);
    }
    // POWER LOSS: caches vanish, battery flushes the counter cache.
    let _ = hw.hierarchy.flush_all();
    hw.controller.power_loss().unwrap();
    hw.controller.recover().unwrap();

    // REBOOT: a new kernel instance over the same hardware.
    let mut kernel2 = Kernel::new(
        KernelConfig {
            zero_strategy: ZeroStrategy::ShredCommand,
            ..KernelConfig::default()
        },
        frames(),
    );
    assert_eq!(kernel2.recover_pmem(&mut hw, 0, Cycles::ZERO).unwrap(), 1);
    let pid = kernel2.create_process();
    let va = kernel2.sys_pattach(pid, 0xDB).unwrap();
    let pa = match kernel2.translate(pid, va, false).unwrap() {
        silent_shredder::os::page_table::Translation::Ok(pa) => pa,
        other => panic!("unexpected: {other:?}"),
    };
    assert_eq!(
        pa.page(),
        region_frame,
        "region remapped to a different extent"
    );
    let (data, _) = hw.read_line(0, pa.block(), Cycles::ZERO);
    assert_eq!(data, RECORD, "durable record lost across reboot");
    // Untouched parts of the region still read zero (it was shredded at
    // creation, and shred state survives too).
    let (rest, _) = hw.read_line(0, region_frame.block_addr(5), Cycles::ZERO);
    assert_eq!(rest, [0u8; 64]);
}

#[test]
fn volatile_counters_lose_persistent_data() {
    // Negative control: with a non-battery-backed write-back counter
    // cache, the §7.1 failure mode destroys the persistent region too.
    let mut hw = hardware(CounterPersistence::VolatileWriteBack);
    let mut kernel = Kernel::new(KernelConfig::default(), frames());
    kernel.enable_pmem().unwrap();
    let pid = kernel.create_process();
    kernel
        .sys_palloc(&mut hw, 0, pid, 0xEE, PAGE_SIZE as u64, Cycles::ZERO)
        .unwrap();
    let frame = kernel.pmem().unwrap().find(0xEE).unwrap().first_frame;
    hw.write_line_nt(0, frame.block_addr(0), &RECORD, false, Cycles::ZERO);
    let _ = hw.hierarchy.flush_all();
    hw.controller.power_loss().unwrap();
    assert!(hw.controller.recover().is_err(), "counter loss undetected");
}

#[test]
fn pfree_prevents_data_resurrection() {
    // After sys_pfree, reallocating the same frames must never expose
    // the old region's records.
    let mut hw = hardware(CounterPersistence::BatteryBackedWriteBack);
    let mut kernel = Kernel::new(
        KernelConfig {
            zero_strategy: ZeroStrategy::ShredCommand,
            ..KernelConfig::default()
        },
        frames(),
    );
    kernel.enable_pmem().unwrap();
    let pid = kernel.create_process();
    kernel
        .sys_palloc(&mut hw, 0, pid, 0x11, PAGE_SIZE as u64, Cycles::ZERO)
        .unwrap();
    let frame = kernel.pmem().unwrap().find(0x11).unwrap().first_frame;
    hw.write_line_nt(0, frame.block_addr(0), &RECORD, false, Cycles::ZERO);
    kernel.sys_pfree(&mut hw, 0, 0x11, Cycles::ZERO).unwrap();
    // The freed frame reads as zeros through the architecture.
    let (data, _) = hw.read_line(0, frame.block_addr(0), Cycles::ZERO);
    assert_eq!(data, [0u8; 64], "record resurrected after pfree");
    // And a cold scan of the NVM never shows the plaintext.
    assert!(hw
        .controller
        .faults()
        .cold_scan_data()
        .iter()
        .all(|(_, line)| *line != RECORD));
}

// ---------------------------------------------------------------------
// Harness-driven crash matrix (ss-harness): every counter-persistence
// mode crossed with a power cut at every write-queue depth. The legal
// outcomes are clean recovery or — for volatile counters only — a loud
// CounterLoss; wrong data is never acceptable.
// ---------------------------------------------------------------------

use ss_harness::{crash_at_depth, system_crash_roundtrip, system_volatile_crash, CrashVerdict};

#[test]
fn crash_matrix_persistence_by_queue_depth() {
    for persistence in [
        CounterPersistence::BatteryBackedWriteBack,
        CounterPersistence::WriteThrough,
        CounterPersistence::VolatileWriteBack,
    ] {
        for depth in 0..=8 {
            let verdict = crash_at_depth(persistence, depth, 1);
            match (persistence, depth) {
                // Persistent counters: ADR drains the queue, the battery
                // (or write-through) preserves the counters — recovery
                // must be clean at every depth.
                (
                    CounterPersistence::BatteryBackedWriteBack | CounterPersistence::WriteThrough,
                    _,
                ) => assert_eq!(
                    verdict,
                    CrashVerdict::Recovered,
                    "{persistence:?} at queue depth {depth}"
                ),
                // Volatile counters with nothing written: nothing dirty,
                // nothing lost.
                (CounterPersistence::VolatileWriteBack, 0) => assert_eq!(
                    verdict,
                    CrashVerdict::Recovered,
                    "volatile counters with an empty queue"
                ),
                // Volatile counters with any queued writes: the §7.1
                // failure mode — must be reported, never papered over.
                (CounterPersistence::VolatileWriteBack, _) => assert_eq!(
                    verdict,
                    CrashVerdict::CounterLoss,
                    "volatile counters at queue depth {depth}"
                ),
            }
        }
    }
}

#[test]
fn whole_system_crash_roundtrip_recovers() {
    assert_eq!(system_crash_roundtrip(), CrashVerdict::Recovered);
}

#[test]
fn whole_system_volatile_crash_is_detected() {
    assert_eq!(system_volatile_crash(), CrashVerdict::CounterLoss);
}

// ---------------------------------------------------------------------
// Sharded crash matrix: the per-shard power_loss/recover surfaces with
// every line interleaved round-robin across the channels.
// ---------------------------------------------------------------------

use ss_harness::sweep::{SweepReport, SweepTally};
use ss_harness::{run_crash_config, CrashConfig, CrashTally, CrashVerdict as V};

#[test]
fn sharded_crash_matrix_persistence_by_queue_depth() {
    for shards in [4, 8] {
        for depth in 0..=8 {
            assert_eq!(
                crash_at_depth(CounterPersistence::BatteryBackedWriteBack, depth, shards),
                V::Recovered,
                "{shards} shards at queue depth {depth}"
            );
        }
        // Volatile counters stay loud when the loss is spread across
        // shards: one shard's CounterLoss must surface, not be averaged
        // away by its clean siblings.
        assert_eq!(
            crash_at_depth(CounterPersistence::VolatileWriteBack, 8, shards),
            V::CounterLoss,
            "{shards} shards"
        );
    }
}

// ---------------------------------------------------------------------
// Torn-write crash consistency (DESIGN.md §13): the persist-step crash
// matrix, the reboot recovery protocol, and its idempotence.
// ---------------------------------------------------------------------

use silent_shredder::common::LINE_SIZE;
use silent_shredder::core::{PersistDomain, WriteQueueConfig};

#[test]
fn crash_matrix_smoke_covers_all_outcome_classes() {
    // Two seeds over the full crashsweep matrix: zero silent outcomes,
    // and every terminal class — rolled back whole (OldState), committed
    // whole (NewState), and actively resolved by recovery (Repaired) —
    // must actually be observed, so a classifier bug that lumps
    // everything into one bucket cannot pass as "clean".
    let mut grand = CrashTally::default();
    for cfg in CrashConfig::matrix() {
        for seed in 0..2 {
            let report = run_crash_config(&cfg, seed);
            assert!(
                report.clean(),
                "silent corruption in {} seed {seed}:\n{report}",
                cfg.label
            );
            grand.merge(report.tally());
        }
    }
    assert_eq!(grand.silent, 0);
    assert!(grand.old_state > 0, "no crash point rolled back: {grand}");
    assert!(grand.new_state > 0, "no crash point committed: {grand}");
    assert!(
        grand.repaired > 0,
        "recovery never had to repair anything: {grand}"
    );
}

/// An ADR write-through controller with a crash cut armed at persist
/// step `steps + offset` of the next operation.
fn adr_controller() -> MemoryController {
    MemoryController::new(
        ControllerConfigBuilder::small_test()
            .persist_domain(PersistDomain::Adr)
            .counter_persistence(CounterPersistence::WriteThrough)
            .build()
            .expect("adr config"),
    )
    .expect("controller")
}

#[test]
fn reboot_recovery_is_idempotent() {
    let mut mc = adr_controller();
    let addr = PageId::new(3).block_addr(1);
    let old = [0x11u8; 64];
    mc.write_block(addr, &old, false, Cycles::ZERO).unwrap();
    // Cut at step 2 of the next write: the new ciphertext reaches the
    // array but the counter install does not — the worst case, where
    // only the journal can restore a readable state.
    let steps = mc.inspect().persist_steps();
    mc.faults().arm_crash_cut(steps + 2, 0);
    assert!(mc
        .write_block(addr, &[0x22u8; 64], false, Cycles::ZERO)
        .is_err());
    mc.power_loss().unwrap();

    let first = mc.recover_mut().expect("first recovery");
    assert!(
        first.journal_open,
        "cut mid-sequence leaves the journal open"
    );
    assert!(first.repaired(), "the torn write must be rolled back");
    assert_eq!(mc.read_block(addr, Cycles::ZERO).unwrap().data, old);

    // Recovering again on the same boot finds the closed journal,
    // repairs nothing, and changes nothing.
    let second = mc.recover_mut().expect("second recovery");
    assert!(!second.journal_open);
    assert!(!second.repaired());
    assert_eq!(mc.read_block(addr, Cycles::ZERO).unwrap().data, old);
}

#[test]
fn recover_crash_recover_converges() {
    let mut mc = adr_controller();
    let addr = PageId::new(5).block_addr(2);
    let old = [0x33u8; 64];
    mc.write_block(addr, &old, false, Cycles::ZERO).unwrap();
    let steps = mc.inspect().persist_steps();
    mc.faults().arm_crash_cut(steps + 2, 32);
    assert!(mc
        .write_block(addr, &[0x44u8; 64], false, Cycles::ZERO)
        .is_err());
    mc.power_loss().unwrap();
    mc.recover_mut().expect("first recovery");

    // A second power loss immediately after recovery (no work in
    // between) must converge: recovery finds nothing open and the
    // rolled-back state is stable.
    mc.power_loss().unwrap();
    let again = mc.recover_mut().expect("recovery after re-crash");
    assert!(!again.journal_open);
    assert!(!again.repaired());
    assert_eq!(mc.read_block(addr, Cycles::ZERO).unwrap().data, old);

    // And the machine is fully live: the interrupted update can be
    // retried and sticks across one more clean power cycle.
    let new = [0x44u8; 64];
    mc.write_block(addr, &new, false, Cycles::ZERO).unwrap();
    mc.power_loss().unwrap();
    mc.recover_mut().expect("clean-cycle recovery");
    assert_eq!(mc.read_block(addr, Cycles::ZERO).unwrap().data, new);
}

#[test]
fn power_loss_volatile_set_is_pinned() {
    let queue = WriteQueueConfig {
        capacity: 8,
        drain_low: 1,
        drain_high: 8,
    };
    // eADR: the write queue sits inside the persistence domain —
    // flush-on-fail drains queued lines to the device at power loss.
    let mut mc = MemoryController::new(
        ControllerConfigBuilder::small_test()
            .write_queue(Some(queue))
            .build()
            .unwrap(),
    )
    .unwrap();
    let addr = PageId::new(2).block_addr(0);
    mc.write_block(addr, &RECORD, false, Cycles::ZERO).unwrap();
    assert!(mc.inspect().write_queue_len() > 0, "write must be queued");
    mc.power_loss().unwrap();
    mc.recover_mut().unwrap();
    assert_eq!(mc.inspect().write_queue_len(), 0);
    assert!(
        !mc.inspect().counter_line_dirty(PageId::new(2)),
        "the counter cache reboots cold"
    );
    assert_eq!(mc.read_block(addr, Cycles::ZERO).unwrap().data, RECORD);

    // ADR: the queue is volatile — queued lines vanish at power loss and
    // the line still reads as never-written, not as a silent half-write.
    let mut mc = MemoryController::new(
        ControllerConfigBuilder::small_test()
            .persist_domain(PersistDomain::Adr)
            .protection(ProtectionMode::Plain)
            .shredder(false)
            .integrity(false)
            .write_queue(Some(queue))
            .build()
            .unwrap(),
    )
    .unwrap();
    mc.write_block(addr, &RECORD, false, Cycles::ZERO).unwrap();
    assert!(mc.inspect().write_queue_len() > 0, "write must be queued");
    mc.power_loss().unwrap();
    mc.recover_mut().unwrap();
    assert_eq!(mc.inspect().write_queue_len(), 0);
    assert_eq!(
        mc.read_block(addr, Cycles::ZERO).unwrap().data,
        [0u8; LINE_SIZE],
        "ADR queue contents must drop whole, never drain silently"
    );
}
