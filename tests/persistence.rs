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
        let mut kernel = Kernel::new(ZeroStrategy::ShredCommand, frames());
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
    hw.controller.recover_mut().unwrap();

    // REBOOT: a new kernel instance over the same hardware.
    let mut kernel2 = Kernel::new(ZeroStrategy::ShredCommand, frames());
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
    let mut kernel = Kernel::new(ZeroStrategy::NonTemporal, frames());
    kernel.enable_pmem().unwrap();
    let pid = kernel.create_process();
    kernel
        .sys_palloc(&mut hw, 0, pid, 0xEE, PAGE_SIZE as u64, Cycles::ZERO)
        .unwrap();
    let frame = kernel.pmem().unwrap().find(0xEE).unwrap().first_frame;
    hw.write_line_nt(0, frame.block_addr(0), &RECORD, false, Cycles::ZERO);
    let _ = hw.hierarchy.flush_all();
    hw.controller.power_loss().unwrap();
    assert!(
        hw.controller.recover_mut().is_err(),
        "counter loss undetected"
    );
}

#[test]
fn pfree_prevents_data_resurrection() {
    // After sys_pfree, reallocating the same frames must never expose
    // the old region's records.
    let mut hw = hardware(CounterPersistence::BatteryBackedWriteBack);
    let mut kernel = Kernel::new(ZeroStrategy::ShredCommand, frames());
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

use ss_harness::{crash_at_depth, CrashVerdict};

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

/// Whole-system crash round trip with the given counter persistence:
/// boot, run a store/load stream through the cache hierarchy, drain,
/// snapshot the architectural plaintext, cut power, recover, re-read.
fn system_crash(persistence: CounterPersistence) -> CrashVerdict {
    let mut cfg = SystemConfig::small_test(true);
    cfg.controller.counter_persistence = persistence;
    let mut sys = System::new(cfg).expect("system boot");
    sys.age_free_frames();
    let pid = sys.spawn_process(0).expect("spawn");
    let pages = 16u64;
    let buf = sys.sys_alloc(pid, pages * PAGE_SIZE as u64).expect("alloc");
    let ops: Vec<Op> = (0..pages)
        .flat_map(|p| {
            let base = buf.add(p * PAGE_SIZE as u64);
            [
                Op::StoreLine(base),
                Op::StoreLine(base.add(512)),
                Op::Load(base),
            ]
        })
        .collect();
    sys.run(vec![ops.into_iter()], None);
    sys.drain_caches();
    // Snapshot the architectural plaintext of every line the run left in
    // the NVM array, via the controller's debug decrypt path.
    let addrs: Vec<BlockAddr> = sys
        .hardware_mut()
        .controller
        .faults()
        .cold_scan_data()
        .into_iter()
        .map(|(a, _)| a)
        .collect();
    let mut before: Vec<(BlockAddr, [u8; 64])> = Vec::with_capacity(addrs.len());
    for a in addrs {
        match sys.hardware_mut().controller.faults().peek_plaintext(a) {
            Ok(l) => before.push((a, l)),
            Err(_) => return CrashVerdict::Corrupted { addr: a.raw() },
        }
    }
    if before.is_empty() {
        return CrashVerdict::Corrupted { addr: 0 }; // run wrote nothing?
    }
    if sys.crash().is_err() {
        return CrashVerdict::Corrupted { addr: 0 };
    }
    match sys.hardware_mut().controller.recover_mut() {
        Ok(_) => {}
        Err(Error::CounterLoss) => {
            for (a, _) in &before {
                if sys
                    .hardware_mut()
                    .controller
                    .read_block(*a, Cycles::ZERO)
                    .is_ok()
                {
                    return CrashVerdict::Corrupted { addr: a.raw() };
                }
            }
            return CrashVerdict::CounterLoss;
        }
        Err(_) => return CrashVerdict::Corrupted { addr: 0 },
    }
    for (a, l) in &before {
        match sys.hardware_mut().controller.faults().peek_plaintext(*a) {
            Ok(now) if now == *l => {}
            _ => return CrashVerdict::Corrupted { addr: a.raw() },
        }
    }
    CrashVerdict::Recovered
}

/// Battery-backed whole-system crash round trip; expected to recover.
fn system_crash_roundtrip() -> CrashVerdict {
    system_crash(CounterPersistence::BatteryBackedWriteBack)
}

/// Volatile-counter whole-system crash; expected to report counter loss
/// (and never serve garbage) rather than recover.
fn system_volatile_crash() -> CrashVerdict {
    system_crash(CounterPersistence::VolatileWriteBack)
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

use ss_harness::{run_crash_config, Campaign, CrashOutcome, CrashSweep, CrashVerdict as V, Tally};

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

use silent_shredder::common::{BlockAddr, LINE_SIZE};
use silent_shredder::core::{PersistDomain, SeqTag, WriteQueueConfig};

#[test]
fn crash_matrix_smoke_covers_all_outcome_classes() {
    // Two seeds over the full crashsweep matrix: zero silent outcomes,
    // and every terminal class — rolled back whole (OldState), committed
    // whole (NewState), and actively resolved by recovery (Repaired) —
    // must actually be observed, so a classifier bug that lumps
    // everything into one bucket cannot pass as "clean".
    let mut grand = Tally::default();
    for cfg in CrashSweep::matrix() {
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
    assert_eq!(grand.failed(), 0);
    let count = |outcome| grand.count(outcome);
    assert!(
        count(CrashOutcome::OldState) > 0,
        "no crash point rolled back: {grand}"
    );
    assert!(
        count(CrashOutcome::NewState) > 0,
        "no crash point committed: {grand}"
    );
    assert!(
        count(CrashOutcome::Repaired) > 0,
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

/// Journal lines written so far: every ring line's wear, summed.
fn journal_writes(mc: &MemoryController) -> u64 {
    mc.inspect().journal_wear().iter().sum()
}

#[test]
fn ring_wrap_cut_recovers_and_later_sequences_outrank_stale_records() {
    let addr = PageId::new(3).block_addr(1);
    let other = PageId::new(4).block_addr(2);
    let (old, filler, new) = ([0x11u8; 64], [0x55u8; 64], [0x22u8; 64]);
    // Live overwrites of `other` (five journal lines each) until the
    // ring's head sits on its last line: the victim's first record goes
    // there and its payload wraps to line 0.
    let setup = || {
        let mut mc = adr_controller();
        mc.write_block(addr, &old, false, Cycles::ZERO).unwrap();
        mc.write_block(other, &filler, false, Cycles::ZERO).unwrap();
        let ring = mc.inspect().journal_wear().len() as u64;
        while journal_writes(&mc) < ring || journal_writes(&mc) % ring != ring - 1 {
            mc.write_block(other, &filler, false, Cycles::ZERO).unwrap();
        }
        mc
    };
    let mut twin = setup();
    let before = twin.inspect().persist_steps();
    twin.write_block(addr, &new, false, Cycles::ZERO).unwrap();
    let after = twin.inspect().persist_steps();
    assert_eq!(after - before, 2, "data and counter steps");
    for step in before + 1..=after {
        for torn in [0, 32] {
            let ctx = format!("cut at step {step}, torn {torn}");
            let mut mc = setup();
            mc.faults().arm_crash_cut(step, torn);
            assert!(mc.write_block(addr, &new, false, Cycles::ZERO).is_err());
            mc.power_loss().unwrap();
            let first = mc.recover_mut().expect("recovery");
            assert!(first.journal_open && first.repaired(), "{ctx}");
            assert_eq!(first.interrupted_tag, SeqTag::DemandWrite.raw(), "{ctx}");
            assert_eq!(
                mc.read_block(addr, Cycles::ZERO).unwrap().data,
                old,
                "{ctx}"
            );
            let again = mc.recover_mut().expect("second recovery");
            assert!(!again.journal_open && !again.repaired(), "{ctx}");

            // A clean power cycle drops the journal's head and sequence
            // counter; recovery rebuilds them from the ring. Then a
            // second crash: the new sequence must outrank every stale
            // record, so recovery rolls it back rather than settling on
            // an older sequence.
            mc.power_loss().unwrap();
            let clean = mc.recover_mut().expect("clean recovery");
            assert!(!clean.journal_open && !clean.repaired(), "{ctx}");
            let steps = mc.inspect().persist_steps();
            mc.faults().arm_crash_cut(steps + 2, torn);
            assert!(mc
                .write_block(other, &[0x66; 64], false, Cycles::ZERO)
                .is_err());
            mc.power_loss().unwrap();
            let second = mc.recover_mut().expect("recovery after the second crash");
            assert!(second.journal_open && second.repaired(), "{ctx}");
            assert_eq!(
                mc.read_block(other, Cycles::ZERO).unwrap().data,
                filler,
                "{ctx}"
            );
            assert_eq!(
                mc.read_block(addr, Cycles::ZERO).unwrap().data,
                old,
                "{ctx}"
            );
        }
    }
}

/// The operation the dead-block crash test cuts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DeadVictim {
    /// A demand write into a never-written block.
    Fresh,
    /// A demand write into a block of a shredded page.
    Shredded,
    /// `zero_page_in_place` of a shredded page.
    ZeroShreddedPage,
}

const DEAD_PAGE: PageId = PageId::new(6);

/// An ADR machine whose victim block (or page) is dead, except under
/// the shredder-off control, where nothing is.
fn dead_machine(builder: &ControllerConfigBuilder, victim: DeadVictim) -> MemoryController {
    let cfg = builder.clone().persist_domain(PersistDomain::Adr).build();
    let mut mc = MemoryController::new(cfg.expect("adr config")).expect("controller");
    if victim != DeadVictim::Fresh {
        for b in 0..8u8 {
            let addr = DEAD_PAGE.block_addr(usize::from(b));
            mc.write_block(addr, &[0x40 | b; 64], false, Cycles::ZERO)
                .expect("setup write");
        }
        mc.shred_page_at(DEAD_PAGE, true, Cycles::ZERO)
            .expect("setup shred");
    }
    mc
}

/// Runs the victim; returns the blocks it writes and their new value.
fn dead_victim(mc: &mut MemoryController, victim: DeadVictim) -> (Vec<BlockAddr>, [u8; 64]) {
    let blocks: Vec<BlockAddr> = match victim {
        DeadVictim::ZeroShreddedPage => DEAD_PAGE.blocks().collect(),
        DeadVictim::Fresh | DeadVictim::Shredded => vec![DEAD_PAGE.block_addr(5)],
    };
    let (result, new) = match victim {
        DeadVictim::ZeroShreddedPage => (mc.zero_page_in_place(DEAD_PAGE, Cycles::ZERO), [0u8; 64]),
        _ => (
            mc.write_block(blocks[0], &RECORD, false, Cycles::ZERO),
            RECORD,
        ),
    };
    if !mc.faults().crash_cut_fired() {
        result.expect("victim");
    }
    (blocks, new)
}

#[test]
fn cut_writes_into_dead_blocks_recover_to_zero_fill() {
    use CounterPersistence::{BatteryBackedWriteBack as Battery, WriteThrough};
    use DeadVictim::{Fresh, Shredded, ZeroShreddedPage};
    let ctr = || ControllerConfigBuilder::small_test();
    let scattered = || {
        ControllerConfigBuilder::scattered()
            .data_capacity(1 << 20)
            .counter_cache_bytes(16 << 10)
    };
    let control = ctr().shredder(false).counter_persistence(WriteThrough);
    let mut cases = vec![(control, Fresh)];
    for counters in [WriteThrough, Battery] {
        for victim in [Fresh, Shredded, ZeroShreddedPage] {
            cases.push((ctr().counter_persistence(counters), victim));
        }
        for victim in [Fresh, Shredded] {
            cases.push((scattered().counter_persistence(counters), victim));
        }
    }
    for (builder, victim) in &cases {
        let cfg = builder.clone().build().expect("config");
        let label = format!(
            "{:?}, shredder {}, {:?}, {victim:?}",
            cfg.protection, cfg.shredder, cfg.counter_persistence
        );
        // The shredder-off control's "dead" block is readable: minor 0
        // is a real IV, so its data pre-image must be journaled.
        let zero_fills = cfg.shredder;

        // The twin completes the victim: the new value reads back, and
        // survives a clean power cycle.
        let mut twin = dead_machine(builder, *victim);
        let before = twin.inspect().persist_steps();
        let (blocks, new) = dead_victim(&mut twin, *victim);
        let after = twin.inspect().persist_steps();
        assert!(after > before, "{label}: the victim persists nothing");
        twin.power_loss().unwrap();
        twin.recover_mut().expect("clean recovery");
        for &addr in &blocks {
            let r = twin.read_block(addr, Cycles::ZERO).unwrap();
            assert_eq!((r.data, r.zero_filled), (new, false), "{label}: {addr:?}");
        }

        for step in before + 1..=after {
            for torn in [0, 32] {
                let ctx = format!("{label}: cut at step {step}, torn {torn}");
                let mut mc = dead_machine(builder, *victim);
                let old: Vec<[u8; 64]> = blocks
                    .iter()
                    .map(|&a| mc.faults().peek_plaintext(a).unwrap())
                    .collect();
                mc.faults().arm_crash_cut(step, torn);
                dead_victim(&mut mc, *victim);
                assert!(mc.faults().crash_cut_fired(), "{ctx}");
                mc.power_loss().unwrap();
                mc.recover_mut()
                    .unwrap_or_else(|e| panic!("{ctx}: recovery failed: {e}"));
                for (&addr, old) in blocks.iter().zip(&old) {
                    let r = mc.read_block(addr, Cycles::ZERO).unwrap();
                    let want = if zero_fills {
                        ([0u8; 64], true)
                    } else {
                        (*old, false)
                    };
                    assert_eq!((r.data, r.zero_filled), want, "{ctx}: {addr:?}");
                }
                let again = mc.recover_mut().expect("second recovery");
                assert!(!again.repaired(), "{ctx}: recovery is idempotent");
            }
        }
    }
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
