//! The controller's shared machinery, driven through its public
//! operations and the `Inspect`/`FaultPort` ports: privilege and range
//! checks, the MMIO shred path, power loss and recovery, the write
//! queue, Start-Gap, enclave teardown, fences and self-healing. The
//! per-mode paths are unit-tested next to their code in
//! `src/controller/`.

use ss_common::{BlockAddr, Cycles, Error, PageId, PhysAddr, LINE_SIZE};
use ss_core::{
    ControllerConfig, CounterPersistence, MemoryController, WriteQueueConfig, SHRED_REG,
};

type Line = [u8; LINE_SIZE];

#[allow(clippy::unwrap_used)]
fn mc() -> MemoryController {
    MemoryController::new(ControllerConfig::small_test()).unwrap()
}

#[allow(clippy::unwrap_used)]
fn mc_wq() -> MemoryController {
    MemoryController::new(ControllerConfig {
        write_queue: Some(WriteQueueConfig {
            capacity: 16,
            drain_low: 2,
            drain_high: 8,
        }),
        ..ControllerConfig::small_test()
    })
    .unwrap()
}

fn line(v: u8) -> Line {
    [v; LINE_SIZE]
}

#[test]
fn user_mode_shred_faults() {
    let mut m = mc();
    let err = m.shred_page(PageId::new(0), false).unwrap_err();
    assert!(matches!(err, Error::PrivilegeViolation { .. }));
    assert_eq!(m.inspect().stats().shred_denied.get(), 1);
}

#[test]
fn mmio_shred_path() {
    let mut m = mc();
    let page = PageId::new(4);
    m.write_block(page.block_addr(0), &line(1), false, Cycles::ZERO)
        .unwrap();
    m.mmio_write(SHRED_REG, page.base_addr().raw(), true, Cycles::ZERO)
        .unwrap();
    assert_eq!(m.inspect().stats().shreds.get(), 1);
    assert!(
        m.read_block(page.block_addr(0), Cycles::ZERO)
            .unwrap()
            .zero_filled
    );
    // Unknown register: benign.
    assert!(m
        .mmio_write(PhysAddr::new(0xF000), 0, true, Cycles::ZERO)
        .is_ok());
    // User-mode MMIO write: exception.
    assert!(m.mmio_write(SHRED_REG, 0, false, Cycles::ZERO).is_err());
}

#[test]
fn shredder_disabled_rejects_shred() {
    let mut m = MemoryController::new(ControllerConfig {
        data_capacity: 1 << 20,
        counter_cache_bytes: 16 << 10,
        ..ControllerConfig::encrypted_baseline()
    })
    .unwrap();
    assert!(m.shred_page(PageId::new(0), true).is_err());
}

#[test]
fn recovery_names_the_tampered_counter_page() {
    let mut m = mc();
    for p in [2, 5] {
        m.write_block(PageId::new(p).block_addr(0), &line(1), false, Cycles::ZERO)
            .unwrap();
    }
    m.power_loss().unwrap();
    m.faults().tamper_counter_line(PageId::new(5), line(0xAD));
    let err = m.recover_mut().unwrap_err();
    assert!(
        err.to_string()
            .contains("counter line of page 5 does not match the Merkle tree"),
        "{err}"
    );
}

#[test]
fn battery_backed_counters_survive_power_loss() {
    let mut m = mc();
    let page = PageId::new(2);
    m.write_block(page.block_addr(3), &line(0x3C), false, Cycles::ZERO)
        .unwrap();
    m.power_loss().unwrap();
    m.recover().unwrap();
    assert_eq!(
        m.read_block(page.block_addr(3), Cycles::ZERO).unwrap().data,
        line(0x3C)
    );
}

#[test]
fn volatile_counters_lost_on_crash() {
    let mut m = MemoryController::new(ControllerConfig {
        counter_persistence: CounterPersistence::VolatileWriteBack,
        ..ControllerConfig::small_test()
    })
    .unwrap();
    m.write_block(PageId::new(1).block_addr(0), &line(9), false, Cycles::ZERO)
        .unwrap();
    m.power_loss().unwrap();
    assert!(matches!(m.recover(), Err(Error::CounterLoss)));
}

#[test]
fn write_through_counters_survive_crash() {
    let mut m = MemoryController::new(ControllerConfig {
        counter_persistence: CounterPersistence::WriteThrough,
        ..ControllerConfig::small_test()
    })
    .unwrap();
    let addr = PageId::new(1).block_addr(0);
    m.write_block(addr, &line(9), false, Cycles::ZERO).unwrap();
    m.power_loss().unwrap();
    m.recover().unwrap();
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(9));
}

#[test]
fn zeroing_writes_classified() {
    let mut m = mc();
    m.write_block(PageId::new(0).block_addr(0), &line(0), true, Cycles::ZERO)
        .unwrap();
    m.write_block(PageId::new(0).block_addr(1), &line(1), false, Cycles::ZERO)
        .unwrap();
    assert_eq!(m.inspect().stats().mem.zeroing_writes.get(), 1);
    assert_eq!(m.inspect().stats().mem.writes.get(), 2);
}

#[test]
fn out_of_range_data_access_rejected() {
    let mut m = mc();
    let oob = BlockAddr::new(1 << 20);
    assert!(m.read_block(oob, Cycles::ZERO).is_err());
    assert!(m.write_block(oob, &line(0), false, Cycles::ZERO).is_err());
    assert!(m.shred_page(PageId::new(256), true).is_err());
}

#[test]
fn fence_waits_for_posted_writes() {
    let mut m = mc();
    assert_eq!(m.fence(Cycles::ZERO), Cycles::ZERO);
    m.write_block(PageId::new(0).block_addr(0), &line(1), false, Cycles::ZERO)
        .unwrap();
    assert!(m.fence(Cycles::ZERO) > Cycles::ZERO);
    assert_eq!(m.fence(Cycles::new(1_000_000)), Cycles::ZERO);
}

#[test]
fn huge_page_shreds_as_4k_run() {
    // §5: a 2 MiB huge page is shredded with 512 per-4KiB commands.
    let mut m = MemoryController::new(ControllerConfig {
        data_capacity: 4 << 20,
        counter_cache_bytes: 64 << 10,
        ..ControllerConfig::default()
    })
    .unwrap();
    let first = PageId::new(16);
    let count = 512u64;
    for i in (0..count).step_by(37) {
        m.write_block(
            PageId::new(16 + i).block_addr(0),
            &line(9),
            false,
            Cycles::ZERO,
        )
        .unwrap();
    }
    let writes_before = m.inspect().stats().mem.writes.get();
    let lat = m.shred_page_run(first, count, true, Cycles::ZERO).unwrap();
    assert_eq!(m.inspect().stats().shreds.get(), count);
    assert_eq!(
        m.inspect().stats().mem.writes.get(),
        writes_before,
        "huge shred wrote data"
    );
    assert!(lat.raw() > 0);
    for i in [0u64, 100, 511] {
        let r = m
            .read_block(PageId::new(16 + i).block_addr(0), Cycles::ZERO)
            .unwrap();
        assert!(r.zero_filled);
    }
    // User mode still faults on the first command.
    assert!(m.shred_page_run(first, 2, false, Cycles::ZERO).is_err());
}

#[test]
fn wear_leveling_preserves_contents_and_spreads_writes() {
    // A tiny data region (8 pages = 512 lines) with a gap move per
    // write, so the gap completes rotations within the test.
    let mut m = MemoryController::new(ControllerConfig {
        data_capacity: 32 << 10,
        counter_cache_bytes: 16 << 10,
        wear_leveling: true,
        start_gap_interval: 1,
        ..ControllerConfig::default()
    })
    .unwrap();
    // Write several blocks, hammer one of them, and verify everything
    // still reads back correctly through the rotating mapping.
    let pages: Vec<PageId> = (1..6).map(PageId::new).collect();
    for (i, p) in pages.iter().enumerate() {
        m.write_block(p.block_addr(0), &line(i as u8 + 1), false, Cycles::ZERO)
            .unwrap();
    }
    let hot = pages[0].block_addr(1);
    let hammer = 1200u64;
    for i in 0..hammer {
        m.write_block(hot, &line(i as u8), false, Cycles::ZERO)
            .unwrap();
        assert_eq!(m.read_block(hot, Cycles::ZERO).unwrap().data, line(i as u8));
    }
    for (i, p) in pages.iter().enumerate() {
        assert_eq!(
            m.read_block(p.block_addr(0), Cycles::ZERO).unwrap().data,
            line(i as u8 + 1),
            "block {i} corrupted by gap movement"
        );
    }
    // The hot logical line migrated across device slots as the gap
    // rotated past it, so no single device line absorbed all writes.
    let max = m.inspect().nvm_max_wear().map(|(_, n)| n).unwrap_or(0);
    assert!(max < hammer, "wear not levelled: max {max} of {hammer}");
}

#[test]
fn enclave_dealloc_shreds_without_kernel_mode() {
    let mut m = mc();
    let page = PageId::new(4);
    m.write_block(page.block_addr(0), &line(0x6A), false, Cycles::ZERO)
        .unwrap();
    m.enclave_register(page).unwrap();
    assert!(m.inspect().is_enclave_page(page));
    // The hardware path shreds without the OS privilege check.
    m.enclave_dealloc(page, Cycles::ZERO).unwrap();
    assert!(!m.inspect().is_enclave_page(page));
    assert!(
        m.read_block(page.block_addr(0), Cycles::ZERO)
            .unwrap()
            .zero_filled
    );
    // A second dealloc (or one for an unregistered page) is rejected.
    assert!(matches!(
        m.enclave_dealloc(page, Cycles::ZERO),
        Err(Error::PageNotOwned { .. })
    ));
    // Registration validates the address range.
    assert!(m.enclave_register(PageId::new(1 << 20)).is_err());
}

#[test]
fn write_queue_forwards_reads() {
    let mut m = mc_wq();
    let addr = PageId::new(1).block_addr(0);
    m.write_block(addr, &line(0x3A), false, Cycles::ZERO)
        .unwrap();
    // The write sits in the queue; the device has no ciphertext yet.
    assert_eq!(m.faults().nvm_peek(addr), [0u8; LINE_SIZE]);
    // Reads still observe the new value (forwarding).
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x3A));
    assert_eq!(m.inspect().write_queue_stats().unwrap().forwards.get(), 1);
}

#[test]
fn write_queue_high_water_drains_in_bursts() {
    let mut m = mc_wq();
    for i in 0..8u64 {
        m.write_block(
            PageId::new(1).block_addr(i as usize),
            &line(i as u8),
            false,
            Cycles::ZERO,
        )
        .unwrap();
    }
    let stats = m.inspect().write_queue_stats().unwrap();
    assert_eq!(stats.high_water_drains.get(), 1);
    assert_eq!(stats.drained.get(), 6, "drained to the low mark");
    // Everything still reads correctly (mixed drained/queued).
    for i in 0..8u64 {
        assert_eq!(
            m.read_block(PageId::new(1).block_addr(i as usize), Cycles::ZERO)
                .unwrap()
                .data,
            line(i as u8)
        );
    }
}

#[test]
fn write_queue_fence_drain_persists_everything() {
    let mut m = mc_wq();
    let addr = PageId::new(2).block_addr(3);
    m.write_block(addr, &line(0x44), false, Cycles::ZERO)
        .unwrap();
    m.fence_drain(Cycles::ZERO).unwrap();
    assert_ne!(
        m.faults().nvm_peek(addr),
        [0u8; LINE_SIZE],
        "queue not drained"
    );
    // And power loss after a crash keeps the data (ADR domain).
    m.write_block(addr, &line(0x45), false, Cycles::ZERO)
        .unwrap();
    m.power_loss().unwrap();
    m.recover().unwrap();
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x45));
}

#[test]
fn write_queue_coalesces_rewrites() {
    let mut m = mc_wq();
    let addr = PageId::new(1).block_addr(0);
    m.write_block(addr, &line(1), false, Cycles::ZERO).unwrap();
    m.write_block(addr, &line(2), false, Cycles::ZERO).unwrap();
    assert_eq!(m.inspect().write_queue_stats().unwrap().coalesced.get(), 1);
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(2));
}

#[test]
fn stats_reset_keeps_state() {
    let mut m = mc();
    let addr = PageId::new(1).block_addr(1);
    m.write_block(addr, &line(6), false, Cycles::ZERO).unwrap();
    m.reset_stats();
    assert_eq!(m.inspect().stats().mem.writes.get(), 0);
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(6));
}

#[test]
fn transient_error_recovered_by_retry() {
    let mut m = mc();
    let addr = PageId::new(1).block_addr(3);
    m.write_block(addr, &line(0x5A), false, Cycles::ZERO)
        .unwrap();
    // 2 flips: beyond SECDED correction, within detection — the
    // first read fails, the retry sees a clean line.
    m.faults().inject_data_read_error(addr, 2);
    let r = m.read_block(addr, Cycles::ZERO).unwrap();
    assert_eq!(r.data, line(0x5A));
    assert_eq!(m.inspect().stats().health.retries.get(), 1);
    assert_eq!(m.inspect().stats().health.retried_ok.get(), 1);
    assert!(m.inspect().stats().health.backoff_cycles > 0);
    assert_eq!(m.inspect().remapped_lines(), 0, "transients must not remap");
}

#[test]
fn single_flip_corrected_inline() {
    let mut m = mc();
    let addr = PageId::new(2).block_addr(0);
    m.write_block(addr, &line(0x33), false, Cycles::ZERO)
        .unwrap();
    m.faults().inject_data_read_error(addr, 1);
    let r = m.read_block(addr, Cycles::ZERO).unwrap();
    assert_eq!(r.data, line(0x33));
    assert_eq!(m.inspect().stats().health.ecc_corrected.get(), 1);
    assert_eq!(m.inspect().stats().health.retries.get(), 0);
}

#[test]
fn exhausted_pool_quarantines_loudly() {
    let mut m = MemoryController::new(ControllerConfig {
        spare_lines: 0,
        ..ControllerConfig::small_test()
    })
    .unwrap();
    let addr = PageId::new(1).block_addr(0);
    m.write_block(addr, &line(0xEE), false, Cycles::ZERO)
        .unwrap();
    m.faults().force_line_failure(addr, 1);
    // Rescue read still works, but the remap fails: quarantine.
    let r = m.read_block(addr, Cycles::ZERO).unwrap();
    assert_eq!(r.data, line(0xEE));
    assert_eq!(m.inspect().stats().health.remap_failures.get(), 1);
    assert_eq!(m.inspect().quarantined_lines(), 1);
    assert!(m.inspect().is_line_quarantined(addr));
    match m.read_block(addr, Cycles::ZERO) {
        Err(Error::Quarantined { .. }) => {}
        other => panic!("expected Quarantined, got {other:?}"),
    }
}

#[test]
fn full_line_write_revives_quarantined_line() {
    let mut m = MemoryController::new(ControllerConfig {
        spare_lines: 1,
        ..ControllerConfig::small_test()
    })
    .unwrap();
    let addr = PageId::new(2).block_addr(5);
    m.write_block(addr, &line(0x17), false, Cycles::ZERO)
        .unwrap();
    // 2 weak bits: permanently uncorrectable, straight to quarantine.
    m.faults().force_line_failure(addr, 2);
    assert!(m.read_block(addr, Cycles::ZERO).is_err());
    assert_eq!(m.inspect().quarantined_lines(), 1);
    // A full-line write carries everything a spare needs.
    m.write_block(addr, &line(0x18), false, Cycles::ZERO)
        .unwrap();
    assert_eq!(m.inspect().quarantined_lines(), 0);
    assert_eq!(m.inspect().remapped_lines(), 1);
    assert_eq!(m.read_block(addr, Cycles::ZERO).unwrap().data, line(0x18));
}

#[test]
fn scrubber_runs_on_write_idle_cycles() {
    let mut m = MemoryController::new(ControllerConfig {
        scrub_interval: Some(4),
        ..ControllerConfig::small_test()
    })
    .unwrap();
    for i in 0..12u64 {
        m.write_block(
            PageId::new(1).block_addr((i % 8) as usize),
            &line(i as u8),
            false,
            Cycles::ZERO,
        )
        .unwrap();
    }
    assert_eq!(m.inspect().stats().health.scrub_reads.get(), 3);
}
