//! Sharded-controller integration properties:
//!
//! 1. the interleaving is a partition — every block belongs to exactly
//!    one shard, and the map round-trips;
//! 2. a 1-shard [`ShardedController`] is behaviourally identical to the
//!    plain [`MemoryController`] under the same operation sequence,
//!    metric for metric, with and without a write queue;
//! 3. after an MMIO enqueue + drain, every shredded page zero-fills on
//!    *its own shard* — shredding one shard's pages never leaks into a
//!    neighbour;
//! 4. `fence_drain` empties every shard's write queue.

use ss_common::{Cycles, DetRng, PageId};
use ss_core::{
    mmio, ControllerConfig, ControllerConfigBuilder, Interleave, MemoryController, ShardedConfig,
    ShardedController, WriteQueueConfig,
};

#[test]
fn every_page_maps_to_exactly_one_shard() {
    for shards in [1u32, 2, 3, 4, 8] {
        let il = Interleave::new(shards).unwrap();
        for p in 0..4096u64 {
            let page = PageId::new(p);
            let owner = il.shard_of_page(page);
            assert!(owner < shards);
            // Exactly one shard claims the page: its (shard, local)
            // pair round-trips, and no other shard's local space maps
            // back to it.
            assert_eq!(il.global_page(owner, il.local_page(page)), page);
            let mut claimants = 0;
            for s in 0..shards {
                // Shard s claims p iff some local frame maps to it;
                // round-robin means that frame must be p / shards.
                if il.global_page(s, il.local_page(page)) == page {
                    claimants += 1;
                }
            }
            assert_eq!(claimants, 1, "page {p} claimed by {claimants} shards");
        }
        // Blocks inherit their page's owner.
        let addr = PageId::new(77).block_addr(13);
        assert_eq!(il.shard_of_block(addr), il.shard_of_page(PageId::new(77)));
    }
}

/// Drives the same deterministic op mix against both controllers and
/// returns their metric registries' JSON for comparison.
// Test-only helper: unwrap-to-fail-loudly, like the #[test] fns that
// clippy.toml's allow-unwrap-in-tests already covers.
#[allow(clippy::unwrap_used)]
fn run_mix(plain: &mut MemoryController, sharded: &mut ShardedController) {
    let frames = plain.config().frames();
    let mut rng = DetRng::new(0x5EED);
    let mut now = Cycles::ZERO;
    for i in 0..2000u64 {
        let page = PageId::new(rng.below(frames));
        let block = rng.below(64) as usize;
        let addr = page.block_addr(block);
        match i % 5 {
            0 | 1 => {
                let fill = [i as u8; 64];
                let a = plain.write_block(addr, &fill, false, now).unwrap();
                let b = sharded.write_block(addr, &fill, false, now).unwrap();
                assert_eq!(a, b, "write latency diverged at op {i}");
                now += a;
            }
            2 | 3 => {
                let a = plain.read_block(addr, now).unwrap();
                let b = sharded.read_block(addr, now).unwrap();
                assert_eq!(a.data, b.data, "read data diverged at op {i}");
                assert_eq!(a.latency, b.latency, "read latency diverged at op {i}");
                assert_eq!(a.zero_filled, b.zero_filled);
                now += a.latency;
            }
            4 if i % 20 == 4 => {
                let a = plain.fence_drain(now).unwrap();
                let b = sharded.fence_drain(now).unwrap();
                assert_eq!(a, b, "fence_drain wait diverged at op {i}");
                now += a;
            }
            _ => {
                let a = plain
                    .mmio_write(mmio::SHRED_REG, page.base_addr().raw(), true, now)
                    .unwrap();
                let b = sharded
                    .mmio_write(mmio::SHRED_REG, page.base_addr().raw(), true, now)
                    .unwrap();
                assert_eq!(a, b, "shred latency diverged at op {i}");
                now += a;
            }
        }
    }
}

/// A write queue that holds up to 8 lines before draining on its own.
#[allow(clippy::unwrap_used)]
fn queued_config() -> ControllerConfig {
    let queue = WriteQueueConfig {
        capacity: 8,
        drain_low: 1,
        drain_high: 8,
    };
    ControllerConfigBuilder::small_test()
        .write_queue(Some(queue))
        .build()
        .unwrap()
}

#[test]
fn one_shard_matches_plain_controller_exactly() {
    for config in [ControllerConfig::small_test(), queued_config()] {
        let mut plain = MemoryController::new(config.clone()).unwrap();
        let mut sharded = ShardedController::new(ShardedConfig::new(1, config)).unwrap();
        run_mix(&mut plain, &mut sharded);

        let plain_metrics = plain.inspect().metrics();
        let sharded_metrics = sharded.metrics();
        // Every plain metric must appear in the merged registry
        // unchanged; the sharded registry only adds shard.* gauges on
        // top.
        for (name, value) in plain_metrics.iter() {
            assert_eq!(
                sharded_metrics.get(name),
                Some(value),
                "metric {name} diverged between plain and 1-shard controllers"
            );
        }
        assert_eq!(sharded_metrics.get("shard.count"), Some(1));
    }
}

#[test]
fn fence_drain_empties_every_shard_queue() {
    let mut sc = ShardedController::new(ShardedConfig::new(4, queued_config())).unwrap();
    // Two lines per shard: consecutive pages interleave round-robin.
    for p in 0..8u64 {
        let addr = PageId::new(p).block_addr(0);
        sc.write_block(addr, &[p as u8 + 1; 64], false, Cycles::ZERO)
            .unwrap();
    }
    for s in 0..4 {
        let queued = sc.inspect_shard(s).unwrap().write_queue_len();
        assert_eq!(queued, 2, "shard {s} should hold its writes queued");
    }
    let wait = sc.fence_drain(Cycles::ZERO).unwrap();
    assert!(
        wait > Cycles::ZERO,
        "the drained writes occupy the channels"
    );
    assert_eq!(wait, sc.fence(Cycles::ZERO), "drain waits for every shard");
    for s in 0..4 {
        assert_eq!(
            sc.inspect_shard(s).unwrap().write_queue_len(),
            0,
            "shard {s} kept queued writes"
        );
    }
    for p in 0..8u64 {
        let r = sc.read_block(PageId::new(p).block_addr(0), Cycles::ZERO);
        assert_eq!(
            r.unwrap().data,
            [p as u8 + 1; 64],
            "page {p} lost its write"
        );
    }
}

#[test]
fn shred_reads_zero_on_every_shard() {
    let mut sc =
        ShardedController::new(ShardedConfig::new(4, ControllerConfig::small_test())).unwrap();
    let frames = sc.config().base.frames();
    // Dirty one line in every page, everywhere.
    for p in 0..frames {
        let addr = PageId::new(p).block_addr((p % 64) as usize);
        sc.write_block(addr, &[0xEE; 64], false, Cycles::ZERO)
            .unwrap();
    }
    // Enqueue + drain a stripe covering all four shards.
    for p in 0..frames {
        sc.mmio_write(
            mmio::SHRED_ENQ_REG,
            PageId::new(p).base_addr().raw(),
            true,
            Cycles::ZERO,
        )
        .unwrap();
    }
    sc.mmio_write(mmio::SHRED_DRAIN_REG, 0, true, Cycles::ZERO)
        .unwrap();
    for p in 0..frames {
        let addr = PageId::new(p).block_addr((p % 64) as usize);
        let r = sc.read_block(addr, Cycles::ZERO).unwrap();
        assert!(r.zero_filled, "page {p} not zero-filled after batch shred");
        assert_eq!(r.data, [0u8; 64]);
    }
    // Each of the 4 shards executed exactly its share.
    for s in 0..4 {
        let shreds = sc.inspect_shard(s).unwrap().stats().shreds.get();
        assert_eq!(shreds, frames / 4, "shard {s} shredded {shreds}");
    }
    assert!(sc.inspect_shard(4).is_none());
}
