//! Sharding scaling bench: shred throughput versus shard count.
//!
//! ```text
//! shardbench [--json FILE]
//! ```
//!
//! Runs the server-consolidation teardown scenario (§1, §6) against the
//! sharded controller at 1, 2, 4 and 8 shards and reports batched-shred
//! throughput. Each of 16 tenants owns a contiguous run of 112 pages,
//! dirties 8 distinct lines of each through the ordinary write path,
//! and is then torn down: the hypervisor posts every page of the run to
//! the MMIO shred queue and rings the drain doorbell once. Each row
//! splits the teardown cost into the batch (parallel-channel) drain
//! cycles and the same work serialised on one channel.
//!
//! All quantities are simulated cycles — a pure function of the workload
//! seed and the configuration, so the report (and the JSON) is
//! byte-identical across runs and machines. `BENCH_sharding.json` at the
//! repository root is this binary's committed `--json` output.
//!
//! Exit status is nonzero if 8 shards fail to deliver at least a 3x
//! throughput scaling over one shard — the regression gate for the
//! multi-channel drain path. Flags, text report, JSON and exit status
//! are the shared [`ss_bench::bench`] program, run with the
//! [`ShardBench`] bench.

use ss_bench::bench::{self, int, Bench, Field, Value};
use ss_common::{Cycles, DetRng, PageId, BLOCKS_PER_PAGE};
use ss_core::{mmio, ControllerConfigBuilder, ShardedConfig, ShardedController};

/// The consolidation workload shape, shared with `protbench`.
const TENANTS: u64 = 16;
const PAGES_PER_TENANT: u64 = 112;
const DIRTY_LINES_PER_PAGE: u64 = 8;
const SEED: u64 = 0xC0_50_11;

/// Minimum acceptable throughput ratio between the largest and the
/// 1-shard configuration, in thousandths (3000 = 3x).
const MIN_SCALING_X1000: u64 = 3000;

/// The shard counts under test, smallest first: the first row is the
/// 1-shard baseline every scaling ratio divides by.
const SHARDS: [u32; 4] = [1, 2, 4, 8];

/// The lines `tenant` dirties before teardown, as `(page offset within
/// its run, block index)` in write order: [`DIRTY_LINES_PER_PAGE`]
/// distinct blocks of every page, sampled from the tenant's own stream.
fn dirty_lines(tenant: u64) -> Vec<(u64, usize)> {
    let mut rng = DetRng::new(SEED ^ (tenant << 32));
    let mut dirty = Vec::new();
    for page in 0..PAGES_PER_TENANT {
        let mut picked = [false; BLOCKS_PER_PAGE];
        let mut taken = 0;
        while taken < DIRTY_LINES_PER_PAGE {
            let block = rng.below(BLOCKS_PER_PAGE as u64) as usize;
            if !picked[block] {
                picked[block] = true;
                taken += 1;
                dirty.push((page, block));
            }
        }
    }
    dirty
}

/// Runs the dirty/teardown churn once on `shards` channels: the row
/// without its scaling ratio, which needs the 1-shard row.
fn run(shards: u32) -> ss_common::Result<Vec<Field>> {
    // `small_test` scaled up so every shard count under test divides the
    // 2048 frames and the drain batches dwarf per-batch constants.
    let base = ControllerConfigBuilder::small_test()
        .data_capacity(8 << 20)
        .build()?;
    let mut mc = ShardedController::new(ShardedConfig::new(shards, base))?;
    let mut now = Cycles::ZERO;
    let (mut executed, mut coalesced) = (0, 0);
    let (mut drain_cycles, mut serial_drain_cycles) = (0, 0);
    for tenant in 0..TENANTS {
        let first_page = tenant * PAGES_PER_TENANT;
        for (page, block) in dirty_lines(tenant) {
            let addr = PageId::new(first_page + page).block_addr(block);
            let fill = [(tenant as u8).wrapping_add(page as u8); 64];
            now += mc.write_block(addr, &fill, false, now)?;
        }
        // Teardown: post the whole run to the shred queue and ring the
        // doorbell once, through the MMIO surface like a kernel.
        for page in first_page..first_page + PAGES_PER_TENANT {
            let addr = PageId::new(page).base_addr().raw();
            mc.mmio_write(mmio::SHRED_ENQ_REG, addr, true, now)?;
        }
        let drain = mc.drain_shreds(true, now)?;
        executed += drain.executed;
        coalesced += drain.coalesced;
        drain_cycles += drain.elapsed.raw();
        serial_drain_cycles += drain.serial_cycles.raw();
        now += drain.elapsed;
    }
    Ok(vec![
        ("shards", Value::Int(u64::from(shards))),
        ("pages_shredded", Value::Int(executed)),
        ("shreds_coalesced", Value::Int(coalesced)),
        ("drain_cycles", Value::Int(drain_cycles)),
        ("serial_drain_cycles", Value::Int(serial_drain_cycles)),
        (
            "pages_per_mcycle",
            Value::Int(executed * 1_000_000 / drain_cycles.max(1)),
        ),
    ])
}

/// Shred throughput at 1, 2, 4 and 8 shards.
struct ShardBench;

impl Bench for ShardBench {
    const NAME: &'static str = "shardbench";
    const ID: &'static str = "sharding_scaling";
    const WORKLOAD: &'static [Field] = &[
        ("name", Value::Name("server_consolidation")),
        ("tenants", Value::Int(TENANTS)),
        ("pages_per_tenant", Value::Int(PAGES_PER_TENANT)),
        ("dirty_lines_per_page", Value::Int(DIRTY_LINES_PER_PAGE)),
        ("seed", Value::Int(SEED)),
    ];

    /// One row per shard count, each with its throughput over the
    /// 1-shard row's in thousandths.
    fn rows() -> Result<Vec<Vec<Field>>, String> {
        let mut rows = Vec::new();
        for shards in SHARDS {
            rows.push(run(shards).map_err(|e| format!("shards={shards}: {e}"))?);
        }
        let base = int(&rows[0], "pages_per_mcycle").max(1);
        for row in &mut rows {
            let scaling = int(row, "pages_per_mcycle") * 1000 / base;
            row.push(("scaling_x1000", Value::Int(scaling)));
        }
        Ok(rows)
    }

    /// The largest shard count must reach [`MIN_SCALING_X1000`].
    fn gate(rows: &[Vec<Field>]) -> Result<String, String> {
        let top = &rows[rows.len() - 1];
        let (shards, scaling) = (int(top, "shards"), int(top, "scaling_x1000"));
        let x = format!("{}.{:03}x", scaling / 1000, scaling % 1000);
        if scaling < MIN_SCALING_X1000 {
            return Err(format!(
                "{shards} shards scaled only {x} over 1 shard (need >= 3x)"
            ));
        }
        Ok(format!(
            "{shards} shards deliver {x} the 1-shard shred throughput"
        ))
    }
}

fn main() -> std::process::ExitCode {
    bench::main::<ShardBench>(std::env::args().skip(1))
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;

    /// The rows of a report whose top shard count scaled `scaling`.
    fn scaled(scaling: u64) -> Vec<Vec<Field>> {
        vec![vec![
            ("shards", Value::Int(8)),
            ("scaling_x1000", Value::Int(scaling)),
        ]]
    }

    #[test]
    fn gate_needs_three_times_the_one_shard_throughput() {
        assert_eq!(
            ShardBench::gate(&scaled(2999)),
            Err("8 shards scaled only 2.999x over 1 shard (need >= 3x)".to_string())
        );
        assert_eq!(
            ShardBench::gate(&scaled(3000)),
            Ok("8 shards deliver 3.000x the 1-shard shred throughput".to_string())
        );
    }

    #[test]
    fn dirty_lines_are_deterministic_and_distinct_per_page() {
        for tenant in [0, 1, TENANTS - 1] {
            let lines = dirty_lines(tenant);
            assert_eq!(lines, dirty_lines(tenant), "same seed, same lines");
            let mut pages = BTreeMap::<u64, BTreeSet<usize>>::new();
            for (page, block) in lines {
                let fresh = pages.entry(page).or_default().insert(block);
                assert!(fresh, "tenant {tenant} dirtied {page}:{block} twice");
            }
            assert!(pages.keys().copied().eq(0..PAGES_PER_TENANT));
            for blocks in pages.values() {
                assert_eq!(blocks.len() as u64, DIRTY_LINES_PER_PAGE);
            }
        }
        assert_ne!(dirty_lines(0), dirty_lines(1), "tenants sample apart");
    }
}
