//! Sharding scaling bench: shred throughput versus shard count.
//!
//! ```text
//! shardbench [--json FILE]
//! ```
//!
//! Runs the server-consolidation teardown scenario
//! ([`ss_sim::ConsolidationScenario`]) against the sharded controller at
//! 1, 2, 4 and 8 shards and reports batched-shred throughput. All
//! quantities are simulated cycles — a pure function of the workload
//! seed and the configuration, so the report (and the JSON) is
//! byte-identical across runs and machines. `BENCH_sharding.json` at the
//! repository root is this binary's committed `--json` output.
//!
//! Exit status is nonzero if 8 shards fail to deliver at least a 3x
//! throughput scaling over one shard — the regression gate for the
//! multi-channel drain path.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use ss_core::{ControllerConfig, ControllerConfigBuilder, ShardedConfig};
use ss_sim::{ConsolidationReport, ConsolidationScenario};
use ss_workloads::ConsolidationWorkload;

/// Minimum acceptable throughput ratio between the largest and the
/// 1-shard configuration, in thousandths (3000 = 3x).
const MIN_SCALING_X1000: u64 = 3000;

/// The shard counts under test, smallest first: the first row is the
/// 1-shard baseline every scaling ratio divides by.
const SHARDS: [u32; 4] = [1, 2, 4, 8];

/// Parses argv: the optional `--json FILE` path.
fn parse_args() -> Result<Option<String>, String> {
    let mut json = None;
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().ok_or("--json needs a file path")?),
            "--help" | "-h" => return Err("usage: shardbench [--json FILE]".to_string()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(json)
}

/// The bench's controller: `small_test` scaled up so every shard count
/// under test divides the frame count and the drain batches are long
/// enough to dwarf per-batch constants.
fn base_config() -> Result<ControllerConfig, String> {
    ControllerConfigBuilder::small_test()
        .data_capacity(8 << 20) // 2048 frames: divisible by 1,2,4,8
        .build()
        .map_err(|e| format!("base config: {e}"))
}

/// The bench workload: 16 tenants × 112 pages = 1792 pages of churn.
fn workload() -> ConsolidationWorkload {
    ConsolidationWorkload {
        tenants: 16,
        pages_per_tenant: 112,
        dirty_lines_per_page: 8,
        seed: 0xC0_50_11,
    }
}

fn run(shards: u32) -> Result<ConsolidationReport, String> {
    let sharded = ShardedConfig::new(shards, base_config()?);
    let scenario = ConsolidationScenario::new(workload(), sharded)
        .map_err(|e| format!("shards={shards}: {e}"))?;
    scenario.run().map_err(|e| format!("shards={shards}: {e}"))
}

/// Throughput ratio of `row` over `base`, in thousandths.
fn scaling_x1000(base: &ConsolidationReport, row: &ConsolidationReport) -> u64 {
    row.pages_per_mcycle() * 1000 / base.pages_per_mcycle().max(1)
}

fn to_json(rows: &[ConsolidationReport]) -> String {
    let w = workload();
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"sharding_scaling\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"name\": \"server_consolidation\", \"tenants\": {}, \
         \"pages_per_tenant\": {}, \"dirty_lines_per_page\": {}, \"seed\": {}}},",
        w.tenants, w.pages_per_tenant, w.dirty_lines_per_page, w.seed
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"shards\": {}, \"pages_shredded\": {}, \"shreds_coalesced\": {}, \
             \"drain_cycles\": {}, \"serial_drain_cycles\": {}, \
             \"pages_per_mcycle\": {}, \"scaling_x1000\": {}}}{}",
            r.shards,
            r.pages_shredded,
            r.shreds_coalesced,
            r.drain_cycles.raw(),
            r.serial_drain_cycles.raw(),
            r.pages_per_mcycle(),
            scaling_x1000(&rows[0], r),
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

fn main() -> ExitCode {
    let json = match parse_args() {
        Ok(j) => j,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut rows = Vec::new();
    for n in SHARDS {
        match run(n) {
            Ok(r) => rows.push(r),
            Err(msg) => {
                eprintln!("shardbench: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("Sharded shred pipeline: consolidation teardown throughput");
    println!(
        "  workload: {} tenants x {} pages, {} dirty lines/page",
        workload().tenants,
        workload().pages_per_tenant,
        workload().dirty_lines_per_page
    );
    println!(
        "  {:>6} {:>14} {:>12} {:>14} {:>16} {:>10}",
        "shards", "pages_shredded", "drain_cyc", "serial_cyc", "pages/Mcycle", "scaling"
    );
    for r in &rows {
        println!(
            "  {:>6} {:>14} {:>12} {:>14} {:>16} {:>9}.{:03}x",
            r.shards,
            r.pages_shredded,
            r.drain_cycles.raw(),
            r.serial_drain_cycles.raw(),
            r.pages_per_mcycle(),
            scaling_x1000(&rows[0], r) / 1000,
            scaling_x1000(&rows[0], r) % 1000,
        );
    }

    if let Some(path) = &json {
        if let Err(e) = std::fs::write(path, to_json(&rows)) {
            eprintln!("shardbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  json report written to {path}");
    }

    let top = &rows[rows.len() - 1];
    let scaling = scaling_x1000(&rows[0], top);
    if scaling < MIN_SCALING_X1000 {
        eprintln!(
            "shardbench: FAIL: {} shards scaled only {}.{:03}x over 1 shard (need >= 3x)",
            top.shards,
            scaling / 1000,
            scaling % 1000
        );
        return ExitCode::FAILURE;
    }
    println!(
        "  PASS: {} shards deliver {}.{:03}x the 1-shard shred throughput",
        top.shards,
        scaling / 1000,
        scaling % 1000
    );
    ExitCode::SUCCESS
}
