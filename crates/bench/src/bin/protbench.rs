//! Protection-backend bench: counter mode versus scattered two-share.
//!
//! ```text
//! protbench [--json FILE]
//! ```
//!
//! Runs the same tenant-teardown workload (16 tenants x 112 pages,
//! 8 dirty lines per page, seed `0xC0_50_11` — the shardbench
//! consolidation shape) against one controller per shredding
//! [`ss_core::ProtectionMode`] and reports four phases each:
//!
//! * **fill** — demand-write every dirty line of every tenant page;
//! * **service** — read every dirty line back (round-trip checked
//!   against the written data);
//! * **teardown** — kernel-shred every tenant page;
//! * **reuse** — re-read every dirty line; every read must zero-fill
//!   without touching the data array.
//!
//! All quantities are simulated cycles or controller counters — a pure
//! function of the workload seed and the two configurations, so the
//! report (and the JSON) is byte-identical across runs and machines.
//! `BENCH_protection.json` at the repository root is this binary's
//! committed `--json` output. Relative columns are integer thousandths
//! (scattered over counter mode); no float arithmetic anywhere.
//!
//! Exit status is nonzero if either backend mis-services a live read or
//! fails to zero-fill a shredded one — the bench doubles as a
//! cross-backend semantic equivalence check. Flags, text report, JSON
//! and exit status are the shared [`ss_bench::bench`] program, run with
//! the [`ProtBench`] bench.

use ss_bench::bench::{self, int, Bench, Field, Value};
use ss_common::{BlockAddr, Cycles, DetRng, PageId, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_core::{ControllerConfigBuilder, MemoryController, ProtectionMode};
use ss_crypto::Line;

/// The consolidation workload shape, shared with `shardbench`.
const TENANTS: u64 = 16;
const PAGES_PER_TENANT: u64 = 112;
const DIRTY_LINES_PER_PAGE: u64 = 8;
const SEED: u64 = 0xC0_50_11;

/// The working set is pages `1..=LAST_PAGE`, tenant after tenant; `8 <<
/// 20` of data capacity (2048 frames) comfortably holds it.
const LAST_PAGE: u64 = TENANTS * PAGES_PER_TENANT;

/// One dirty line of the workload: where it lives and what was written.
struct DirtyLine {
    addr: BlockAddr,
    data: Line,
}

/// The deterministic workload: every dirty line of every tenant page,
/// in fill order.
fn workload() -> Vec<DirtyLine> {
    let mut rng = DetRng::new(SEED);
    let mut lines = Vec::new();
    for page in 1..=LAST_PAGE {
        let mut used = [false; BLOCKS_PER_PAGE];
        for _ in 0..DIRTY_LINES_PER_PAGE {
            // Distinct blocks per page so the reuse phase's zero-fill
            // census equals the dirty-line count exactly.
            let mut block = rng.below(BLOCKS_PER_PAGE as u64) as usize;
            while used[block] {
                block = (block + 1) % BLOCKS_PER_PAGE;
            }
            used[block] = true;
            let mut data = [0u8; LINE_SIZE];
            rng.fill_bytes(&mut data);
            let addr = PageId::new(page).block_addr(block);
            lines.push(DirtyLine { addr, data });
        }
    }
    lines
}

/// Reads every dirty line back in fill order, advancing `now`: each
/// must return its written data, or after teardown (`shredded`)
/// zero-fill without touching the data array. Returns the phase's
/// cycles.
fn read_back(
    mc: &mut MemoryController,
    lines: &[DirtyLine],
    now: &mut Cycles,
    shredded: bool,
) -> Result<u64, String> {
    let (phase, want) = if shredded {
        ("reuse", "zero-fill")
    } else {
        ("service", "round-trip")
    };
    let mut cycles = 0;
    for dl in lines {
        let r = mc
            .read_block(dl.addr, *now)
            .map_err(|e| format!("{phase} {:?}: {e}", dl.addr))?;
        let data = if shredded { [0; LINE_SIZE] } else { dl.data };
        if r.zero_filled != shredded || r.data != data {
            return Err(format!("{phase} read at {:?} did not {want}", dl.addr));
        }
        *now += r.latency;
        cycles += r.latency.raw();
    }
    Ok(cycles)
}

/// Runs the four phases on one backend: its report row of phase cycle
/// totals and end-of-run counters.
fn run(protection: ProtectionMode, label: &'static str) -> Result<Vec<Field>, String> {
    // Identical geometry for both backends, so every column compares
    // like with like.
    let builder = match protection {
        ProtectionMode::Scattered => ControllerConfigBuilder::scattered(),
        other => ControllerConfigBuilder::small_test().protection(other),
    };
    let config = builder
        .data_capacity(8 << 20)
        .counter_cache_bytes(64 << 10)
        .build();
    let mut mc = config
        .and_then(MemoryController::new)
        .map_err(|e| e.to_string())?;
    let lines = workload();
    let mut now = Cycles::ZERO;

    // Fill: demand-write every dirty line.
    let mut fill_cycles = 0;
    for dl in &lines {
        let lat = mc
            .write_block(dl.addr, &dl.data, false, now)
            .map_err(|e| format!("fill {:?}: {e}", dl.addr))?;
        now += lat;
        fill_cycles += lat.raw();
    }

    // Service: read everything back and check the round trip.
    let service_cycles = read_back(&mut mc, &lines, &mut now, false)?;

    // Teardown: kernel-shred every tenant page.
    let mut teardown_cycles = 0;
    for page in 1..=LAST_PAGE {
        let lat = mc
            .shred_page_at(PageId::new(page), true, now)
            .map_err(|e| format!("shred page {page}: {e}"))?;
        now += lat;
        teardown_cycles += lat.raw();
    }

    // Reuse: every dirty line must now read as zero without touching
    // the data array.
    let reuse_cycles = read_back(&mut mc, &lines, &mut now, true)?;

    let metrics = mc.inspect().metrics();
    let mut row = vec![
        ("backend", Value::Name(label)),
        ("fill_cycles", Value::Int(fill_cycles)),
        ("service_cycles", Value::Int(service_cycles)),
        ("teardown_cycles", Value::Int(teardown_cycles)),
        ("reuse_cycles", Value::Int(reuse_cycles)),
    ];
    for &(key, metric) in COUNTERS {
        row.push((key, Value::Int(metrics.get(metric).unwrap_or(0))));
    }
    Ok(row)
}

/// The counters worth a column: `(json key, metrics key)`.
const COUNTERS: &[(&str, &str)] = &[
    ("nvm_writes", "nvm.writes"),
    ("nvm_reads", "nvm.reads"),
    ("nvm_bits_written", "nvm.bits_written"),
    ("counter_reads", "ctrl.counter_reads"),
    ("counter_writes", "ctrl.counter_writes"),
    ("zero_fill_reads", "ctrl.zero_fill_reads"),
    ("ccache_hits", "ccache.hits"),
    ("ccache_misses", "ccache.misses"),
    ("share_writes", "prot.share_writes"),
    ("mask_writes", "prot.mask_writes"),
    ("recombines", "prot.recombines"),
    ("mask_discards", "prot.mask_discards"),
    ("fresh_share_rescues", "prot.fresh_share_rescues"),
    ("metadata_lines", "prot.metadata_lines"),
];

/// Counter mode against the scattered two-share backend.
struct ProtBench;

impl Bench for ProtBench {
    const NAME: &'static str = "protbench";
    const ID: &'static str = "protection_backends";
    const WORKLOAD: &'static [Field] = &[
        ("name", Value::Name("tenant_teardown")),
        ("tenants", Value::Int(TENANTS)),
        ("pages_per_tenant", Value::Int(PAGES_PER_TENANT)),
        ("dirty_lines_per_page", Value::Int(DIRTY_LINES_PER_PAGE)),
        ("seed", Value::Int(SEED)),
    ];

    fn rows() -> Result<Vec<Vec<Field>>, String> {
        [
            (ProtectionMode::Ctr, "counter"),
            (ProtectionMode::Scattered, "scattered"),
        ]
        .into_iter()
        .map(|(mode, label)| run(mode, label).map_err(|e| format!("{label}: {e}")))
        .collect()
    }

    /// Scattered over counter mode, in thousandths, per phase and for
    /// NVM writes.
    fn summary(rows: &[Vec<Field>]) -> Option<(&'static str, Vec<Field>)> {
        let (c, s) = (&rows[0], &rows[1]);
        let ratio = |key| Value::Int(int(s, key) * 1000 / int(c, key).max(1));
        let summary = vec![
            ("fill", ratio("fill_cycles")),
            ("service", ratio("service_cycles")),
            ("teardown", ratio("teardown_cycles")),
            ("reuse", ratio("reuse_cycles")),
            ("nvm_writes", ratio("nvm_writes")),
        ];
        Some(("scattered_vs_counter_x1000", summary))
    }

    /// Every semantic check runs inside [`run`]: a backend that reaches
    /// the gate serviced, tore down and zero-filled every line.
    fn gate(_rows: &[Vec<Field>]) -> Result<String, String> {
        Ok("both backends serviced, tore down, and zero-filled identically".to_string())
    }
}

fn main() -> std::process::ExitCode {
    bench::main::<ProtBench>(std::env::args().skip(1))
}
