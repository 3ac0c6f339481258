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
//! cross-backend semantic equivalence check.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use ss_common::{BlockAddr, Cycles, DetRng, LINE_SIZE, PAGE_SIZE};
use ss_core::{ControllerConfigBuilder, MemoryController, ProtectionMode};
use ss_crypto::Line;

/// The consolidation workload shape, shared with `shardbench`.
const TENANTS: u64 = 16;
const PAGES_PER_TENANT: u64 = 112;
const DIRTY_LINES_PER_PAGE: usize = 8;
const SEED: u64 = 0xC0_50_11;

struct Options {
    json: Option<String>,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { json: None };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => {
                opts.json = Some(args.next().ok_or("--json needs a file path")?);
            }
            "--help" | "-h" => {
                return Err("usage: protbench [--json FILE]".to_string());
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(opts)
}

/// One dirty line of the workload: where it lives and what was written.
struct DirtyLine {
    addr: BlockAddr,
    data: Line,
}

/// The deterministic workload: every tenant page with its dirty lines,
/// in fill order. Page ids are 1-based; `8 << 20` of data capacity
/// (2048 frames) comfortably holds the 1792-page working set.
fn workload() -> Vec<(u64, Vec<DirtyLine>)> {
    let mut rng = DetRng::new(SEED);
    let mut pages = Vec::new();
    for tenant in 0..TENANTS {
        for p in 0..PAGES_PER_TENANT {
            let page = 1 + tenant * PAGES_PER_TENANT + p;
            let mut lines = Vec::with_capacity(DIRTY_LINES_PER_PAGE);
            let mut used = [false; PAGE_SIZE / LINE_SIZE];
            for _ in 0..DIRTY_LINES_PER_PAGE {
                // Distinct blocks per page so the reuse phase's
                // zero-fill census equals the dirty-line count exactly.
                let mut block = rng.below((PAGE_SIZE / LINE_SIZE) as u64) as usize;
                while used[block] {
                    block = (block + 1) % (PAGE_SIZE / LINE_SIZE);
                }
                used[block] = true;
                let mut data = [0u8; LINE_SIZE];
                rng.fill_bytes(&mut data);
                lines.push(DirtyLine {
                    addr: BlockAddr::new(page * PAGE_SIZE as u64 + (block * LINE_SIZE) as u64),
                    data,
                });
            }
            pages.push((page, lines));
        }
    }
    pages
}

/// The per-backend controller: identical geometry for both backends so
/// every column is an apples-to-apples comparison.
fn config(protection: ProtectionMode) -> ss_core::ControllerConfig {
    let builder = match protection {
        ProtectionMode::Scattered => ControllerConfigBuilder::scattered(),
        other => ControllerConfigBuilder::small_test().protection(other),
    };
    builder
        .data_capacity(8 << 20)
        .counter_cache_bytes(64 << 10)
        .build()
        .expect("protbench config must validate")
}

/// One backend's phase cycle totals and end-of-run counters.
struct BackendRow {
    backend: &'static str,
    fill_cycles: u64,
    service_cycles: u64,
    teardown_cycles: u64,
    reuse_cycles: u64,
    metrics: ss_trace::MetricsRegistry,
}

impl BackendRow {
    fn metric(&self, key: &str) -> u64 {
        self.metrics.get(key).unwrap_or(0)
    }
}

fn run(protection: ProtectionMode, label: &'static str) -> Result<BackendRow, String> {
    let mut mc = MemoryController::new(config(protection)).map_err(|e| format!("{label}: {e}"))?;
    let pages = workload();
    let mut now = Cycles::ZERO;

    // Fill: demand-write every dirty line.
    let mut fill_cycles = 0u64;
    for (_, lines) in &pages {
        for dl in lines {
            let lat = mc
                .write_block(dl.addr, &dl.data, false, now)
                .map_err(|e| format!("{label}: fill {:?}: {e}", dl.addr))?;
            now += lat;
            fill_cycles += lat.raw();
        }
    }

    // Service: read everything back and check the round trip.
    let mut service_cycles = 0u64;
    for (_, lines) in &pages {
        for dl in lines {
            let r = mc
                .read_block(dl.addr, now)
                .map_err(|e| format!("{label}: service {:?}: {e}", dl.addr))?;
            if r.data != dl.data || r.zero_filled {
                return Err(format!(
                    "{label}: service read at {:?} did not round-trip",
                    dl.addr
                ));
            }
            now += r.latency;
            service_cycles += r.latency.raw();
        }
    }

    // Teardown: kernel-shred every tenant page.
    let mut teardown_cycles = 0u64;
    for (page, _) in &pages {
        let lat = mc
            .shred_page(ss_common::PageId::new(*page), true)
            .map_err(|e| format!("{label}: shred page {page}: {e}"))?;
        now += lat;
        teardown_cycles += lat.raw();
    }

    // Reuse: every dirty line must now read as zero without touching
    // the data array.
    let mut reuse_cycles = 0u64;
    for (_, lines) in &pages {
        for dl in lines {
            let r = mc
                .read_block(dl.addr, now)
                .map_err(|e| format!("{label}: reuse {:?}: {e}", dl.addr))?;
            if !r.zero_filled || r.data != [0u8; LINE_SIZE] {
                return Err(format!(
                    "{label}: shredded line at {:?} did not zero-fill",
                    dl.addr
                ));
            }
            now += r.latency;
            reuse_cycles += r.latency.raw();
        }
    }

    Ok(BackendRow {
        backend: label,
        fill_cycles,
        service_cycles,
        teardown_cycles,
        reuse_cycles,
        metrics: mc.inspect().metrics(),
    })
}

/// `num * 1000 / den`, guarding the empty-phase corner.
fn ratio_x1000(num: u64, den: u64) -> u64 {
    num * 1000 / den.max(1)
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

fn to_json(rows: &[BackendRow]) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"bench\": \"protection_backends\",\n");
    let _ = writeln!(
        out,
        "  \"workload\": {{\"name\": \"tenant_teardown\", \"tenants\": {TENANTS}, \
         \"pages_per_tenant\": {PAGES_PER_TENANT}, \
         \"dirty_lines_per_page\": {DIRTY_LINES_PER_PAGE}, \"seed\": {SEED}}},"
    );
    out.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\"backend\": \"{}\", \"fill_cycles\": {}, \"service_cycles\": {}, \
             \"teardown_cycles\": {}, \"reuse_cycles\": {}",
            r.backend, r.fill_cycles, r.service_cycles, r.teardown_cycles, r.reuse_cycles
        );
        for (key, metric) in COUNTERS {
            let _ = write!(out, ", \"{key}\": {}", r.metric(metric));
        }
        let _ = writeln!(out, "}}{}", if i + 1 < rows.len() { "," } else { "" });
    }
    out.push_str("  ],\n");
    let (c, s) = (&rows[0], &rows[1]);
    let _ = writeln!(
        out,
        "  \"scattered_vs_counter_x1000\": {{\"fill\": {}, \"service\": {}, \
         \"teardown\": {}, \"reuse\": {}, \"nvm_writes\": {}}}",
        ratio_x1000(s.fill_cycles, c.fill_cycles),
        ratio_x1000(s.service_cycles, c.service_cycles),
        ratio_x1000(s.teardown_cycles, c.teardown_cycles),
        ratio_x1000(s.reuse_cycles, c.reuse_cycles),
        ratio_x1000(s.metric("nvm.writes"), c.metric("nvm.writes")),
    );
    out.push_str("}\n");
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };

    let mut rows = Vec::new();
    for (protection, label) in [
        (ProtectionMode::Ctr, "counter"),
        (ProtectionMode::Scattered, "scattered"),
    ] {
        match run(protection, label) {
            Ok(row) => rows.push(row),
            Err(msg) => {
                eprintln!("protbench: {msg}");
                return ExitCode::FAILURE;
            }
        }
    }

    println!("Protection backends: tenant-teardown phase costs");
    println!(
        "  workload: {TENANTS} tenants x {PAGES_PER_TENANT} pages, \
         {DIRTY_LINES_PER_PAGE} dirty lines/page"
    );
    println!(
        "  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
        "backend", "fill_cyc", "service_cyc", "teardown_cyc", "reuse_cyc", "nvm_writes"
    );
    for r in &rows {
        println!(
            "  {:>10} {:>12} {:>12} {:>12} {:>12} {:>12}",
            r.backend,
            r.fill_cycles,
            r.service_cycles,
            r.teardown_cycles,
            r.reuse_cycles,
            r.metric("nvm.writes"),
        );
    }
    let (c, s) = (&rows[0], &rows[1]);
    for (name, num, den) in [
        ("fill", s.fill_cycles, c.fill_cycles),
        ("service", s.service_cycles, c.service_cycles),
        ("teardown", s.teardown_cycles, c.teardown_cycles),
        ("reuse", s.reuse_cycles, c.reuse_cycles),
    ] {
        let r = ratio_x1000(num, den);
        println!(
            "  scattered/counter {name:>8}: {}.{:03}x",
            r / 1000,
            r % 1000
        );
    }

    if let Some(path) = &opts.json {
        if let Err(e) = std::fs::write(path, to_json(&rows)) {
            eprintln!("protbench: writing {path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("  json report written to {path}");
    }
    println!("  PASS: both backends serviced, tore down, and zero-filled identically");
    ExitCode::SUCCESS
}
