//! Deterministic fault-injection sweep over the harness config matrix.
//!
//! ```text
//! faultsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!            [--metrics-json FILE] [--scattered] [--trace] [--list]
//! ```
//!
//! The default campaign runs seeds `0..N` (N = 32) against every
//! configuration in [`HarnessConfig::matrix`] and prints one tally line
//! per configuration. The report is a pure function of the seed set —
//! no wall-clock, no environment — so the same invocation is always
//! byte-identical. Exit status is nonzero iff any fault resolved as an
//! undetected corruption (or a final sweep failed).
//!
//! `--seed S` replays a single seed with full per-fault detail: the
//! line printed for a failing campaign seed can be rerun alone.
//!
//! `--json FILE` additionally writes the results to `FILE` as JSON
//! (campaign: per-config tallies; replay: per-fault records). The JSON
//! is hand-rolled with a fixed key order, so it is exactly as
//! deterministic as the text report, which stays byte-identical whether
//! or not `--json` is given.
//!
//! `--metrics-json FILE` writes the unified metrics registry (DESIGN.md
//! §10) to `FILE`: per config, counters summed over every seed in the
//! campaign (or the single replayed seed). Byte-identical across runs,
//! and collecting it never changes the text or `--json` reports.
//!
//! `--scattered` swaps the matrix for the scattered two-share rows
//! ([`HarnessConfig::scattered_matrix`]): every counter-persistence
//! flavor of the `Scattered` protection mode, with and
//! without integrity, plus a healing-pressure row.
//!
//! `--trace` (replay mode only) enables the controller's event trace
//! and prints the retained records after each per-fault report. Event
//! timestamps are simulated cycles, so the stream is as deterministic
//! as everything else.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use ss_harness::{run_plan_full, HarnessConfig, PlanReport, Tally};
use ss_trace::MetricsRegistry;

/// Events retained per run under `--trace`. Large enough to keep every
/// event of a typical plan run; older events are dropped (and counted)
/// past this depth.
const TRACE_DEPTH: usize = 65536;

struct Options {
    seeds: u64,
    replay: Option<u64>,
    config: Option<String>,
    json: Option<String>,
    metrics_json: Option<String>,
    scattered: bool,
    trace: bool,
    list: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 32,
        replay: None,
        config: None,
        json: None,
        metrics_json: None,
        scattered: false,
        trace: false,
        list: false,
    };
    let mut args = env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => {
                opts.seeds = args
                    .next()
                    .ok_or("--seeds needs a number")?
                    .parse()
                    .map_err(|e| format!("--seeds: {e}"))?;
            }
            "--seed" => {
                opts.replay = Some(
                    args.next()
                        .ok_or("--seed needs a number")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                );
            }
            "--config" => {
                opts.config = Some(args.next().ok_or("--config needs a label")?);
            }
            "--json" => {
                opts.json = Some(args.next().ok_or("--json needs a file path")?);
            }
            "--metrics-json" => {
                opts.metrics_json = Some(args.next().ok_or("--metrics-json needs a file path")?);
            }
            "--scattered" => opts.scattered = true,
            "--trace" => opts.trace = true,
            "--list" => opts.list = true,
            "--help" | "-h" => {
                return Err(
                    "usage: faultsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
                     [--metrics-json FILE] [--scattered] [--trace] [--list]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.trace && opts.replay.is_none() {
        return Err("--trace needs --seed S (replay mode)".to_string());
    }
    Ok(opts)
}

/// Escapes `s` for embedding in a JSON string literal.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// A tally as a JSON object (fixed key order, rendered by ss-harness).
fn tally_json(t: &Tally) -> String {
    t.to_json()
}

/// Campaign results as a JSON document.
fn campaign_json(
    seeds: u64,
    per_config: &[(String, Tally)],
    grand: &Tally,
    failures: &[(String, u64)],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"seeds\": {seeds},");
    out.push_str("  \"configs\": [\n");
    for (i, (label, tally)) in per_config.iter().enumerate() {
        let comma = if i + 1 < per_config.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"label\":\"{}\",\"tally\":{}}}{comma}",
            json_escape(label),
            tally_json(tally)
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"total\": {},", tally_json(grand));
    let _ = writeln!(out, "  \"faults_injected\": {},", grand.total());
    out.push_str("  \"failures\": [");
    for (i, (label, seed)) in failures.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "{{\"config\":\"{}\",\"seed\":{seed}}}",
            json_escape(label)
        );
    }
    out.push_str("],\n");
    let _ = writeln!(
        out,
        "  \"clean\": {}",
        grand.corrupted == 0 && failures.is_empty()
    );
    out.push_str("}\n");
    out
}

/// Replay results (full per-fault records) as a JSON document. Each
/// config object is `PlanReport::to_json` verbatim, so the replay file
/// and the determinism test compare the exact same bytes.
fn replay_json(seed: u64, reports: &[PlanReport]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"seed\": {seed},");
    out.push_str("  \"configs\": [\n");
    for (i, report) in reports.iter().enumerate() {
        let comma = if i + 1 < reports.len() { "," } else { "" };
        let _ = writeln!(out, "    {}{comma}", report.to_json());
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"clean\": {}", reports.iter().all(|r| r.clean()));
    out.push_str("}\n");
    out
}

/// Per-config metrics as a JSON document (`header` is the leading
/// `"key": value` line — seed count or replayed seed).
fn metrics_json(header: &str, per_config: &[(String, MetricsRegistry)]) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  {header},");
    out.push_str("  \"configs\": [\n");
    for (i, (label, reg)) in per_config.iter().enumerate() {
        let comma = if i + 1 < per_config.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"label\":\"{}\",\"metrics\":{}}}{comma}",
            json_escape(label),
            reg.to_json()
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Writes `json` to `path`, mapping failure to a process exit.
fn write_json(path: &str, json: &str) -> Result<(), String> {
    std::fs::write(path, json).map_err(|e| format!("cannot write {path}: {e}"))
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let pool = if opts.scattered {
        HarnessConfig::scattered_matrix()
    } else {
        HarnessConfig::matrix()
    };
    let matrix: Vec<HarnessConfig> = pool
        .into_iter()
        .filter(|c| opts.config.as_deref().is_none_or(|l| c.label == l))
        .collect();
    if matrix.is_empty() {
        eprintln!(
            "no config labelled {:?}; try --list",
            opts.config.as_deref().unwrap_or("")
        );
        return ExitCode::FAILURE;
    }
    if opts.list {
        for cfg in &matrix {
            println!("{}", cfg.label);
        }
        return ExitCode::SUCCESS;
    }

    // Replay mode: one seed, full per-fault detail.
    if let Some(seed) = opts.replay {
        let depth = opts.trace.then_some(TRACE_DEPTH);
        let mut clean = true;
        let mut reports = Vec::with_capacity(matrix.len());
        let mut metrics: Vec<(String, MetricsRegistry)> = Vec::new();
        for cfg in &matrix {
            let run = run_plan_full(cfg, seed, depth);
            clean &= run.report.clean();
            print!("{}", run.report);
            if opts.trace {
                let dropped = run.metrics.get("trace.dropped").unwrap_or(0);
                println!("  trace: {} event(s), {dropped} dropped", run.trace.len());
                for rec in &run.trace {
                    println!("    {rec}");
                }
            }
            metrics.push((cfg.label.clone(), run.metrics));
            reports.push(run.report);
        }
        if let Some(path) = &opts.json {
            if let Err(e) = write_json(path, &replay_json(seed, &reports)) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        if let Some(path) = &opts.metrics_json {
            let doc = metrics_json(&format!("\"seed\": {seed}"), &metrics);
            if let Err(e) = write_json(path, &doc) {
                eprintln!("{e}");
                return ExitCode::FAILURE;
            }
        }
        return if clean {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Campaign mode: seeds 0..N against every config.
    println!(
        "faultsweep: {} seed(s) x {} config(s)",
        opts.seeds,
        matrix.len()
    );
    let mut grand = Tally::default();
    let mut failures: Vec<(String, u64)> = Vec::new();
    let mut per_config: Vec<(String, Tally)> = Vec::new();
    let mut per_config_metrics: Vec<(String, MetricsRegistry)> = Vec::new();
    for cfg in &matrix {
        let mut tally = Tally::default();
        let mut summed = MetricsRegistry::new();
        for seed in 0..opts.seeds {
            let run = run_plan_full(cfg, seed, None);
            tally.merge(run.report.tally());
            if !run.report.clean() {
                failures.push((cfg.label.clone(), seed));
            }
            if opts.metrics_json.is_some() {
                summed.merge(&run.metrics);
            }
        }
        println!("  {:<18} {}", cfg.label, tally);
        per_config.push((cfg.label.clone(), tally));
        per_config_metrics.push((cfg.label.clone(), summed));
        grand.merge(tally);
    }
    println!("  {:<18} {}", "total", grand);
    println!("faults injected: {}", grand.total());
    if let Some(path) = &opts.json {
        let json = campaign_json(opts.seeds, &per_config, &grand, &failures);
        if let Err(e) = write_json(path, &json) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.metrics_json {
        let doc = metrics_json(&format!("\"seeds\": {}", opts.seeds), &per_config_metrics);
        if let Err(e) = write_json(path, &doc) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if grand.corrupted == 0 && failures.is_empty() {
        println!("result: CLEAN (zero undetected corruptions)");
        ExitCode::SUCCESS
    } else {
        for (label, seed) in &failures {
            println!("replay with: faultsweep --config {label} --seed {seed}");
        }
        println!("result: FAILED ({} corrupted)", grand.corrupted);
        ExitCode::FAILURE
    }
}
