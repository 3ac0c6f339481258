//! Deterministic adversary sweep over the attack config matrix.
//!
//! ```text
//! attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE]
//!             [--scattered] [--weakened] [--list]
//! ```
//!
//! The security analog of `faultsweep`: every attack script in
//! [`AttackKind::ALL`] (shred-then-steal, remap-probe, rollback-replay,
//! scrub-race) runs against every configuration in
//! [`AttackConfig::matrix`] — plain and sharded controllers, battery-
//! backed and write-through counters, write-queued and healing-pressure
//! variants — for seeds `0..N` (N = 32). Outcomes are classified
//! `defended`/`detected`/`skipped`/`LEAKED`; the exit status is nonzero
//! iff anything leaked. The report is a pure function of the seed set —
//! no wall-clock, no environment — so the same invocation is always
//! byte-identical.
//!
//! `--seed S` replays a single seed with the full per-attack step
//! scripts, so a failing campaign cell can be rerun alone.
//!
//! `--json FILE` additionally writes the results to `FILE` as JSON
//! (hand-rolled, fixed key order — exactly as deterministic as the text
//! report, which stays byte-identical whether or not `--json` is
//! given).
//!
//! `--scattered` swaps the matrix for the scattered two-share rows
//! ([`AttackConfig::scattered_matrix`]): the `Scattered` protection
//! mode under battery-backed and write-through liveness
//! metadata, healing pressure, and a 4-shard controller. Stolen-DIMM
//! attacks against shredded pages must classify `defended` there too.
//!
//! `--weakened` swaps the matrix for the deliberately broken
//! [`AttackConfig::weakened`] configuration (no Merkle tree). Its
//! rollback-replay attack *leaks*, so the sweep must exit red — CI runs
//! this to prove the gate actually fires.

use std::env;
use std::fmt::Write as _;
use std::process::ExitCode;

use ss_harness::{run_attacks, AttackConfig, AttackTally};

struct Options {
    seeds: u64,
    replay: Option<u64>,
    config: Option<String>,
    json: Option<String>,
    scattered: bool,
    weakened: bool,
    list: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 32,
        replay: None,
        config: None,
        json: None,
        scattered: false,
        weakened: false,
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
            "--scattered" => opts.scattered = true,
            "--weakened" => opts.weakened = true,
            "--list" => opts.list = true,
            "--help" | "-h" => {
                return Err(
                    "usage: attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
                     [--scattered] [--weakened] [--list]"
                        .to_string(),
                );
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.seeds == 0 {
        return Err("--seeds must be at least 1".to_string());
    }
    if opts.scattered && opts.weakened {
        return Err("--scattered and --weakened are mutually exclusive".to_string());
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

/// Campaign results as a JSON document.
fn campaign_json(
    seeds: u64,
    per_config: &[(String, AttackTally)],
    grand: &AttackTally,
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
            tally.to_json()
        );
    }
    out.push_str("  ],\n");
    let _ = writeln!(out, "  \"total\": {},", grand.to_json());
    let _ = writeln!(out, "  \"attacks_run\": {},", grand.total());
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
    let _ = writeln!(out, "  \"clean\": {}", grand.leaked == 0);
    out.push_str("}\n");
    out
}

/// Replay results (full per-attack records) as a JSON document. Each
/// config object is `AttackReport::to_json` verbatim, so the replay
/// file and the determinism test compare the exact same bytes.
fn replay_json(seed: u64, reports: &[ss_harness::AttackReport]) -> String {
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
    let pool = if opts.weakened {
        vec![AttackConfig::weakened()]
    } else if opts.scattered {
        AttackConfig::scattered_matrix()
    } else {
        AttackConfig::matrix()
    };
    let matrix: Vec<AttackConfig> = pool
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

    // Replay mode: one seed, full per-attack step scripts.
    if let Some(seed) = opts.replay {
        let mut clean = true;
        let mut reports = Vec::with_capacity(matrix.len());
        for cfg in &matrix {
            let report = run_attacks(cfg, seed);
            clean &= report.clean();
            print!("{report}");
            reports.push(report);
        }
        if let Some(path) = &opts.json {
            if let Err(e) = write_json(path, &replay_json(seed, &reports)) {
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
        "attacksweep: {} seed(s) x {} config(s)",
        opts.seeds,
        matrix.len()
    );
    let mut grand = AttackTally::default();
    let mut failures: Vec<(String, u64)> = Vec::new();
    let mut per_config: Vec<(String, AttackTally)> = Vec::new();
    for cfg in &matrix {
        let mut tally = AttackTally::default();
        for seed in 0..opts.seeds {
            let report = run_attacks(cfg, seed);
            tally.merge(report.tally());
            if !report.clean() {
                failures.push((cfg.label.clone(), seed));
            }
        }
        println!("  {:<18} {}", cfg.label, tally);
        per_config.push((cfg.label.clone(), tally));
        grand.merge(tally);
    }
    println!("  {:<18} {}", "total", grand);
    println!("attacks run: {}", grand.total());
    if let Some(path) = &opts.json {
        let json = campaign_json(opts.seeds, &per_config, &grand, &failures);
        if let Err(e) = write_json(path, &json) {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    }
    if grand.leaked == 0 {
        println!("result: CLEAN (zero leaked outcomes)");
        ExitCode::SUCCESS
    } else {
        for (label, seed) in &failures {
            println!("replay with: attacksweep --config {label} --seed {seed}");
        }
        println!("result: FAILED ({} leaked)", grand.leaked);
        ExitCode::FAILURE
    }
}
