//! `ssbench` — the end-to-end and per-layer benchmark of the Silent
//! Shredder reproduction. See README.md for the workloads, the metric
//! catalogue and how to compare two commits.
//!
//! ```text
//! ssbench --workload W [--seed S] [--seconds N] [--trace 0|1]
//!         [--scale full|smoke] [--spans FILE] [--json FILE]
//! ssbench [--seed S] ...          # every workload, one process each
//! ssbench compare BASE NEW        # judge NEW records against BASE
//! ```
//!
//! The last line of a workload run is one JSON object: `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics with
//! `--trace 0`, per-layer metrics with `--trace 1`).

// lint:allow-file(DET-002): argv selects the workload and seed; the workload is re-run as a child of the current executable. Neither enters simulated state.

#![forbid(unsafe_code)]

mod compare;
mod json;
mod metrics;
mod run;
mod spans;
mod stats;
mod workloads;

use std::io::Write as _;
use std::process::ExitCode;

use metrics::{end_to_end, ordered, per_layer, result_json};
use run::{Options, Outcome};
use workloads::{Scale, Workload};

/// Default seed of every generated input.
pub const DEFAULT_SEED: u64 = 0x5EED;

/// Default time budget of the timed reps, in seconds (the
/// `run_seconds` of `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 15.0;

const USAGE: &str = "usage: ssbench [--workload W] [--seed S] [--seconds N] [--trace 0|1] \
                     [--scale full|smoke] [--spans FILE] [--json FILE]\n       \
                     ssbench compare BASE NEW";

/// Parsed command line of a run.
#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    options: Options,
    spans: Option<String>,
    json: Option<String>,
}

fn parse_seed(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        options: Options {
            workload: Workload::GraphIngest,
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            trace: false,
            scale: Scale::Full,
        },
        spans: None,
        json: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                a.workload =
                    Some(Workload::from_name(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                let v = value()?;
                a.options.seed = parse_seed(v).ok_or_else(|| format!("bad seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                a.options.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("bad --seconds {v:?}"))?;
            }
            "--trace" => {
                a.options.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                };
            }
            "--scale" => {
                a.options.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("--scale takes full or smoke, not {v:?}")),
                };
            }
            "--spans" => a.spans = Some(value()?.clone()),
            "--json" => a.json = Some(value()?.clone()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(a)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        return match argv.as_slice() {
            [_, base, new] => compare_files(base, new),
            _ => usage_error("compare takes two files"),
        };
    }
    match parse_args(&argv) {
        Ok(a) => match a.workload {
            Some(w) => run_one(&a, w),
            None => run_all(&argv),
        },
        Err(e) => usage_error(&e),
    }
}

fn usage_error(msg: &str) -> ExitCode {
    eprintln!("ssbench: {msg}\n{USAGE}");
    ExitCode::from(2)
}

/// Runs every workload, each in a process of its own, one at a time.
fn run_all(argv: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return usage_error(&format!("cannot locate own executable: {e}")),
    };
    let mut ok = true;
    for w in Workload::ALL {
        let status = std::process::Command::new(&exe)
            .args(argv)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("ssbench: {} exited with {s}", w.name());
                ok = false;
            }
            Err(e) => {
                eprintln!("ssbench: cannot start {}: {e}", w.name());
                ok = false;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_one(a: &Args, w: Workload) -> ExitCode {
    let o = Options {
        workload: w,
        ..a.options
    };
    let outcome = match run::run(&o) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("ssbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let defs = if o.trace { per_layer() } else { end_to_end() };
    let metrics = match ordered(&defs, &outcome.values) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("ssbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let correct = outcome.failed == 0;
    println!(
        "ssbench {} seed={:#x} reps={} attempted={} failed={}: {}",
        w.name(),
        o.seed,
        outcome.reps,
        outcome.attempted,
        outcome.failed,
        w.why()
    );
    for (d, v) in &metrics {
        let better = d.better.label();
        println!(
            "  {:<32} {:>22} {:<7} {better} is better",
            d.name,
            metrics::number(*v),
            d.unit
        );
    }
    let line = result_json(correct, outcome.attempted, outcome.failed, &metrics);
    if let Err(e) = write_outputs(a, w, &o, &outcome, &line) {
        eprintln!("ssbench: {e}");
        return ExitCode::FAILURE;
    }
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Appends the run record to `--json` and dumps the traced rep's spans
/// to `--spans`.
fn write_outputs(
    a: &Args,
    w: Workload,
    o: &Options,
    outcome: &Outcome,
    line: &str,
) -> Result<(), String> {
    if let Some(path) = &a.json {
        let record = format!(
            "{{\"workload\": \"{}\", \"seed\": {}, \"trace\": {}, {}",
            w.name(),
            o.seed,
            u8::from(o.trace),
            &line[1..]
        );
        std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .and_then(|mut f| writeln!(f, "{record}"))
            .map_err(|e| format!("cannot append to {path}: {e}"))?;
    }
    if let (Some(path), Some(t)) = (&a.spans, &outcome.traced) {
        std::fs::File::create(path)
            .and_then(|mut f| t.write_jsonl(&mut f))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    Ok(())
}

fn compare_files(base: &str, new: &str) -> ExitCode {
    let load = |p: &str| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("cannot read {p}: {e}"))
            .and_then(|t| compare::parse_records(&t).map_err(|e| format!("{p}: {e}")))
    };
    let result = load(base).and_then(|b| compare::compare(&b, &load(new)?));
    match result {
        Ok(false) => ExitCode::SUCCESS,
        Ok(true) => {
            eprintln!("ssbench compare: regression");
            ExitCode::FAILURE
        }
        Err(e) => usage_error(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Values;

    fn sim(w: Workload, seed: u64, per_op: bool) -> Values {
        let rep = workloads::run_rep(w, seed, Scale::Smoke, per_op);
        assert_eq!(rep.failed, 0, "{} failed its checks", w.name());
        assert!(rep.ops > 0);
        rep.sim
    }

    #[test]
    fn smoke_runs_are_deterministic_and_seeded() {
        for w in Workload::ALL {
            let a = sim(w, DEFAULT_SEED, false);
            assert_eq!(
                a,
                sim(w, DEFAULT_SEED, false),
                "{}: reruns differ",
                w.name()
            );
            assert_eq!(
                a,
                sim(w, DEFAULT_SEED, true),
                "{}: tracing changed the simulation",
                w.name()
            );
            assert_ne!(
                a,
                sim(w, DEFAULT_SEED + 1, false),
                "{}: the seed reaches no generator",
                w.name()
            );
        }
    }

    #[test]
    fn every_catalogue_metric_is_measured() {
        for w in Workload::ALL {
            let o = Options {
                workload: w,
                seed: 7,
                seconds: 0.0,
                trace: true,
                scale: Scale::Smoke,
            };
            let out = run::run(&o).unwrap();
            assert_eq!(out.failed, 0, "{}", w.name());
            assert!(out.reps >= run::MIN_REPS);
            let values = &out.values;
            ordered(&end_to_end(), values).unwrap();
            ordered(&per_layer(), values).unwrap();
            let known: Vec<String> = end_to_end()
                .into_iter()
                .chain(per_layer())
                .map(|d| d.name)
                .collect();
            let extra: Vec<&String> = values.keys().filter(|k| !known.contains(k)).collect();
            assert!(extra.is_empty(), "{}: uncatalogued {extra:?}", w.name());
            // Every end-to-end metric, and the layers each workload is
            // meant to exercise, read nonzero.
            let exercised: &[&str] = match w {
                Workload::GraphIngest => &[
                    "cpu.instructions",
                    "os.major_faults",
                    "cache.l1.hits",
                    "core.shreds",
                    "core.zero_fill_reads",
                    "fig.write_savings_pct",
                    "fig.relative_ipc",
                    "span.first_touch_pct",
                ],
                Workload::RandRw => &["cache.l4.misses", "core.reads", "span.load_pct"],
                Workload::TenantChurn => &["core.shreds", "lat.shred.n", "span.shred_page_pct"],
                Workload::PersistAdr => &["core.recoveries", "span.recover_mut_pct"],
            };
            let names = end_to_end().into_iter().map(|d| d.name);
            for name in names.chain(exercised.iter().map(|s| s.to_string())) {
                assert!(values[&name] > 0.0, "{}: {name} is 0", w.name());
            }
        }
    }

    #[test]
    fn arguments_are_checked() {
        let args =
            |s: &str| parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>());
        let a = args("--workload rand_rw --seed 0x10 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Some(Workload::RandRw));
        assert_eq!(
            (a.options.seed, a.options.seconds, a.options.trace),
            (16, 3.0, true)
        );
        assert_eq!(args("--seed 42").unwrap().options.seed, 42);
        for bad in [
            "--workload nope",
            "--seed",
            "--trace 2",
            "--seconds -1",
            "--bogus",
            "--scale huge",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }
}
