//! One sweep program for every campaign binary.
//!
//! `faultsweep`, `attacksweep` and `crashsweep` (in `crates/bench`) are
//! one program over three engines: parse argv, pick a config matrix,
//! then either run seeds `0..N` against every config (the *campaign*:
//! one tally line per config) or replay one seed with full per-record
//! detail, optionally write JSON, and exit nonzero iff any run failed
//! its gate. [`main`] is that program. A [`Campaign`] supplies the
//! engine: its matrix of [`SweepConfig`]s, `run(cfg, seed)`, its record
//! type (whose [`Report`] and [`Tally`] are written once, in
//! [`crate::report`]), and the constants the committed goldens pin
//! (binary name, default seed count, label column width, verdict words,
//! optional flags). Every engine runs its config on the one machine
//! [`SweepConfig::machine`] builds.
//!
//! `--seed S` replays one seed with full per-record detail, so a failing
//! campaign cell can be rerun alone. `--json FILE` also writes the
//! results as JSON (campaign: per-config tallies; replay: per-run
//! reports), hand-rolled with a fixed key order; the text report is the
//! same with or without it. `--metrics-json` and `--trace` exist only
//! for campaigns with [`Campaign::METRICS`]; `--weakened` only for
//! campaigns with a [`Campaign::weakened`] config. Argv is passed in,
//! so ss-harness never reads the environment: every report is a pure
//! function of the seed set, so the same invocation is always
//! byte-identical.

use std::process::ExitCode;

use ss_core::{ControllerConfig, ShardedConfig, ShardedController, WriteQueueConfig};
use ss_trace::{MetricsRegistry, TraceRecord};

use crate::report::{json_doc, json_escape, json_key, Outcome, Record, Report, Tally};

/// Events retained per run under `--trace`. Large enough to keep every
/// event of a typical plan run; older events are dropped (and counted)
/// past this depth.
const TRACE_DEPTH: usize = 65536;

/// Everything one `(config, seed)` run produces: the report, plus the
/// final metrics snapshot and retained trace records of campaigns that
/// observe them (empty otherwise).
#[derive(Debug, Clone)]
pub struct Artifacts<R> {
    /// The run's report.
    pub report: R,
    /// Final metrics snapshot under the stable dotted names.
    pub metrics: MetricsRegistry,
    /// Retained trace records, oldest first; empty when tracing was
    /// disabled.
    pub trace: Vec<TraceRecord>,
}

impl<R> From<R> for Artifacts<R> {
    fn from(report: R) -> Self {
        Artifacts {
            report,
            metrics: MetricsRegistry::new(),
            trace: Vec::new(),
        }
    }
}

/// One named machine configuration of any sweep.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Stable label used in reports (e.g. `ctr-bat-mt-x4`).
    pub label: String,
    /// The controller configuration (the *total* machine when sharded).
    pub controller: ControllerConfig,
    /// Channel count of the [`ShardedController`] under test, over the
    /// round-robin interleave (1 is the plain controller, byte for
    /// byte). Sweeps target pages `1..=`[`PAGES`](crate::plan::PAGES),
    /// which covers every shard while `shards <= PAGES`.
    pub shards: u32,
    /// Whether reboot runs the recovery protocol
    /// ([`ss_core::MemoryController::recover_mut`]) on every shard. Only
    /// the weakened crash config turns it off, to prove the crash sweep
    /// catches the resulting corruption.
    pub recovery: bool,
}

impl SweepConfig {
    /// Wraps a controller config as a single-channel target that
    /// recovers at reboot.
    pub fn new(label: impl Into<String>, controller: ControllerConfig) -> Self {
        SweepConfig {
            label: label.into(),
            controller,
            shards: 1,
            recovery: true,
        }
    }

    /// Wraps a controller config as an `n`-channel sharded target.
    pub fn sharded(label: impl Into<String>, controller: ControllerConfig, shards: u32) -> Self {
        SweepConfig {
            shards,
            ..SweepConfig::new(label, controller)
        }
    }

    /// The small write queue of every `-wq` matrix entry (fault, attack
    /// and crash sweeps): shallow enough that crash-at-depth is
    /// reachable and a drain is a handful of persist steps, deep enough
    /// to coalesce.
    pub fn small_queue() -> WriteQueueConfig {
        WriteQueueConfig {
            capacity: 8,
            drain_low: 2,
            drain_high: 6,
        }
    }

    /// Builds the machine under test, powered on.
    ///
    /// # Errors
    ///
    /// [`ss_common::Error::InvalidConfig`] when the configuration does
    /// not build.
    pub fn machine(&self) -> ss_common::Result<ShardedController> {
        ShardedController::new(ShardedConfig::new(self.shards, self.controller.clone()))
    }
}

/// The scattered two-share rows of `C`'s matrix.
#[cfg(test)]
pub(crate) fn scattered_rows<C: Campaign>() -> Vec<SweepConfig> {
    C::matrix()
        .into_iter()
        .filter(|c| c.controller.protection == ss_core::ProtectionMode::Scattered)
        .collect()
}

/// One sweep engine behind the shared [`main`].
pub trait Campaign {
    /// One classified record of a run.
    type Record: Record;

    /// Binary name: usage line, campaign header and replay hints.
    const NAME: &'static str;
    /// Seeds a campaign runs without `--seeds`.
    const DEFAULT_SEEDS: u64;
    /// Width of the label column in campaign tally lines.
    const LABEL_WIDTH: usize;
    /// What the grand total counts (`faults injected`); its JSON key is
    /// the same words joined by `_`.
    const TOTAL_NOUN: &'static str;
    /// The parenthesis of a clean verdict.
    const CLEAN_NOTE: &'static str;
    /// Whether runs observe metrics and traces (`--metrics-json`,
    /// `--trace`).
    const METRICS: bool = false;

    /// The config matrix.
    fn matrix() -> Vec<SweepConfig>;
    /// The deliberately broken config behind `--weakened`, whose runs
    /// must fail the gate; `None` when the campaign has no such flag.
    fn weakened() -> Option<SweepConfig> {
        None
    }
    /// Runs one `(config, seed)` cell, retaining the last `trace_depth`
    /// trace events when given.
    fn run(
        cfg: &SweepConfig,
        seed: u64,
        trace_depth: Option<usize>,
    ) -> Artifacts<Report<Self::Record>>;
}

type OutcomeOf<C> = <<C as Campaign>::Record as Record>::Outcome;

/// The parsed command line.
#[derive(Debug, Default, PartialEq, Eq)]
struct Options {
    seeds: u64,
    replay: Option<u64>,
    config: Option<String>,
    json: Option<String>,
    metrics_json: Option<String>,
    weakened: bool,
    trace: bool,
    list: bool,
}

/// Runs campaign `C` on `args` (argv without the program name) and maps
/// the verdict to the exit status: nonzero on a usage or I/O error and
/// whenever any run failed its gate.
pub fn main<C: Campaign>(args: impl IntoIterator<Item = String>) -> ExitCode {
    match parse::<C>(args).and_then(|opts| drive::<C>(&opts)) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

fn usage<C: Campaign>() -> String {
    let (metrics, trace) = if C::METRICS {
        (" [--metrics-json FILE]", " [--trace]")
    } else {
        ("", "")
    };
    let weakened = if C::weakened().is_some() {
        " [--weakened]"
    } else {
        ""
    };
    format!(
        "usage: {} [--seeds N] [--seed S] [--config LABEL] [--json FILE]{metrics}\
         {trace}{weakened} [--list]",
        C::NAME
    )
}

fn number(value: Option<String>, flag: &str) -> Result<u64, String> {
    value
        .ok_or(format!("{flag} needs a number"))?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

fn parse<C: Campaign>(args: impl IntoIterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        seeds: C::DEFAULT_SEEDS,
        ..Options::default()
    };
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--seeds" => opts.seeds = number(args.next(), "--seeds")?,
            "--seed" => opts.replay = Some(number(args.next(), "--seed")?),
            "--config" => opts.config = Some(args.next().ok_or("--config needs a label")?),
            "--json" => opts.json = Some(args.next().ok_or("--json needs a file path")?),
            "--metrics-json" if C::METRICS => {
                opts.metrics_json = Some(args.next().ok_or("--metrics-json needs a file path")?);
            }
            "--trace" if C::METRICS => opts.trace = true,
            "--weakened" if C::weakened().is_some() => opts.weakened = true,
            "--list" => opts.list = true,
            "--help" | "-h" => return Err(usage::<C>()),
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

/// Selects the matrix and runs the campaign or the replay. `Ok` carries
/// the verdict; `Err` a message for stderr.
fn drive<C: Campaign>(opts: &Options) -> Result<bool, String> {
    let pool = if opts.weakened {
        C::weakened().into_iter().collect()
    } else {
        C::matrix()
    };
    let matrix: Vec<SweepConfig> = pool
        .into_iter()
        .filter(|c| opts.config.as_deref().is_none_or(|l| c.label == l))
        .collect();
    if matrix.is_empty() {
        return Err(format!(
            "no config labelled {:?}; try --list",
            opts.config.as_deref().unwrap_or("")
        ));
    }
    if opts.list {
        for cfg in &matrix {
            println!("{}", cfg.label);
        }
        return Ok(true);
    }
    match opts.replay {
        Some(seed) => replay::<C>(opts, &matrix, seed),
        None => campaign::<C>(opts, &matrix),
    }
}

/// Replay mode: one seed, full per-record detail (plus the trace under
/// `--trace`).
fn replay<C: Campaign>(opts: &Options, matrix: &[SweepConfig], seed: u64) -> Result<bool, String> {
    let depth = opts.trace.then_some(TRACE_DEPTH);
    let mut reports = Vec::with_capacity(matrix.len());
    let mut metrics = Vec::with_capacity(matrix.len());
    for cfg in matrix {
        let run = C::run(cfg, seed, depth);
        print!("{}", run.report);
        if opts.trace {
            let dropped = run.metrics.get("trace.dropped").unwrap_or(0);
            println!("  trace: {} event(s), {dropped} dropped", run.trace.len());
            for rec in &run.trace {
                println!("    {rec}");
            }
        }
        metrics.push(row(&cfg.label, "metrics", &run.metrics.to_json()));
        reports.push(run.report);
    }
    let clean = reports.iter().all(Report::clean);
    let header = [format!("\"seed\": {seed}")];
    write_docs(opts, &header, &metrics, || {
        let rows: Vec<String> = reports.iter().map(Report::to_json).collect();
        json_doc(&header, "configs", &rows, &[format!("\"clean\": {clean}")])
    })?;
    Ok(clean)
}

/// Campaign mode: seeds `0..N` against every config, one tally line
/// each, then the total and the verdict.
fn campaign<C: Campaign>(opts: &Options, matrix: &[SweepConfig]) -> Result<bool, String> {
    println!(
        "{}: {} seed(s) x {} config(s)",
        C::NAME,
        opts.seeds,
        matrix.len()
    );
    let width = C::LABEL_WIDTH;
    let mut grand = Tally::<OutcomeOf<C>>::default();
    let mut failures: Vec<(&str, u64)> = Vec::new();
    let mut rows = Vec::with_capacity(matrix.len());
    let mut metrics = Vec::with_capacity(matrix.len());
    for cfg in matrix {
        let label = cfg.label.as_str();
        let mut tally = Tally::default();
        let mut summed = MetricsRegistry::new();
        for seed in 0..opts.seeds {
            let run = C::run(cfg, seed, None);
            tally.merge(run.report.tally());
            if !run.report.clean() {
                failures.push((label, seed));
            }
            if opts.metrics_json.is_some() {
                summed.merge(&run.metrics);
            }
        }
        println!("  {label:<width$} {tally}");
        rows.push(row(label, "tally", &tally.to_json()));
        metrics.push(row(label, "metrics", &summed.to_json()));
        grand.merge(tally);
    }
    println!("  {:<width$} {grand}", "total");
    println!("{}: {}", C::TOTAL_NOUN, grand.total());
    let clean = failures.is_empty();
    let header = [format!("\"seeds\": {}", opts.seeds)];
    write_docs(opts, &header, &metrics, || {
        let failed: Vec<String> = failures
            .iter()
            .map(|(label, seed)| {
                format!("{{\"config\":\"{}\",\"seed\":{seed}}}", json_escape(label))
            })
            .collect();
        let tail = [
            format!("\"total\": {}", grand.to_json()),
            format!("\"{}\": {}", C::TOTAL_NOUN.replace(' ', "_"), grand.total()),
            format!("\"failures\": [{}]", failed.join(",")),
            format!("\"clean\": {clean}"),
        ];
        json_doc(&header, "configs", &rows, &tail)
    })?;
    if clean {
        println!("result: CLEAN ({})", C::CLEAN_NOTE);
    } else {
        for (label, seed) in &failures {
            println!("replay with: {} --config {label} --seed {seed}", C::NAME);
        }
        let noun = json_key(OutcomeOf::<C>::FAILED);
        println!("result: FAILED ({} {noun})", grand.failed());
    }
    Ok(clean)
}

/// One `configs` row: the config's label and its `key` object.
fn row(label: &str, key: &str, value: &str) -> String {
    format!("{{\"label\":\"{}\",\"{key}\":{value}}}", json_escape(label))
}

/// Writes the `--json` document (built only when asked for) and the
/// `--metrics-json` document of `metrics` rows.
fn write_docs(
    opts: &Options,
    header: &[String],
    metrics: &[String],
    json: impl FnOnce() -> String,
) -> Result<(), String> {
    let write = |path: &str, doc: String| {
        std::fs::write(path, doc).map_err(|e| format!("cannot write {path}: {e}"))
    };
    if let Some(path) = &opts.json {
        write(path, json())?;
    }
    if let Some(path) = &opts.metrics_json {
        write(path, json_doc(header, "configs", metrics, &[]))?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::plan::PAGES;
    use crate::{AttackSweep, CrashSweep, FaultSweep};

    /// `C`'s matrix has unique labels and recovers at every reboot; each
    /// of its configs, and its weakened one, builds a machine whose every
    /// shard the sweeps' target pages reach.
    fn matrix_is_sound<C: Campaign>() {
        let matrix = C::matrix();
        let labels: BTreeSet<&str> = matrix.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels.len(),
            matrix.len(),
            "{} labels must be unique",
            C::NAME
        );
        assert!(
            matrix.iter().all(|c| c.recovery),
            "{} skips recovery",
            C::NAME
        );
        for cfg in matrix.iter().chain(&C::weakened()) {
            cfg.machine()
                .unwrap_or_else(|e| panic!("{}: {e}", cfg.label));
            assert!(
                PAGES >= u64::from(cfg.shards),
                "{}: pages miss a shard",
                cfg.label
            );
        }
    }

    #[test]
    fn every_matrix_is_sound() {
        matrix_is_sound::<FaultSweep>();
        matrix_is_sound::<AttackSweep>();
        matrix_is_sound::<CrashSweep>();
    }

    /// Two runs of each of `C`'s first `configs` configs at `seed` render
    /// byte-identical text and JSON: CI compares sweep outputs with
    /// `cmp`.
    fn runs_are_byte_identical<C: Campaign>(configs: usize, seed: u64) {
        for cfg in C::matrix().iter().take(configs) {
            let a = C::run(cfg, seed, None).report;
            let b = C::run(cfg, seed, None).report;
            assert_eq!(format!("{a}"), format!("{b}"), "{} text", cfg.label);
            assert_eq!(a.to_json(), b.to_json(), "{} JSON", cfg.label);
        }
    }

    #[test]
    fn same_seed_byte_identical_reports() {
        runs_are_byte_identical::<FaultSweep>(4, 11);
        runs_are_byte_identical::<AttackSweep>(2, 7);
        runs_are_byte_identical::<CrashSweep>(2, 5);
    }

    fn parse_flags<C: Campaign>(flags: &[&str]) -> Result<Options, String> {
        parse::<C>(flags.iter().map(|f| f.to_string()))
    }

    fn rejects<C: Campaign>(flags: &[&str], message: &str) {
        let got = parse_flags::<C>(flags);
        assert_eq!(got, Err(message.to_string()), "{} {flags:?}", C::NAME);
    }

    /// Parses every flag `C` accepts, with a value where one is taken.
    fn accepted<C: Campaign>() -> Options {
        let mut flags = vec!["--seeds", "3", "--seed", "1", "--config", "x"];
        flags.extend(["--json", "out.json", "--list"]);
        if C::METRICS {
            flags.extend(["--metrics-json", "m.json", "--trace"]);
        } else {
            flags.push("--weakened");
        }
        parse_flags::<C>(&flags).expect("every accepted flag parses")
    }

    #[test]
    fn each_campaign_takes_exactly_its_flags() {
        let common = || Options {
            seeds: 3,
            replay: Some(1),
            config: Some("x".into()),
            json: Some("out.json".into()),
            list: true,
            ..Options::default()
        };
        let observed = Options {
            metrics_json: Some("m.json".into()),
            trace: true,
            ..common()
        };
        assert_eq!(accepted::<FaultSweep>(), observed);
        rejects::<FaultSweep>(&["--weakened"], "unknown argument \"--weakened\"");
        let weakened = Options {
            weakened: true,
            ..common()
        };
        assert_eq!(accepted::<AttackSweep>(), weakened);
        assert_eq!(accepted::<CrashSweep>(), weakened);
        for flag in ["--metrics-json", "--trace"] {
            let unknown = format!("unknown argument {flag:?}");
            rejects::<AttackSweep>(&[flag, "m.json"], &unknown);
            rejects::<CrashSweep>(&[flag, "m.json"], &unknown);
        }
    }

    #[test]
    fn defaults_and_usage_lines_are_pinned() {
        assert_eq!(parse_flags::<FaultSweep>(&[]).map(|o| o.seeds), Ok(32));
        assert_eq!(parse_flags::<AttackSweep>(&[]).map(|o| o.seeds), Ok(32));
        assert_eq!(parse_flags::<CrashSweep>(&[]).map(|o| o.seeds), Ok(8));
        rejects::<FaultSweep>(
            &["--help"],
            "usage: faultsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
             [--metrics-json FILE] [--trace] [--list]",
        );
        rejects::<AttackSweep>(
            &["-h"],
            "usage: attacksweep [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
             [--weakened] [--list]",
        );
        rejects::<CrashSweep>(
            &["--help"],
            "usage: crashsweep [--seeds N] [--seed S] [--config LABEL] [--json FILE] \
             [--weakened] [--list]",
        );
    }

    fn common_usage_errors<C: Campaign>() {
        for (flags, message) in [
            (&["--seeds", "0"][..], "--seeds must be at least 1"),
            (
                &["--seeds", "abc"],
                "--seeds: invalid digit found in string",
            ),
            (&["--seeds"], "--seeds needs a number"),
            (&["--seed"], "--seed needs a number"),
            (&["--config"], "--config needs a label"),
            (&["--json"], "--json needs a file path"),
            (&["--bogus"], "unknown argument \"--bogus\""),
            (&["--scattered"], "unknown argument \"--scattered\""),
        ] {
            rejects::<C>(flags, message);
        }
        let opts = parse_flags::<C>(&["--config", "nope"]).expect("parses");
        let unknown = "no config labelled \"nope\"; try --list".to_string();
        assert_eq!(drive::<C>(&opts), Err(unknown), "{}", C::NAME);
    }

    #[test]
    fn usage_errors_are_pinned() {
        common_usage_errors::<FaultSweep>();
        common_usage_errors::<AttackSweep>();
        common_usage_errors::<CrashSweep>();
        rejects::<FaultSweep>(&["--trace"], "--trace needs --seed S (replay mode)");
        rejects::<FaultSweep>(&["--metrics-json"], "--metrics-json needs a file path");
    }
}
