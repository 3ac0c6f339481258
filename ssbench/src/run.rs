//! One workload, in one process: a discarded warm-up rep, timed reps
//! with per-op tracing off until the time budget is spent, and — with
//! `--trace 1` — one more rep with per-op spans, which gives the
//! per-layer numbers.

use crate::metrics::{Values, PHASE_SPANS};
use crate::spans::{OpKind, Stopwatch, Tracer};
use crate::stats::{highest_supported, median, nearest_rank};
use crate::workloads::{run_rep, Rep, Scale, Workload};

/// Timed reps run even when the budget is spent sooner, so every host
/// median rests on at least this many samples.
pub const MIN_REPS: usize = 3;

/// What to run.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// The workload.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Wall-clock budget of the timed reps, set-up included.
    pub seconds: f64,
    /// Whether to run the traced rep.
    pub trace: bool,
    /// Rep size.
    pub scale: Scale,
}

/// What a run measured.
#[derive(Debug)]
pub struct Outcome {
    /// Operations attempted over every rep, warm-up and traced included.
    pub attempted: u64,
    /// Failed checks and `Err` returns over every rep, plus reps whose
    /// simulated metrics differ from the warm-up's.
    pub failed: u64,
    /// Timed reps.
    pub reps: usize,
    /// Every metric measured: end-to-end, and per-layer when traced.
    pub values: Values,
    /// The traced rep's spans.
    pub traced: Option<Tracer>,
}

/// Runs `o`.
///
/// # Errors
///
/// When the peak resident set size cannot be read.
pub fn run(o: &Options) -> Result<Outcome, String> {
    let rep = || run_rep(o.workload, o.seed, o.scale, false);
    let warm = rep();
    let mut out = Outcome {
        attempted: warm.ops,
        failed: warm.failed,
        reps: 0,
        values: warm.sim.clone(),
        traced: None,
    };
    let mut setup = Vec::new();
    let mut chunks = Vec::new();
    let budget = Stopwatch::start();
    while setup.len() < MIN_REPS || budget.secs() < o.seconds {
        let r = rep();
        out.account(&r, &warm);
        setup.push(r.tracer.secs("setup"));
        chunks.push(r.tracer.chunks());
    }
    out.reps = setup.len();
    let quiet = quiet_chunks(&chunks);
    let v = &mut out.values;
    v.insert("setup_s".into(), median(&setup).unwrap_or(0.0));
    let quiet_s = quiet.iter().sum::<u64>() as f64 / 1e9;
    v.insert("ops_per_s".into(), warm.ops as f64 / quiet_s);
    v.insert("peak_rss_mib".into(), peak_rss_mib()?);

    if o.trace {
        let r = run_rep(o.workload, o.seed, o.scale, true);
        out.account(&r, &warm);
        per_layer_host(&r.tracer, &quiet, &mut out.values);
        out.traced = Some(r.tracer);
    }
    warn_unsupported_tails(&out.values);
    Ok(out)
}

impl Outcome {
    /// Counts `r`'s operations and failures. Every rep of one seed must
    /// repeat the warm-up's simulation exactly, down to its chunking.
    fn account(&mut self, r: &Rep, warm: &Rep) {
        self.attempted += r.ops;
        self.failed += r.failed;
        let reference = &warm.sim;
        if let Some((k, v)) = r.sim.iter().find(|(k, v)| reference.get(*k) != Some(v)) {
            eprintln!(
                "ssbench: simulated metric {k} changed between reps of one seed: {v} vs {:?}",
                reference.get(k)
            );
            self.failed += 1;
        }
        let (n, want) = (r.tracer.chunks().len(), warm.tracer.chunks().len());
        if r.ops != warm.ops || n != want {
            eprintln!(
                "ssbench: a rep ran {} ops in {n} chunks, the warm-up {} in {want}",
                r.ops, warm.ops
            );
            self.failed += 1;
        }
    }
}

/// The measured phase's host time (ns) chunk by chunk, with
/// interference from the rest of the host filtered out: for each chunk,
/// the fastest any timed rep ran it. Every rep runs the same work chunk
/// by chunk, and interference only ever slows a chunk, in bursts of up
/// to seconds that rarely hit the same chunk in every rep; work the
/// program itself adds slows the chunk in every rep, so it shows.
fn quiet_chunks(reps: &[Vec<u64>]) -> Vec<u64> {
    let n = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n)
        .map(|i| reps.iter().map(|c| c[i]).min().unwrap_or(0))
        .collect()
}

/// The host-side per-layer metrics of the traced rep. `quiet` holds
/// the untraced reps' [`quiet_chunks`].
fn per_layer_host(t: &Tracer, quiet: &[u64], v: &mut Values) {
    for phase in ["gen", "new", "prep"] {
        v.insert(format!("setup.{phase}_s"), t.secs(phase));
    }
    let measure = t.secs("measure");
    let own = t.self_secs("measure");
    let share = |name: &str| own.get(name).copied().unwrap_or(0.0) * 100.0 / measure;
    for kind in OpKind::ALL {
        v.insert(format!("span.{}_pct", kind.label()), share(kind.label()));
    }
    for name in PHASE_SPANS {
        v.insert(format!("span.{name}_self_pct"), share(name));
    }
    v.insert("trace.coverage_pct".into(), 100.0 - share("measure"));
    // Chunk by chunk against the untraced reps, so a burst of
    // interference during the one traced rep moves the median little.
    let ratios: Vec<f64> = t
        .chunks()
        .iter()
        .zip(quiet)
        .map(|(&traced, &untraced)| traced as f64 / untraced.max(1) as f64)
        .collect();
    v.insert(
        "trace.overhead_pct".into(),
        median(&ratios).map_or(0.0, |r| (r - 1.0) * 100.0),
    );
    let durations = t.op_durations("measure");
    for family in ["read", "write"] {
        let d = durations.get(family).map_or(&[][..], Vec::as_slice);
        let at = |pm| nearest_rank(d, pm).map_or(0.0, f64::from);
        v.insert(format!("op.{family}_ns.p50"), at(500));
        v.insert(format!("op.{family}_ns.p99"), at(990));
        v.insert(format!("op.{family}.n"), d.len() as f64);
    }
}

/// Warns when a reported p99 has fewer than [`crate::stats::TAIL_SAMPLES`] samples
/// beyond it, so it says nothing about the tail.
fn warn_unsupported_tails(v: &Values) {
    let pairs = [
        ("lat.read_p99_cyc", "lat.read.n"),
        ("lat.write_p99_cyc", "lat.write.n"),
        ("lat.shred_p99_cyc", "lat.shred.n"),
        ("op.read_ns.p99", "op.read.n"),
        ("op.write_ns.p99", "op.write.n"),
    ];
    for (metric, count) in pairs {
        if let Some(&n) = v.get(count) {
            let n = n as usize;
            if n > 0 && highest_supported(n, &[990]).is_none() {
                eprintln!("ssbench: warning: {metric} rests on {n} samples, too few for a p99");
            }
        }
    }
}

/// The process's peak resident set size (`VmHWM`), in MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}
