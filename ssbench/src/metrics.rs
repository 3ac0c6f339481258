//! The metric catalogue: every metric the benchmark prints, with its
//! unit, direction and (for end-to-end metrics) regression bound, in
//! the fixed order it is printed. `BENCHMARK.json` mirrors this file; a
//! test keeps the two in step.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use ss_trace::profile::Stage;

use crate::spans::OpKind;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The `better` field of `BENCHMARK.json`.
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// Whether `new` is worse than `base`.
    pub fn worse(self, new: f64, base: f64) -> bool {
        match self {
            Better::Lower => new > base,
            Better::Higher => new < base,
        }
    }
}

/// Where a metric's value comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Host wall-clock time or memory: noisy, compared by medians.
    Host,
    /// The simulated machine: deterministic for a seed, compared exactly.
    Sim,
}

/// One catalogue entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Def {
    /// Metric name, as printed.
    pub name: String,
    /// Unit, as printed.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Host or simulated.
    pub source: Source,
    /// Share of the parent's median by which the metric may worsen
    /// before a change counts as a regression (end-to-end metrics only).
    pub bound: f64,
}

fn def(name: impl Into<String>, unit: &'static str, better: Better, source: Source) -> Def {
    Def {
        name: name.into(),
        unit,
        better,
        source,
        bound: 0.0,
    }
}

fn bounded(name: &str, unit: &'static str, better: Better, source: Source, bound: f64) -> Def {
    Def {
        bound,
        ..def(name, unit, better, source)
    }
}

/// End-to-end metrics, printed with `--trace 0`. Every workload
/// reports every one, and none is ever 0.
pub fn end_to_end() -> Vec<Def> {
    use Better::{Higher, Lower};
    use Source::{Host, Sim};
    vec![
        bounded("setup_s", "s", Lower, Host, 0.25),
        bounded("ops_per_s", "1/s", Higher, Host, 0.2),
        bounded("peak_rss_mib", "MiB", Lower, Host, 0.1),
        bounded("sim_cycles", "cycles", Lower, Sim, 0.15),
        bounded("nvm_writes", "count", Lower, Sim, 0.1),
        bounded("nvm_energy_pj", "pJ", Lower, Sim, 0.1),
        bounded("read_mean_cyc", "cycles", Lower, Sim, 0.15),
    ]
}

/// Span names of the measured phase whose self time is reported as a
/// share of it, besides the per-op kinds.
pub const PHASE_SPANS: [&str; 2] = ["run", "drain"];

/// Per-layer metrics, printed with `--trace 1`. A metric a workload does
/// not exercise reads 0; host times that can be absent are reported as
/// shares of the measured phase, so no time reads a constant 0.
pub fn per_layer() -> Vec<Def> {
    use Better::{Higher, Lower};
    use Source::{Host, Sim};
    let mut v = vec![
        def("setup.gen_s", "s", Lower, Host),
        def("setup.new_s", "s", Lower, Host),
        def("setup.prep_s", "s", Lower, Host),
    ];
    for kind in OpKind::ALL {
        v.push(def(format!("span.{}_pct", kind.label()), "%", Lower, Host));
    }
    for name in PHASE_SPANS {
        v.push(def(format!("span.{name}_self_pct"), "%", Lower, Host));
    }
    v.push(def("trace.coverage_pct", "%", Higher, Host));
    v.push(def("trace.overhead_pct", "%", Lower, Host));
    for family in ["read", "write"] {
        v.push(def(format!("op.{family}_ns.p50"), "ns", Lower, Host));
        v.push(def(format!("op.{family}_ns.p99"), "ns", Lower, Host));
        v.push(def(format!("op.{family}.n"), "count", Higher, Host));
    }
    v.extend([
        def("lat.read_p50_cyc", "cycles", Lower, Sim),
        def("lat.read_p99_cyc", "cycles", Lower, Sim),
        def("lat.write_p99_cyc", "cycles", Lower, Sim),
        def("lat.shred_p99_cyc", "cycles", Lower, Sim),
        def("lat.read.n", "count", Higher, Sim),
        def("lat.write.n", "count", Higher, Sim),
        def("lat.shred.n", "count", Higher, Sim),
        def("cpu.instructions", "count", Higher, Sim),
        def("cpu.loads", "count", Higher, Sim),
        def("cpu.stores", "count", Higher, Sim),
        def("cpu.ipc", "ratio", Higher, Sim),
        def("cpu.load_lat.p50", "cycles", Lower, Sim),
        def("cpu.load_lat.p99", "cycles", Lower, Sim),
        def("os.major_faults", "count", Lower, Sim),
        def("os.minor_faults", "count", Lower, Sim),
        def("os.pages_shredded", "count", Lower, Sim),
        def("os.zeroing_cycles", "cycles", Lower, Sim),
        def("os.fault_cycles", "cycles", Lower, Sim),
        def("os.tlb_miss_pct", "%", Lower, Sim),
    ]);
    for level in 1..=4 {
        v.push(def(format!("cache.l{level}.hits"), "count", Higher, Sim));
        v.push(def(format!("cache.l{level}.misses"), "count", Lower, Sim));
        v.push(def(
            format!("cache.l{level}.dirty_evictions"),
            "count",
            Lower,
            Sim,
        ));
    }
    v.push(def("cache.l4.hit_pct", "%", Higher, Sim));
    for name in CORE_COUNTS {
        let better = if name == "zero_fill_reads" {
            Higher
        } else {
            Lower
        };
        v.push(def(format!("core.{name}"), "count", better, Sim));
    }
    v.extend([
        def("core.zero_fill_pct", "%", Higher, Sim),
        def("ccache.hits", "count", Higher, Sim),
        def("ccache.misses", "count", Lower, Sim),
        def("ccache.hit_pct", "%", Higher, Sim),
    ]);
    for stage in Stage::ALL {
        v.push(def(
            format!("profile.{}.cycles", stage.label()),
            "cycles",
            Lower,
            Sim,
        ));
        v.push(def(
            format!("profile.{}.ops", stage.label()),
            "count",
            Lower,
            Sim,
        ));
    }
    v.push(def("profile.gap_cyc", "cycles", Lower, Sim));
    v.extend([
        def("nvm.reads", "count", Lower, Sim),
        def("nvm.writes", "count", Lower, Sim),
        def("nvm.bits_written", "count", Lower, Sim),
        def("nvm.energy_pj", "pJ", Lower, Sim),
        def("nvm.max_line_wear", "count", Lower, Sim),
        def("fig.write_savings_pct", "%", Higher, Sim),
        def("fig.read_savings_pct", "%", Higher, Sim),
        def("fig.read_speedup", "ratio", Higher, Sim),
        def("fig.relative_ipc", "ratio", Higher, Sim),
    ]);
    v
}

/// The `core.*` counters, in print order.
pub const CORE_COUNTS: [&str; 11] = [
    "reads",
    "writes",
    "zeroing_writes",
    "zero_fill_reads",
    "counter_reads",
    "counter_writes",
    "shreds",
    "reencryptions",
    "bus_transfers",
    "persist_steps",
    "recoveries",
];

/// Metric values by name.
pub type Values = BTreeMap<String, f64>;

/// Orders `values` by `defs`. Errors name any catalogue metric missing
/// from `values`, or any value that is not a finite number.
pub fn ordered<'d>(defs: &'d [Def], values: &Values) -> Result<Vec<(&'d Def, f64)>, String> {
    defs.iter()
        .map(|d| match values.get(&d.name) {
            Some(v) if v.is_finite() => Ok((d, *v)),
            Some(v) => Err(format!("metric {} is not finite: {v}", d.name)),
            None => Err(format!("metric {} was not measured", d.name)),
        })
        .collect()
}

/// A number with all its digits: integers without a fraction, other
/// values in Rust's shortest round-trip form (never exponent notation,
/// so always valid JSON).
pub fn number(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 9.0e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// The result line: `correct`, `attempted`, `failed`, then `metrics` in
/// catalogue order, each as `{"value": .., "unit": ..}`.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[(&Def, f64)]) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (d, v)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            d.name,
            number(*v),
            d.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Value};
    use crate::workloads::Workload;

    fn name_ok(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<Def> = end_to_end().into_iter().chain(per_layer()).collect();
        let mut seen = std::collections::BTreeSet::new();
        for d in &all {
            assert!(name_ok(&d.name), "bad name {}", d.name);
            assert!(seen.insert(d.name.clone()), "duplicate {}", d.name);
            assert!(d.unit.len() <= 16 && !d.unit.is_empty());
        }
        assert!(per_layer().len() <= 128);
        let e2e = end_to_end();
        assert!(e2e.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = &e2e[0];
        assert_eq!((setup.name.as_str(), setup.unit), ("setup_s", "s"));
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn result_line_key_order_is_stable() {
        let defs = end_to_end();
        let values: Values = defs.iter().map(|d| (d.name.clone(), 1.5)).collect();
        let line = result_json(true, 10, 0, &ordered(&defs, &values).unwrap());
        assert!(line.starts_with(
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"ops_per_s\""
        ));
        let parsed = json::parse(&line).unwrap();
        let Value::Obj(top) = parsed else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Value::Obj(m)) = parsed_metrics(&top) else {
            panic!("no metrics")
        };
        let names: Vec<&str> = m.iter().map(|(k, _)| k.as_str()).collect();
        let want: Vec<&str> = defs.iter().map(|d| d.name.as_str()).collect();
        assert_eq!(names, want);
    }

    fn parsed_metrics(top: &[(String, Value)]) -> Option<&Value> {
        top.iter().find(|(k, _)| k == "metrics").map(|(_, v)| v)
    }

    #[test]
    fn numbers_keep_every_digit() {
        assert_eq!(number(3.0), "3");
        assert_eq!(number(0.1234567891234), "0.1234567891234");
        assert_eq!(number(1e-7), "0.0000001");
        assert_eq!(number(-2.5), "-2.5");
    }

    #[test]
    fn missing_or_non_finite_values_are_errors() {
        let defs = end_to_end();
        assert!(ordered(&defs, &Values::new())
            .unwrap_err()
            .contains("setup_s"));
        let mut values: Values = defs.iter().map(|d| (d.name.clone(), 1.0)).collect();
        values.insert("ops_per_s".into(), f64::NAN);
        assert!(ordered(&defs, &values).unwrap_err().contains("ops_per_s"));
    }

    /// `BENCHMARK.json` declares exactly this catalogue and these
    /// workloads.
    #[test]
    fn benchmark_json_matches_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let Value::Obj(top) = json::parse(&text).expect("valid JSON") else {
            panic!("not an object")
        };
        let field = |k: &str| &top.iter().find(|(n, _)| n == k).expect(k).1;
        let Value::Arr(workloads) = field("workloads") else {
            panic!()
        };
        let names: Vec<String> = workloads.iter().map(|w| w.str_field("name")).collect();
        let want: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
        assert_eq!(names, want);
        for (w, json) in Workload::ALL.iter().zip(workloads) {
            assert_eq!(json.str_field("why"), w.why());
        }
        for (key, defs) in [("end_to_end", end_to_end()), ("per_layer", per_layer())] {
            let Value::Arr(list) = field(key) else {
                panic!()
            };
            assert_eq!(list.len(), defs.len(), "{key}");
            for (d, j) in defs.iter().zip(list) {
                assert_eq!(j.str_field("name"), d.name);
                assert_eq!(j.str_field("unit"), d.unit, "{}", d.name);
                assert_eq!(j.str_field("better"), d.better.label(), "{}", d.name);
                if key == "end_to_end" {
                    assert_eq!(j.num_field("bound"), d.bound, "{}", d.name);
                }
            }
        }
        assert_eq!(field("run_seconds"), &Value::Num(crate::DEFAULT_SECONDS));
    }
}
