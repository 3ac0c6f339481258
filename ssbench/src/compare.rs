//! `ssbench compare BASE NEW`: judges a change against its parent from
//! two files of run records (`--json` output, one record per line),
//! workload by workload and end-to-end metric by metric:
//!
//! * a simulated metric must be equal or better, exactly, on every seed
//!   both sides ran;
//! * a host metric regresses when its median is worse than the parent's
//!   by more than the bound; when either side's quartile spread exceeds
//!   the bound it is *unresolved* instead, unless every new run beats
//!   every parent run; a gain needs nine tenths of the pairs won and a
//!   median shift larger than the parent's interquartile distance.
//!
//! Any regression, or any failed check in a new record, exits nonzero.

use std::collections::BTreeMap;

use crate::json::{self, Value};
use crate::metrics::{end_to_end, Better, Def, Source};
use crate::stats::{median, quartiles, spread};

/// One run record.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Workload name.
    pub workload: String,
    /// Seed.
    pub seed: u64,
    /// Whether the run was traced.
    pub trace: bool,
    /// Whether every check passed.
    pub correct: bool,
    /// Failed checks and errors.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<String, f64>,
}

/// Parses a records file: one JSON object per non-empty line.
///
/// # Errors
///
/// The line number and reason of the first malformed record.
pub fn parse_records(text: &str) -> Result<Vec<Record>, String> {
    let mut out = Vec::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |why: &str| format!("line {}: {why}", i + 1);
        let v = json::parse(line).map_err(|e| bad(&e))?;
        let Some(Value::Obj(metrics)) = v.get("metrics") else {
            return Err(bad("no metrics object"));
        };
        let mut values = BTreeMap::new();
        for (name, m) in metrics {
            values.insert(name.clone(), m.num_field("value"));
        }
        let num = |k: &str| {
            let x = v.num_field(k);
            (x.is_finite() && x >= 0.0)
                .then_some(x as u64)
                .ok_or_else(|| bad(k))
        };
        out.push(Record {
            workload: v.str_field("workload"),
            seed: num("seed")?,
            trace: num("trace")? != 0,
            correct: v.get("correct") == Some(&Value::Bool(true)),
            failed: num("failed")?,
            metrics: values,
        });
    }
    Ok(out)
}

/// Verdict on one metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// No significant difference.
    NoChange,
    /// Better by the gain rule.
    Gain,
    /// Worse beyond the bound (or, simulated, worse at all).
    Regression,
    /// Spread wider than the bound; nothing can be concluded.
    Unresolved,
}

/// Compares records and prints the table. Returns whether anything
/// regressed.
///
/// # Errors
///
/// When a workload has records on one side only.
pub fn compare(base: &[Record], new: &[Record]) -> Result<bool, String> {
    let mut regressed = false;
    let mut workloads: Vec<&str> = base
        .iter()
        .chain(new)
        .map(|r| r.workload.as_str())
        .collect();
    workloads.sort_unstable();
    workloads.dedup();
    println!(
        "{:<13} {:<14} {:>30} {:>30} {:>7}  verdict",
        "workload", "metric", "base median [q1, q3]", "new median [q1, q3]", "won"
    );
    for w in workloads {
        let pick = |rs: &[Record]| -> Vec<Record> {
            rs.iter()
                .filter(|r| r.workload == w && !r.trace)
                .cloned()
                .collect()
        };
        let (b, n) = (pick(base), pick(new));
        if b.is_empty() || n.is_empty() {
            return Err(format!(
                "workload {w} has untraced records on one side only"
            ));
        }
        let failed = n.iter().filter(|r| !r.correct || r.failed > 0).count();
        if failed > 0 {
            println!("{w:<13} {failed} new run(s) failed their checks: REGRESSION");
            regressed = true;
        }
        for d in end_to_end() {
            let (verdict, row) = judge(&d, &b, &n);
            println!("{w:<13} {:<14} {row}  {verdict:?}", d.name);
            regressed |= verdict == Verdict::Regression;
        }
    }
    Ok(regressed)
}

fn values(rs: &[Record], name: &str) -> Vec<f64> {
    rs.iter()
        .filter_map(|r| r.metrics.get(name).copied())
        .collect()
}

fn summary(v: &[f64]) -> String {
    let (q1, q3) = quartiles(v).unwrap_or((f64::NAN, f64::NAN));
    format!("{:.6e} [{q1:.4e}, {q3:.4e}]", median(v).unwrap_or(f64::NAN))
}

/// Judges metric `d` from base records `b` against new records `n`;
/// also returns the printed row.
pub fn judge(d: &Def, b: &[Record], n: &[Record]) -> (Verdict, String) {
    let (bv, nv) = (values(b, &d.name), values(n, &d.name));
    let pairs: Vec<(f64, f64)> = match d.source {
        // Simulated values repeat exactly per seed: pair by seed.
        Source::Sim => b
            .iter()
            .filter_map(|rb| {
                let rn = n.iter().find(|rn| rn.seed == rb.seed)?;
                Some((*rb.metrics.get(&d.name)?, *rn.metrics.get(&d.name)?))
            })
            .collect(),
        // Host values pair in run order (alternated by whoever ran them).
        Source::Host => bv.iter().copied().zip(nv.iter().copied()).collect(),
    };
    let won = pairs.iter().filter(|(x, y)| d.better.worse(*x, *y)).count();
    let row = format!(
        "{:>30} {:>30} {:>3}/{:<3}",
        summary(&bv),
        summary(&nv),
        won,
        pairs.len()
    );
    let verdict = match d.source {
        Source::Sim if !pairs.is_empty() => {
            if pairs.iter().any(|(x, y)| d.better.worse(*y, *x)) {
                Verdict::Regression
            } else if won > 0 {
                Verdict::Gain
            } else {
                Verdict::NoChange
            }
        }
        _ => host_verdict(d, &bv, &nv, won, pairs.len()),
    };
    (verdict, row)
}

fn host_verdict(d: &Def, bv: &[f64], nv: &[f64], won: usize, pairs: usize) -> Verdict {
    let (Some(bm), Some(nm), Some((bq1, bq3))) = (median(bv), median(nv), quartiles(bv)) else {
        return Verdict::Unresolved;
    };
    let all_better = match d.better {
        Better::Lower => max(nv) < min(bv),
        Better::Higher => min(nv) > max(bv),
    };
    let worse_by = match d.better {
        Better::Lower => (nm - bm) / bm,
        Better::Higher => (bm - nm) / bm,
    };
    let wide = |v: &[f64]| spread(v).is_none_or(|s| s > d.bound);
    if all_better && pairs > 0 {
        Verdict::Gain
    } else if wide(bv) || wide(nv) {
        Verdict::Unresolved
    } else if worse_by > d.bound {
        Verdict::Regression
    } else if won * 10 >= pairs * 9 && pairs > 0 && (nm - bm).abs() > bq3 - bq1 && worse_by < 0.0 {
        Verdict::Gain
    } else {
        Verdict::NoChange
    }
}

fn max(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

fn min(v: &[f64]) -> f64 {
    v.iter().copied().fold(f64::INFINITY, f64::min)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(seed: u64, metric: &str, value: f64) -> Record {
        Record {
            workload: "rand_rw".into(),
            seed,
            trace: false,
            correct: true,
            failed: 0,
            metrics: [(metric.to_string(), value)].into_iter().collect(),
        }
    }

    fn metric(name: &str) -> Def {
        end_to_end().into_iter().find(|d| d.name == name).unwrap()
    }

    fn side(name: &str, vals: &[f64]) -> Vec<Record> {
        vals.iter()
            .zip(1..)
            .map(|(&v, s)| rec(s, name, v))
            .collect()
    }

    #[test]
    fn simulated_metrics_must_not_worsen_at_all() {
        let d = metric("sim_cycles");
        let base = side("sim_cycles", &[100.0, 200.0]);
        assert_eq!(
            judge(&d, &base, &side("sim_cycles", &[100.0, 200.0])).0,
            Verdict::NoChange
        );
        assert_eq!(
            judge(&d, &base, &side("sim_cycles", &[100.0, 201.0])).0,
            Verdict::Regression
        );
        assert_eq!(
            judge(&d, &base, &side("sim_cycles", &[99.0, 200.0])).0,
            Verdict::Gain
        );
    }

    #[test]
    fn host_metrics_follow_bound_spread_and_pairs() {
        let d = metric("ops_per_s"); // higher is better
        let steady: Vec<f64> = (0..10).map(|i| 1000.0 + f64::from(i)).collect();
        let base = side("ops_per_s", &steady);
        let same = judge(&d, &base, &base).0;
        assert_eq!(same, Verdict::NoChange);
        let slow: Vec<f64> = steady.iter().map(|x| x * (1.0 - 1.5 * d.bound)).collect();
        assert_eq!(
            judge(&d, &base, &side("ops_per_s", &slow)).0,
            Verdict::Regression
        );
        let fast: Vec<f64> = steady.iter().map(|x| x * 1.05).collect();
        assert_eq!(judge(&d, &base, &side("ops_per_s", &fast)).0, Verdict::Gain);
        let noisy = [
            500.0, 1500.0, 700.0, 1300.0, 1000.0, 600.0, 1400.0, 900.0, 1100.0, 800.0,
        ];
        assert_eq!(
            judge(&d, &side("ops_per_s", &noisy), &base).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn records_round_trip_through_the_parser() {
        let line = "{\"workload\": \"rand_rw\", \"seed\": 7, \"trace\": 0, \"correct\": true, \"attempted\": 5, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}\n\n";
        let r = parse_records(line).unwrap();
        assert_eq!(r, vec![rec(7, "setup_s", 0.5)]);
        assert!(parse_records("{\"seed\": 1}").is_err());
    }
}
