//! One bench program for every committed bench binary.
//!
//! `protbench` and `shardbench` are one program over two benches: run
//! every configuration, print one text line per result row, optionally
//! write the JSON report, then exit nonzero iff a run or the gate
//! failed. [`main`] is that program; a [`Bench`] supplies the rows and
//! the gate. Rows, workload and summary are lists of named [`Value`]s,
//! so a row's text line and JSON object are rendered from the same
//! fields. The JSON document is the sweeps' writer,
//! [`ss_harness::report::json_doc`], with its array under `rows`; the
//! committed `BENCH_*.json` files pin its bytes. `--json FILE` is the
//! only flag, and argv is passed in: a report is a pure function of the
//! bench's constants.

use std::fmt;
use std::process::ExitCode;

use ss_harness::report::json_doc;

/// One value of a report field. Reports carry names and integers only:
/// ratios are integer thousandths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Value {
    /// A label such as a backend or workload name.
    Name(&'static str),
    /// A count, a cycle total or a ratio in thousandths.
    Int(u64),
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Name(name) => f.write_str(name),
            Value::Int(n) => write!(f, "{n}"),
        }
    }
}

/// A named field of a row, the workload or the summary.
pub type Field = (&'static str, Value);

/// The integer field `key` of `fields`; panics if there is none (a
/// bench reads back only the fields it wrote).
pub fn int(fields: &[Field], key: &str) -> u64 {
    match fields.iter().find(|(k, _)| *k == key) {
        Some((_, Value::Int(n))) => *n,
        _ => panic!("no integer field {key:?}"),
    }
}

/// One committed bench behind the shared [`main`].
pub trait Bench {
    /// Binary name: the usage line and the prefix of error messages.
    const NAME: &'static str;
    /// The report's `bench` id.
    const ID: &'static str;
    /// The workload's fields, its name first.
    const WORKLOAD: &'static [Field];

    /// Runs every configuration: one row of fields each, in report
    /// order. `Err` when a run fails or breaks one of the bench's
    /// in-run checks.
    fn rows() -> Result<Vec<Vec<Field>>, String>;
    /// The key and fields of the summary object that follows the rows;
    /// `None` when the report has none.
    fn summary(_rows: &[Vec<Field>]) -> Option<(&'static str, Vec<Field>)> {
        None
    }
    /// The gate over the rows: `Ok` with the pass line, `Err` with the
    /// failure.
    fn gate(rows: &[Vec<Field>]) -> Result<String, String>;
}

/// Runs bench `B` on `args` (argv without the program name) and maps
/// the verdict to the exit status: nonzero on a usage or I/O error, a
/// failed run and a failed gate.
pub fn main<B: Bench>(args: impl IntoIterator<Item = String>) -> ExitCode {
    match parse::<B>(args).and_then(|json| drive::<B>(json.as_deref())) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}

/// Parses argv: the optional `--json FILE` path.
fn parse<B: Bench>(args: impl IntoIterator<Item = String>) -> Result<Option<String>, String> {
    let mut json = None;
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--json" => json = Some(args.next().ok_or("--json needs a file path")?),
            "--help" | "-h" => return Err(format!("usage: {} [--json FILE]", B::NAME)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(json)
}

/// Runs the bench, prints the text report, writes the JSON report when
/// asked and applies the gate. `Ok` carries the verdict; `Err` a message
/// for stderr.
fn drive<B: Bench>(json: Option<&str>) -> Result<bool, String> {
    let rows = B::rows().map_err(|e| format!("{}: {e}", B::NAME))?;
    let summary = B::summary(&rows);
    println!("{}: {}", B::NAME, B::ID);
    println!("  workload: {}", text(B::WORKLOAD));
    for row in &rows {
        println!("  {}", text(row));
    }
    if let Some((key, fields)) = &summary {
        println!("  {key}: {}", text(fields));
    }
    if let Some(path) = json {
        std::fs::write(path, document::<B>(&rows, summary.as_ref()))
            .map_err(|e| format!("{}: writing {path}: {e}", B::NAME))?;
        println!("  json report written to {path}");
    }
    let verdict = B::gate(&rows);
    match &verdict {
        Ok(pass) => println!("  PASS: {pass}"),
        Err(fail) => eprintln!("{}: FAIL: {fail}", B::NAME),
    }
    Ok(verdict.is_ok())
}

/// `fields` as one text line of `key=value` pairs.
fn text(fields: &[Field]) -> String {
    let pairs: Vec<String> = fields.iter().map(|(k, v)| format!("{k}={v}")).collect();
    pairs.join(" ")
}

/// `fields` as one JSON object with the fields' key order.
fn object(fields: &[Field]) -> String {
    let pairs: Vec<String> = fields
        .iter()
        .map(|(k, v)| match v {
            Value::Name(name) => format!("\"{k}\": \"{name}\""),
            Value::Int(n) => format!("\"{k}\": {n}"),
        })
        .collect();
    format!("{{{}}}", pairs.join(", "))
}

/// The JSON report: the bench id and workload, the rows, then the
/// summary object if there is one.
fn document<B: Bench>(rows: &[Vec<Field>], summary: Option<&(&str, Vec<Field>)>) -> String {
    let header = [
        format!("\"bench\": \"{}\"", B::ID),
        format!("\"workload\": {}", object(B::WORKLOAD)),
    ];
    let rows: Vec<String> = rows.iter().map(|row| object(row)).collect();
    let tail: Vec<String> = summary
        .map(|(key, fields)| format!("\"{key}\": {}", object(fields)))
        .into_iter()
        .collect();
    json_doc(&header, "rows", &rows, &tail)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PASS: u8 = 0;
    const SUMMARY: u8 = 1;
    const RUN_FAILS: u8 = 2;
    const GATE_FAILS: u8 = 3;

    /// A two-row toy bench: `Stub<PASS>` passes, `Stub<SUMMARY>` also
    /// writes a summary object, `Stub<RUN_FAILS>` fails a run and
    /// `Stub<GATE_FAILS>` its gate.
    struct Stub<const MODE: u8>;

    impl<const MODE: u8> Bench for Stub<MODE> {
        const NAME: &'static str = "stub";
        const ID: &'static str = "stub_bench";
        const WORKLOAD: &'static [Field] = &[("name", Value::Name("toy")), ("seed", Value::Int(7))];

        fn rows() -> Result<Vec<Vec<Field>>, String> {
            if MODE == RUN_FAILS {
                return Err("b did not round-trip".to_string());
            }
            Ok(vec![
                vec![("config", Value::Name("a")), ("cycles", Value::Int(40))],
                vec![("config", Value::Name("b")), ("cycles", Value::Int(100))],
            ])
        }

        fn summary(rows: &[Vec<Field>]) -> Option<(&'static str, Vec<Field>)> {
            let ratio = int(&rows[1], "cycles") * 1000 / int(&rows[0], "cycles");
            (MODE == SUMMARY).then(|| ("b_vs_a_x1000", vec![("cycles", Value::Int(ratio))]))
        }

        fn gate(_rows: &[Vec<Field>]) -> Result<String, String> {
            match MODE {
                GATE_FAILS => Err("b too slow".to_string()),
                _ => Ok("b fast enough".to_string()),
            }
        }
    }

    fn args(flags: &[&str]) -> Vec<String> {
        flags.iter().map(|f| f.to_string()).collect()
    }

    #[test]
    fn usage_and_argument_errors_are_pinned() {
        let parse = |flags: &[&str]| parse::<Stub<PASS>>(args(flags));
        assert_eq!(parse(&[]), Ok(None));
        assert_eq!(parse(&["--json", "out.json"]), Ok(Some("out.json".into())));
        assert_eq!(parse(&["--help"]), Err("usage: stub [--json FILE]".into()));
        assert_eq!(parse(&["-h"]), Err("usage: stub [--json FILE]".into()));
        assert_eq!(
            parse(&["--bogus"]),
            Err("unknown argument \"--bogus\"".into())
        );
        assert_eq!(parse(&["--json"]), Err("--json needs a file path".into()));
    }

    #[test]
    fn failed_runs_gates_and_usage_exit_red() {
        assert_eq!(main::<Stub<PASS>>(args(&[])), ExitCode::SUCCESS);
        assert_eq!(main::<Stub<SUMMARY>>(args(&[])), ExitCode::SUCCESS);
        assert_eq!(main::<Stub<RUN_FAILS>>(args(&[])), ExitCode::FAILURE);
        assert_eq!(main::<Stub<GATE_FAILS>>(args(&[])), ExitCode::FAILURE);
        assert_eq!(main::<Stub<PASS>>(args(&["--bogus"])), ExitCode::FAILURE);
    }

    #[test]
    fn documents_have_the_committed_layout() {
        let rows = Stub::<PASS>::rows().expect("stub rows");
        let head = "{\n  \"bench\": \"stub_bench\",\n  \
                    \"workload\": {\"name\": \"toy\", \"seed\": 7},\n  \"rows\": [\n    \
                    {\"config\": \"a\", \"cycles\": 40},\n    \
                    {\"config\": \"b\", \"cycles\": 100}\n  ]";
        assert_eq!(Stub::<PASS>::summary(&rows), None);
        assert_eq!(document::<Stub<PASS>>(&rows, None), format!("{head}\n}}\n"));
        let summary = Stub::<SUMMARY>::summary(&rows);
        assert_eq!(
            document::<Stub<SUMMARY>>(&rows, summary.as_ref()),
            format!("{head},\n  \"b_vs_a_x1000\": {{\"cycles\": 2500}}\n}}\n")
        );
    }
}
