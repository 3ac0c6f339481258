//! The outcome bookkeeping every sweep shares.
//!
//! The fault, attack and crash engines each classify every record (a
//! fired fault, an attack, a crash point) into one [`Outcome`] of their
//! own enum, and each record type keeps its own fields and formats.
//! What the three share is written here once: the [`Tally`] of outcomes,
//! the gate (each enum names the one outcome that fails it), and the
//! [`Report`] of one `(config, seed)` run with its text header and JSON
//! framing, whose bytes the committed `ci/` goldens pin. The document
//! writer [`json_doc`] is shared with the committed benches.

use std::fmt::{self, Write as _};
use std::marker::PhantomData;

/// The most outcomes any sweep's enum has.
const MAX_OUTCOMES: usize = 5;

/// An outcome enum a sweep classifies every record into.
pub trait Outcome: Copy + Eq + 'static {
    /// Every outcome as `(outcome, JSON key, text key, text width)`, in
    /// the JSON tally's key order. The text tally shows the other
    /// outcomes in the same order, each count padded to its width, then
    /// [`Outcome::FAILED`] last and unpadded.
    const COLUMNS: &'static [(Self, &'static str, &'static str, usize)];
    /// The one outcome that fails the sweep's gate.
    const FAILED: Self;
}

/// `outcome`'s row in [`Outcome::COLUMNS`].
fn slot<O: Outcome>(outcome: O) -> usize {
    O::COLUMNS
        .iter()
        .position(|c| c.0 == outcome)
        .expect("every outcome has a column")
}

/// The JSON tally key of `outcome`.
pub(crate) fn json_key<O: Outcome>(outcome: O) -> &'static str {
    O::COLUMNS[slot(outcome)].1
}

/// Outcome counts of one run, one config or a whole campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tally<O> {
    counts: [u64; MAX_OUTCOMES],
    outcome: PhantomData<O>,
}

impl<O> Default for Tally<O> {
    fn default() -> Self {
        Tally {
            counts: [0; MAX_OUTCOMES],
            outcome: PhantomData,
        }
    }
}

impl<O: Outcome> Tally<O> {
    /// Adds every count of `other`.
    pub fn merge(&mut self, other: Self) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts) {
            *mine += theirs;
        }
    }

    /// How often `outcome` was tallied.
    pub fn count(&self, outcome: O) -> u64 {
        self.counts[slot(outcome)]
    }

    /// Outcomes tallied.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Outcomes that fail the gate.
    pub fn failed(&self) -> u64 {
        self.count(O::FAILED)
    }

    /// The tally as a JSON object with a fixed key order — byte-stable,
    /// so two sweep files from the same seeds `cmp` equal.
    pub fn to_json(&self) -> String {
        let fields: Vec<String> = O::COLUMNS
            .iter()
            .zip(self.counts)
            .map(|(column, n)| format!("\"{}\":{n}", column.1))
            .collect();
        format!("{{{}}}", fields.join(","))
    }
}

impl<O: Outcome> FromIterator<O> for Tally<O> {
    fn from_iter<I: IntoIterator<Item = O>>(outcomes: I) -> Self {
        let mut tally = Tally::default();
        for outcome in outcomes {
            tally.counts[slot(outcome)] += 1;
        }
        tally
    }
}

impl<O: Outcome> fmt::Display for Tally<O> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (&(outcome, _, key, width), n) in O::COLUMNS.iter().zip(self.counts) {
            if outcome != O::FAILED {
                write!(f, "{key}={n:<width$} ")?;
            }
        }
        write!(f, "{}={}", O::COLUMNS[slot(O::FAILED)].2, self.failed())
    }
}

/// One classified record of a run: a fired fault, an attack or a crash
/// point.
pub trait Record: fmt::Display {
    /// The enum the record is classified into.
    type Outcome: Outcome;
    /// The word opening a report's text header.
    const NOUN: &'static str;
    /// The record's classification.
    fn outcome(&self) -> Self::Outcome;
    /// The record as a JSON object with a fixed key order.
    fn to_json(&self) -> String;
    /// Writes the record's lines of a text report.
    fn write_text(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "  {self}")
    }
}

/// What a fault plan reports beyond its records.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanReport {
    /// Workload ops executed.
    pub ops: u64,
    /// Failure found by the final full verification (if any).
    pub final_failure: Option<String>,
}

/// The full, deterministic record of one `(config, seed)` run.
#[derive(Debug, Clone)]
pub struct Report<R> {
    /// Config label the run used.
    pub label: String,
    /// Generating seed.
    pub seed: u64,
    /// Per-record results, in run order.
    pub records: Vec<R>,
    /// The fault plan's op count and final check; `None` for attack and
    /// crash runs.
    pub plan: Option<PlanReport>,
}

impl<R: Record> Report<R> {
    /// Outcome counts of this run.
    pub fn tally(&self) -> Tally<R::Outcome> {
        self.records.iter().map(R::outcome).collect()
    }

    /// True when no record failed the gate and the final check, if
    /// any, passed.
    pub fn clean(&self) -> bool {
        let final_ok = self.plan.as_ref().is_none_or(|p| p.final_failure.is_none());
        final_ok && self.tally().failed() == 0
    }

    /// The full report as one JSON object on a single line: fixed key
    /// order, records in run order, no maps anywhere on the path. The
    /// sweeps' `--json` replay embeds this verbatim.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":\"{}\",\"seed\":{},",
            json_escape(&self.label),
            self.seed
        );
        if let Some(plan) = &self.plan {
            let _ = write!(out, "\"ops\":{},", plan.ops);
        }
        let records: Vec<String> = self.records.iter().map(R::to_json).collect();
        let _ = write!(
            out,
            "\"clean\":{},\"tally\":{},\"records\":[{}]",
            self.clean(),
            self.tally().to_json(),
            records.join(",")
        );
        if let Some(plan) = &self.plan {
            let failure = match &plan.final_failure {
                Some(e) => format!("\"{}\"", json_escape(e)),
                None => "null".to_string(),
            };
            let _ = write!(out, ",\"final_failure\":{failure}");
        }
        out.push('}');
        out
    }
}

impl<R: Record> fmt::Display for Report<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} seed={} config={}", R::NOUN, self.seed, self.label)?;
        if let Some(plan) = &self.plan {
            write!(f, " ops={}", plan.ops)?;
        }
        writeln!(f, " [{}]", self.tally())?;
        for r in &self.records {
            r.write_text(f)?;
        }
        match self.plan.as_ref().map(|p| &p.final_failure) {
            Some(Some(e)) => writeln!(f, "  final check: FAILED: {e}"),
            Some(None) => writeln!(f, "  final check: ok"),
            None => Ok(()),
        }
    }
}

/// A JSON document in the layout every sweep and bench report shares:
/// the `header` lines, the `key` array with one row per line, then the
/// `tail` lines. Each header and tail line is one `"key": value` pair.
pub fn json_doc(header: &[String], key: &str, rows: &[String], tail: &[String]) -> String {
    let mut out = String::from("{\n");
    for line in header {
        let _ = writeln!(out, "  {line},");
    }
    let _ = writeln!(out, "  \"{key}\": [");
    for (i, row) in rows.iter().enumerate() {
        let comma = if i + 1 < rows.len() { "," } else { "" };
        let _ = writeln!(out, "    {row}{comma}");
    }
    out.push_str("  ]");
    for line in tail {
        let _ = write!(out, ",\n  {line}");
    }
    out.push_str("\n}\n");
    out
}

/// Escapes `s` for embedding in a JSON string literal.
pub(crate) fn json_escape(s: &str) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_quotes_backslashes_and_control_characters() {
        let escaped = json_escape("a\"b\\c\nd\te\u{1}");
        assert_eq!(escaped, "a\\\"b\\\\c\\nd\\te\\u0001");
    }
}
