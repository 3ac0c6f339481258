//! **ss-trace** — the deterministic observability layer.
//!
//! The paper's whole evaluation (§6, Figs. 4–12) is a story told through
//! counters: shredded pages, zero-fill reads, counter overflows, write
//! savings. This crate gives every layer of the workspace one shared
//! vocabulary for telling that story, under the same determinism
//! contract as the simulator itself (`LINTS.md` DET-001/002/003):
//!
//! * [`TraceEvent`] / [`Tracer`] — a typed, cycle-stamped event stream
//!   recorded into a bounded ring buffer. Stamps are simulated
//!   [`Cycles`], never wall-clock; the disabled tracer ([`Tracer::Null`])
//!   reduces `emit` to one enum-discriminant test and never evaluates
//!   the event constructor.
//! * [`MetricsRegistry`] — a flat `BTreeMap` of stable dotted metric
//!   names (`ctrl.reads`, `ccache.hits`, `heal.remaps`, …) with epoch
//!   snapshot/delta support and byte-stable JSON/CSV export. Identical
//!   runs export identical bytes; CI diffs the export of a fixed
//!   `faultsweep` campaign against a committed golden file.
//! * [`Stage`] / [`StageProfile`] — per-stage cycle attribution for the
//!   controller's read/write/shred pipelines (counter fetch, AES-CTR,
//!   Merkle verify, NVM array, …), the measurement substrate any hot-path
//!   optimisation must report against.
//!
//! Naming scheme (enforced by convention, documented in DESIGN.md §10):
//! `<component>.<counter>` with components `ctrl`, `ccache`, `wq`,
//! `heal`, `nvm`, `profile`, `trace`. Metric values are integers only —
//! floats round-trip through text differently across platforms, so
//! derived ratios are computed by consumers from the integer counters.

#![forbid(unsafe_code)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;

pub use event::{TraceEvent, TraceRecord};
pub use metrics::{export_latency, MetricsRegistry};
pub use profile::{Stage, StageProfile};
pub use sink::{RingSink, Tracer};

// Re-exported for downstream convenience: every trace stamp is in
// simulated cycles.
pub use ss_common::Cycles;
