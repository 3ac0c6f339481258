//! The fault-injection engine: drive a workload, fire a plan, classify.
//!
//! [`run_plan`] owns the whole life of one experiment: it builds a
//! [`MemoryController`] from a [`HarnessConfig`], replays a seeded
//! workload (writes, read-verifies, shreds) while a [`FaultPlan`]
//! watches the cumulative NVM write count, and after every fired fault
//! checks the controller against the [`ShadowModel`]. Every fault ends
//! in exactly one [`FaultOutcome`]; `Corrupted` — architectural state
//! silently diverging from the reference model — is the only failure.

use std::fmt;

use ss_common::{Cycles, DetRng, Error, PageId, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_core::{
    ControllerConfig, ControllerConfigBuilder, CounterPersistence, EccConfig, MemoryController,
    ProtectionMode, WriteQueueConfig, SHRED_REG,
};

use crate::plan::{FaultKind, FaultPlan, ScheduledFault};
use crate::shadow::{Line, ShadowModel};
use crate::sweep::{json_escape, Artifacts, Campaign, SweepReport, SweepTally};

/// Domain separator for the workload stream (the plan uses its own; see
/// [`FaultPlan::generate`]), so plan and workload draws never interleave.
const WORKLOAD_DOMAIN: u64 = 0x10AD_57A7_E5EE_D001;

/// One named controller configuration under test.
#[derive(Debug, Clone)]
pub struct HarnessConfig {
    /// Stable label used in reports (e.g. `ctr-bat-mt-wq`).
    pub label: String,
    /// The controller configuration to exercise.
    pub controller: ControllerConfig,
    /// Working-set size in pages (targets pages `1..=pages`).
    pub pages: u64,
    /// Workload-op budget before undelivered faults are skipped.
    pub max_ops: u64,
}

impl HarnessConfig {
    /// Wraps a controller config with default working-set sizing.
    pub fn new(label: impl Into<String>, controller: ControllerConfig) -> Self {
        HarnessConfig {
            label: label.into(),
            controller,
            pages: 8,
            max_ops: 4000,
        }
    }

    /// The small write queue used by `-wq` matrix entries: shallow
    /// enough that crash-at-depth is reachable, deep enough to coalesce.
    pub fn small_queue() -> WriteQueueConfig {
        WriteQueueConfig {
            capacity: 8,
            drain_low: 2,
            drain_high: 6,
        }
    }

    /// The full sweep matrix: encryption mode × counter persistence ×
    /// integrity × write queue, all on the `small_test` footprint.
    ///
    /// CTR (the Silent Shredder configuration) gets the full cross
    /// product; the non-counter modes (ECB, plain) only vary the queue,
    /// since persistence and integrity are counter properties. Two extra
    /// entries cover the no-shredder CTR baseline and DEUCE.
    pub fn matrix() -> Vec<HarnessConfig> {
        let base = ControllerConfigBuilder::small_test;
        let build = |b: ControllerConfigBuilder| b.build().expect("matrix config must build");
        let mut out = Vec::new();
        for persistence in [
            CounterPersistence::BatteryBackedWriteBack,
            CounterPersistence::WriteThrough,
            CounterPersistence::VolatileWriteBack,
        ] {
            let p = match persistence {
                CounterPersistence::BatteryBackedWriteBack => "bat",
                CounterPersistence::WriteThrough => "wt",
                CounterPersistence::VolatileWriteBack => "vol",
            };
            for integrity in [true, false] {
                for queued in [false, true] {
                    let label = format!(
                        "ctr-{p}{}{}",
                        if integrity { "-mt" } else { "" },
                        if queued { "-wq" } else { "" }
                    );
                    out.push(HarnessConfig::new(
                        label,
                        build(
                            base()
                                .counter_persistence(persistence)
                                .integrity(integrity)
                                .write_queue(queued.then(Self::small_queue)),
                        ),
                    ));
                }
            }
        }
        out.push(HarnessConfig::new(
            "ctr-noshred",
            build(base().shredder(false)),
        ));
        out.push(HarnessConfig::new(
            "ctr-bat-mt-deuce",
            build(base().deuce(true)),
        ));
        // Self-healing demonstrators. `ctr-bat-endu`: wear-out so
        // aggressive (every third write to a line grows a weak cell)
        // that organic failures, rescues, and scrubbing all trigger
        // within one plan; chipkill-class ECC (3,5) keeps the union of
        // accumulated weak cells and a 2-flip injected transient within
        // the detection bound, so nothing can alias silently.
        // `ctr-bat-ber`: a high soft-error rate exercising inline
        // correction (1-bit) and retry/backoff (2-bit bursts) on
        // ordinary reads; detect=4 covers the worst union of an
        // injected 2-flip transient and an organic 2-bit burst.
        out.push(HarnessConfig::new(
            "ctr-bat-endu",
            build(
                base()
                    .endurance_limit(Some(2))
                    .nvm_ecc(EccConfig::strength(3, 5))
                    .spare_lines(64)
                    .scrub_interval(Some(48)),
            ),
        ));
        out.push(HarnessConfig::new(
            "ctr-bat-ber",
            build(
                base()
                    .transient_read_ber(2e-5)
                    .nvm_ecc(EccConfig::strength(1, 4))
                    .spare_lines(64)
                    .scrub_interval(Some(64)),
            ),
        ));
        for queued in [false, true] {
            let wq = if queued { "-wq" } else { "" };
            out.push(HarnessConfig::new(
                format!("ecb{wq}"),
                build(
                    base()
                        .protection(ProtectionMode::Ecb)
                        .shredder(false)
                        .integrity(false)
                        .write_queue(queued.then(Self::small_queue)),
                ),
            ));
            out.push(HarnessConfig::new(
                format!("plain{wq}"),
                build(
                    base()
                        .protection(ProtectionMode::Plain)
                        .shredder(false)
                        .integrity(false)
                        .write_queue(queued.then(Self::small_queue)),
                ),
            ));
        }
        out
    }

    /// The scattered-backend sweep matrix: counter persistence ×
    /// liveness-metadata integrity on the `small_test` footprint, plus a
    /// self-healing row (wear-out + spares + scrubbing, exercising the
    /// fresh-share rescue path). Kept separate from [`Self::matrix`] —
    /// behind the sweep binaries' `--scattered` flag — so the committed
    /// counter-mode goldens stay byte-identical.
    ///
    /// Axes the counter-mode matrix sweeps but this one cannot: the
    /// write queue, DEUCE, and Start-Gap wear levelling are rejected for
    /// scattered configs at the builder choke point (no share-consistent
    /// story; see `ControllerConfig::validate`).
    pub fn scattered_matrix() -> Vec<HarnessConfig> {
        let base = || {
            ControllerConfigBuilder::scattered()
                .data_capacity(1 << 20)
                .counter_cache_bytes(16 << 10)
        };
        let mut out = Vec::new();
        for (persistence, p) in [
            (CounterPersistence::BatteryBackedWriteBack, "bat"),
            (CounterPersistence::WriteThrough, "wt"),
            (CounterPersistence::VolatileWriteBack, "vol"),
        ] {
            for integrity in [true, false] {
                let label = format!("scat-{p}{}", if integrity { "-mt" } else { "" });
                out.push(HarnessConfig::new(
                    label,
                    base()
                        .counter_persistence(persistence)
                        .integrity(integrity)
                        .build()
                        .expect("scattered matrix config must build"),
                ));
            }
        }
        out.push(HarnessConfig::new(
            "scat-bat-heal",
            base()
                .endurance_limit(Some(2))
                .nvm_ecc(EccConfig::strength(3, 5))
                .spare_lines(64)
                .scrub_interval(Some(48))
                .build()
                .expect("scattered matrix config must build"),
        ));
        out
    }

    /// Whether untouched lines architecturally read as zero under this
    /// configuration (Silent Shredder and scattered liveness zero-fill
    /// them; a plain array genuinely holds zeros; other modes decrypt
    /// fresh cells to noise).
    fn zero_fresh(&self) -> bool {
        self.controller.shredder
            || matches!(
                self.controller.protection,
                ProtectionMode::Plain | ProtectionMode::Scattered
            )
    }
}

/// How one injected fault resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Crash + `recover()` round trip left every tracked line intact.
    Recovered,
    /// The fault was surfaced as a hard error (integrity violation,
    /// counter loss, privilege violation) — never as wrong data.
    Detected,
    /// The fault had no architecturally visible effect, or a verified
    /// bounded effect that software scrubbing repaired.
    Benign,
    /// Not deliverable at the fire point (e.g. workload budget spent).
    Skipped,
    /// Undetected corruption: state diverged from the shadow model. The
    /// sweep fails if any fault ends here.
    Corrupted,
}

impl FaultOutcome {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultOutcome::Recovered => "recovered",
            FaultOutcome::Detected => "detected",
            FaultOutcome::Benign => "benign",
            FaultOutcome::Skipped => "skipped",
            FaultOutcome::Corrupted => "CORRUPTED",
        }
    }
}

/// One fired fault and how it resolved.
#[derive(Debug, Clone)]
pub struct FaultRecord {
    /// The scheduled fault as generated.
    pub fault: ScheduledFault,
    /// The NVM write count when it actually fired.
    pub fired_at: u64,
    /// Classification.
    pub outcome: FaultOutcome,
    /// Human-readable explanation (deterministic; no wall-clock).
    pub detail: String,
}

impl fmt::Display for FaultRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<14} page={} block={:<2} bit={:<3} after={:<4} fired={:<5} -> {}: {}",
            self.fault.kind.label(),
            self.fault.page,
            self.fault.block,
            self.fault.bit,
            self.fault.after_writes,
            self.fired_at,
            self.outcome.label(),
            self.detail
        )
    }
}

/// Outcome counts across one or many plans.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Crash round trips that restored all state.
    pub recovered: u64,
    /// Faults surfaced as hard errors.
    pub detected: u64,
    /// Faults with no (or verified-bounded, scrubbed) effect.
    pub benign: u64,
    /// Faults not delivered.
    pub skipped: u64,
    /// Undetected corruptions (must be zero).
    pub corrupted: u64,
}

impl Tally {
    /// Adds one outcome.
    pub fn absorb(&mut self, outcome: FaultOutcome) {
        match outcome {
            FaultOutcome::Recovered => self.recovered += 1,
            FaultOutcome::Detected => self.detected += 1,
            FaultOutcome::Benign => self.benign += 1,
            FaultOutcome::Skipped => self.skipped += 1,
            FaultOutcome::Corrupted => self.corrupted += 1,
        }
    }
}

impl SweepTally for Tally {
    /// Adds every count of `other`.
    fn merge(&mut self, other: Tally) {
        self.recovered += other.recovered;
        self.detected += other.detected;
        self.benign += other.benign;
        self.skipped += other.skipped;
        self.corrupted += other.corrupted;
    }

    /// Total faults tallied.
    fn total(&self) -> u64 {
        self.recovered + self.detected + self.benign + self.skipped + self.corrupted
    }

    fn failed(&self) -> u64 {
        self.corrupted
    }

    /// Renders as a JSON object with a fixed key order — byte-stable so
    /// two sweep files from the same seeds `cmp` equal.
    fn to_json(&self) -> String {
        format!(
            "{{\"recovered\":{},\"detected\":{},\"benign\":{},\"skipped\":{},\"corrupted\":{}}}",
            self.recovered, self.detected, self.benign, self.skipped, self.corrupted
        )
    }
}

impl fmt::Display for Tally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovered={:<3} detected={:<3} benign={:<3} skipped={:<3} corrupted={}",
            self.recovered, self.detected, self.benign, self.skipped, self.corrupted
        )
    }
}

/// The full, deterministic record of one plan run.
#[derive(Debug, Clone)]
pub struct PlanReport {
    /// Config label the plan ran against.
    pub label: String,
    /// Generating seed.
    pub seed: u64,
    /// Workload ops executed.
    pub ops: u64,
    /// Per-fault records, in firing order.
    pub records: Vec<FaultRecord>,
    /// Failure found by the final full verification (if any).
    pub final_failure: Option<String>,
}

impl SweepReport for PlanReport {
    type Tally = Tally;

    /// Outcome counts for this plan.
    fn tally(&self) -> Tally {
        let mut t = Tally::default();
        for r in &self.records {
            t.absorb(r.outcome);
        }
        t
    }

    /// True when no fault corrupted state and the final sweep passed.
    fn clean(&self) -> bool {
        self.final_failure.is_none() && self.tally().corrupted == 0
    }

    /// Renders the full report as one JSON object on a single line:
    /// fixed key order, records in firing order, no maps anywhere on
    /// the path. `faultsweep --json` embeds this verbatim, and the
    /// determinism test byte-compares it across runs.
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":\"{}\",\"seed\":{},\"ops\":{},\"clean\":{},\"tally\":{},\"records\":[",
            json_escape(&self.label),
            self.seed,
            self.ops,
            self.clean(),
            self.tally().to_json()
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("],\"final_failure\":");
        match &self.final_failure {
            Some(e) => {
                out.push('"');
                out.push_str(&json_escape(e));
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push('}');
        out
    }
}

impl FaultRecord {
    /// Renders as a JSON object with a fixed key order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\":\"{}\",\"page\":{},\"block\":{},\"bit\":{},\"after_writes\":{},\
             \"fired_at\":{},\"outcome\":\"{}\",\"detail\":\"{}\"}}",
            self.fault.kind.label(),
            self.fault.page,
            self.fault.block,
            self.fault.bit,
            self.fault.after_writes,
            self.fired_at,
            self.outcome.label(),
            json_escape(&self.detail)
        )
    }
}

impl fmt::Display for PlanReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "plan seed={} config={} ops={} [{}]",
            self.seed,
            self.label,
            self.ops,
            self.tally()
        )?;
        for r in &self.records {
            writeln!(f, "  {r}")?;
        }
        match &self.final_failure {
            Some(e) => writeln!(f, "  final check: FAILED: {e}"),
            None => writeln!(f, "  final check: ok"),
        }
    }
}

/// The `faultsweep` campaign: the seeded fault plan over
/// [`HarnessConfig::matrix`], gated on zero undetected corruptions, with
/// metrics and traces observed. It keeps the plain
/// [`MemoryController`], whose metrics carry no `shard.*` keys.
#[derive(Debug)]
pub struct FaultSweep;

impl Campaign for FaultSweep {
    type Config = HarnessConfig;
    type Report = PlanReport;
    const NAME: &'static str = "faultsweep";
    const DEFAULT_SEEDS: u64 = 32;
    const LABEL_WIDTH: usize = 18;
    const TOTAL_NOUN: &'static str = "faults injected";
    const CLEAN_NOTE: &'static str = "zero undetected corruptions";
    const FAILED_NOUN: &'static str = "corrupted";
    const METRICS: bool = true;

    fn matrix() -> Vec<HarnessConfig> {
        HarnessConfig::matrix()
    }
    fn scattered_matrix() -> Vec<HarnessConfig> {
        HarnessConfig::scattered_matrix()
    }
    fn label(cfg: &HarnessConfig) -> &str {
        &cfg.label
    }
    fn run(cfg: &HarnessConfig, seed: u64, trace_depth: Option<usize>) -> PlanArtifacts {
        run_plan_full(cfg, seed, trace_depth)
    }
}

/// Everything one plan run produces beyond the verdict: the report, a
/// unified metrics snapshot, and (when tracing was enabled) the
/// retained event records. The report is identical to what
/// [`run_plan`] returns for the same `(cfg, seed)`.
pub type PlanArtifacts = Artifacts<PlanReport>;

/// Runs the seeded fault plan against `cfg` and classifies every fault.
///
/// Deterministic: same `(cfg, seed)` ⇒ byte-identical report. The run
/// degrades (remaining faults `Skipped`) after a volatile-counter crash,
/// which is a terminal, *detected* state by design.
///
/// # Panics
///
/// Panics only on harness-internal misuse (controller construction
/// failing for a matrix config). Controller misbehavior is reported as
/// `Corrupted`, never panicked on.
pub fn run_plan(cfg: &HarnessConfig, seed: u64) -> PlanReport {
    run_plan_full(cfg, seed, None).report
}

/// [`run_plan`] plus observability: when `trace_depth` is `Some(n)` the
/// controller retains the last `n` trace events. Tracing never changes
/// the report — `run_plan_full(cfg, seed, d).report` is byte-identical
/// to `run_plan(cfg, seed)` for every `d`.
///
/// # Panics
///
/// As [`run_plan`].
pub fn run_plan_full(cfg: &HarnessConfig, seed: u64, trace_depth: Option<usize>) -> PlanArtifacts {
    let mut controller_cfg = cfg.controller.clone();
    if trace_depth.is_some() {
        controller_cfg.trace_depth = trace_depth;
    }
    let plan = FaultPlan::generate(seed, &controller_cfg, cfg.pages);
    let mut mc = MemoryController::new(controller_cfg).expect("matrix config must build");
    let mut shadow = ShadowModel::new();
    let mut rng = DetRng::new(seed ^ WORKLOAD_DOMAIN);
    let mut records = Vec::with_capacity(plan.faults.len());
    let mut ops = 0u64;
    let mut aborted = false;

    let mut queue = plan.faults.iter().copied().peekable();
    while queue.peek().is_some() {
        // Fire everything due at the current write count.
        while let Some(f) = queue.peek().copied() {
            if aborted {
                records.push(FaultRecord {
                    fault: f,
                    fired_at: mc.inspect().nvm_writes(),
                    outcome: FaultOutcome::Skipped,
                    detail: "run degraded by an earlier detected fault".into(),
                });
                queue.next();
                continue;
            }
            if mc.inspect().nvm_writes() < f.after_writes {
                break;
            }
            let fired_at = mc.inspect().nvm_writes();
            let (outcome, detail, stop) = inject(&mut mc, &mut shadow, cfg, &f);
            records.push(FaultRecord {
                fault: f,
                fired_at,
                outcome,
                detail,
            });
            queue.next();
            if stop {
                aborted = true;
            }
        }
        if aborted {
            continue; // drain the rest as skipped
        }
        if ops >= cfg.max_ops {
            // Budget spent before the remaining fire points were reached
            // (e.g. a coalescing queue kept the write count flat).
            for f in queue.by_ref() {
                records.push(FaultRecord {
                    fault: f,
                    fired_at: mc.inspect().nvm_writes(),
                    outcome: FaultOutcome::Skipped,
                    detail: format!("fire point not reached within {} ops", cfg.max_ops),
                });
            }
            break;
        }
        ops += 1;
        if let Err(e) = workload_op(&mut mc, &mut shadow, cfg, &mut rng) {
            // A fault-free op must never fail; charge it to the run.
            for f in queue.by_ref() {
                records.push(FaultRecord {
                    fault: f,
                    fired_at: mc.inspect().nvm_writes(),
                    outcome: FaultOutcome::Corrupted,
                    detail: format!("workload op failed: {e}"),
                });
            }
            let report = PlanReport {
                label: cfg.label.clone(),
                seed,
                ops,
                records,
                final_failure: Some(e),
            };
            return PlanArtifacts {
                metrics: mc.inspect().metrics(),
                trace: mc.inspect().trace_records(),
                report,
            };
        }
    }

    let final_failure = if aborted {
        None // degraded runs already verified their terminal state
    } else {
        verify_all(&mut mc, &shadow, cfg).err()
    };
    let report = PlanReport {
        label: cfg.label.clone(),
        seed,
        ops,
        records,
        final_failure,
    };
    PlanArtifacts {
        metrics: mc.inspect().metrics(),
        trace: mc.inspect().trace_records(),
        report,
    }
}

/// One deterministic workload step: mostly writes (to advance the NVM
/// write clock that fault fire points key on), plus read-verifies and —
/// when the shredder is configured — direct and MMIO shreds.
fn workload_op(
    mc: &mut MemoryController,
    shadow: &mut ShadowModel,
    cfg: &HarnessConfig,
    rng: &mut DetRng,
) -> Result<(), String> {
    let page = PageId::new(1 + rng.below(cfg.pages));
    let block = rng.below(BLOCKS_PER_PAGE as u64) as usize;
    let addr = page.block_addr(block);
    let roll = rng.below(100);
    if roll < 55 {
        let mut line = [0u8; LINE_SIZE];
        rng.fill_bytes(&mut line);
        mc.write_block(addr, &line, false, Cycles::ZERO)
            .map_err(|e| format!("write {addr} failed: {e}"))?;
        shadow.note_write(addr, line);
    } else if roll < 85 || !cfg.controller.shredder {
        check_read(mc, shadow, cfg, addr)?;
    } else if roll < 95 {
        mc.shred_page(page, true)
            .map_err(|e| format!("shred {page} failed: {e}"))?;
        shadow.note_shred(page);
    } else {
        mc.mmio_write(SHRED_REG, page.base_addr().raw(), true, Cycles::ZERO)
            .map_err(|e| format!("mmio shred {page} failed: {e}"))?;
        shadow.note_shred(page);
    }
    Ok(())
}

/// Reads `addr` and checks it against the shadow model.
fn check_read(
    mc: &mut MemoryController,
    shadow: &ShadowModel,
    cfg: &HarnessConfig,
    addr: ss_common::BlockAddr,
) -> Result<(), String> {
    let r = mc
        .read_block(addr, Cycles::ZERO)
        .map_err(|e| format!("read {addr} failed: {e}"))?;
    if let Some(expected) = shadow.expected(addr, cfg.zero_fresh()) {
        if r.data != expected {
            return Err(format!(
                "read {addr} returned wrong data (expected {:02x?}.., got {:02x?}..)",
                &expected[..4],
                &r.data[..4]
            ));
        }
    }
    if r.zero_filled && r.data != [0u8; LINE_SIZE] {
        return Err(format!("zero-filled read of {addr} returned nonzero data"));
    }
    Ok(())
}

/// Reads back every tracked line of `page` (used after faults whose
/// blast radius is one page).
fn verify_page(
    mc: &mut MemoryController,
    shadow: &ShadowModel,
    page: PageId,
) -> Result<(), String> {
    for (addr, expected) in shadow.tracked_in_page(page) {
        let r = mc
            .read_block(addr, Cycles::ZERO)
            .map_err(|e| format!("read {addr} failed: {e}"))?;
        if r.data != expected {
            return Err(format!("read {addr} diverged from shadow model"));
        }
    }
    Ok(())
}

/// Full invariant sweep: every tracked line matches the shadow model,
/// zero-fill never serves nonzero data, and — for encrypted modes — no
/// cold scan of the raw array surfaces pre-shred plaintext (remanence).
fn verify_all(
    mc: &mut MemoryController,
    shadow: &ShadowModel,
    cfg: &HarnessConfig,
) -> Result<(), String> {
    let tracked: Vec<(ss_common::BlockAddr, Line)> =
        shadow.tracked().map(|(a, l)| (a, *l)).collect();
    for (addr, expected) in tracked {
        let r = mc
            .read_block(addr, Cycles::ZERO)
            .map_err(|e| format!("read {addr} failed: {e}"))?;
        if r.data != expected {
            return Err(format!("read {addr} diverged from shadow model"));
        }
        if r.zero_filled && expected != [0u8; LINE_SIZE] {
            return Err(format!("zero-fill served for live line {addr}"));
        }
    }
    // Remanence applies whenever the mode claims the raw array holds no
    // plaintext: every encrypted mode, and the scattered mode (whose
    // data region holds a uniform-random share).
    let array_is_opaque = cfg.controller.protection != ProtectionMode::Plain;
    if array_is_opaque && shadow.secret_count() > 0 {
        for (addr, raw) in mc.faults().cold_scan_data() {
            if shadow.is_secret(&raw) {
                return Err(format!("pre-shred plaintext survives in NVM at {addr}"));
            }
        }
    }
    Ok(())
}

/// Injects one fault and classifies the controller's response. Returns
/// `(outcome, detail, stop)`; `stop` ends the run (degraded or corrupt).
fn inject(
    mc: &mut MemoryController,
    shadow: &mut ShadowModel,
    cfg: &HarnessConfig,
    f: &ScheduledFault,
) -> (FaultOutcome, String, bool) {
    let page = PageId::new(f.page);
    let addr = page.block_addr(f.block);
    match f.kind {
        FaultKind::PowerLoss => {
            if let Err(e) = mc.power_loss() {
                return (
                    FaultOutcome::Corrupted,
                    format!("power_loss failed: {e}"),
                    true,
                );
            }
            match mc.recover() {
                Ok(()) => match verify_all(mc, shadow, cfg) {
                    Ok(()) => (
                        FaultOutcome::Recovered,
                        "all tracked state intact after crash + recover".into(),
                        false,
                    ),
                    Err(e) => (FaultOutcome::Corrupted, e, true),
                },
                Err(Error::CounterLoss) => {
                    if cfg.controller.counter_persistence != CounterPersistence::VolatileWriteBack {
                        return (
                            FaultOutcome::Corrupted,
                            "persistent-counter config reported counter loss".into(),
                            true,
                        );
                    }
                    // Degraded mode must refuse to serve, never guess.
                    for (a, _) in shadow.tracked().take(8) {
                        if mc.read_block(a, Cycles::ZERO).is_ok() {
                            return (
                                FaultOutcome::Corrupted,
                                format!("read {a} served data after counter loss"),
                                true,
                            );
                        }
                    }
                    (
                        FaultOutcome::Detected,
                        "volatile counters lost; reads refuse to serve (CounterLoss)".into(),
                        true,
                    )
                }
                Err(e) => (
                    FaultOutcome::Corrupted,
                    format!("unexpected recover error: {e}"),
                    true,
                ),
            }
        }
        FaultKind::CounterCacheLineDrop => {
            // ECC-scrub model: persist first, then invalidate, so the
            // re-fetched NVM copy is current and must verify.
            let dirty = match mc.faults().flush_counter_line(page) {
                Ok(d) => d,
                Err(e) => {
                    return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
                }
            };
            let cached = mc.faults().drop_counter_cache_line(page);
            match verify_page(mc, shadow, page) {
                Ok(()) => (
                    FaultOutcome::Benign,
                    format!("line scrubbed (dirty={dirty} cached={cached}); re-fetch verified"),
                    false,
                ),
                Err(e) => (FaultOutcome::Corrupted, e, true),
            }
        }
        FaultKind::DataBitFlip => data_bit_flip(mc, shadow, cfg, addr, f.bit),
        FaultKind::CounterBitFlip => {
            if let Err(e) = mc.faults().flush_counter_line(page) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let good = mc.faults().nvm_peek_counter(page);
            mc.faults().flip_counter_bit(page, f.bit);
            mc.faults().drop_counter_cache_line(page);
            match mc.read_block(addr, Cycles::ZERO) {
                Err(Error::IntegrityViolation { .. }) => {
                    mc.faults().tamper_counter_line(page, good); // restore the array
                    (
                        FaultOutcome::Detected,
                        "Merkle rejected the flipped counter line; array restored".into(),
                        false,
                    )
                }
                Ok(_) => (
                    FaultOutcome::Corrupted,
                    "flipped counter line was accepted".into(),
                    true,
                ),
                Err(e) => (
                    FaultOutcome::Corrupted,
                    format!("unexpected error for flipped counter: {e}"),
                    true,
                ),
            }
        }
        FaultKind::CounterReplay => {
            if let Err(e) = mc.faults().flush_counter_line(page) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let stale = mc.faults().nvm_peek_counter(page);
            // Advance the page legitimately so `stale` becomes a replay.
            let fresh = [(f.bit as u8) ^ 0xC3; LINE_SIZE];
            if let Err(e) = mc.write_block(addr, &fresh, false, Cycles::ZERO) {
                return (FaultOutcome::Corrupted, format!("write failed: {e}"), true);
            }
            shadow.note_write(addr, fresh);
            if let Err(e) = mc.faults().flush_counter_line(page) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let good = mc.faults().nvm_peek_counter(page);
            mc.faults().tamper_counter_line(page, stale);
            mc.faults().drop_counter_cache_line(page);
            match mc.read_block(addr, Cycles::ZERO) {
                Err(Error::IntegrityViolation { .. }) => {
                    mc.faults().tamper_counter_line(page, good);
                    (
                        FaultOutcome::Detected,
                        "Merkle rejected the replayed counter line; array restored".into(),
                        false,
                    )
                }
                Ok(_) => (
                    FaultOutcome::Corrupted,
                    "replayed counter line was accepted".into(),
                    true,
                ),
                Err(e) => (
                    FaultOutcome::Corrupted,
                    format!("unexpected error for replayed counter: {e}"),
                    true,
                ),
            }
        }
        FaultKind::ShredDenied => {
            match mc.mmio_write(SHRED_REG, page.base_addr().raw(), false, Cycles::ZERO) {
                Err(Error::PrivilegeViolation { .. }) => match verify_page(mc, shadow, page) {
                    Ok(()) => (
                        FaultOutcome::Detected,
                        "user-mode shred rejected; page unchanged".into(),
                        false,
                    ),
                    Err(e) => (FaultOutcome::Corrupted, e, true),
                },
                Ok(_) => (
                    FaultOutcome::Corrupted,
                    "user-mode shred was accepted".into(),
                    true,
                ),
                Err(e) => (
                    FaultOutcome::Corrupted,
                    format!("unexpected error for user-mode shred: {e}"),
                    true,
                ),
            }
        }
        FaultKind::ShredDropped => {
            // The command never reaches the controller: the only
            // requirement is that state is exactly as before.
            match verify_page(mc, shadow, page) {
                Ok(()) => (
                    FaultOutcome::Benign,
                    "dropped shred command left the page unchanged".into(),
                    false,
                ),
                Err(e) => (FaultOutcome::Corrupted, e, true),
            }
        }
        FaultKind::TransientReadError => {
            // Give the line architectural content first, else zero-fill
            // serves the read without ever touching the array. Then arm
            // a soft error of 1–2 flips and demand-read: the controller
            // must serve the expected plaintext via inline correction or
            // retry; any software-visible error or wrong data corrupts.
            let prep = [(f.bit as u8) ^ 0x5A; LINE_SIZE];
            if let Err(e) = mc.write_block(addr, &prep, false, Cycles::ZERO) {
                return (
                    FaultOutcome::Corrupted,
                    format!("prep write failed: {e}"),
                    true,
                );
            }
            shadow.note_write(addr, prep);
            let flips = 1 + (f.bit as u32 & 1);
            mc.faults().inject_data_read_error(addr, flips);
            let corrected = mc.inspect().stats().health.ecc_corrected.get();
            let retried = mc.inspect().stats().health.retried_ok.get();
            let read = match mc.read_block(addr, Cycles::ZERO) {
                Ok(r) => r,
                Err(e) => {
                    return (
                        FaultOutcome::Corrupted,
                        format!("transient read error surfaced to software: {e}"),
                        true,
                    );
                }
            };
            if mc.faults().clear_injected_read_error(addr) {
                // Store-forwarding from the write queue satisfied the
                // read without touching the array; the error is moot.
                return (
                    FaultOutcome::Benign,
                    format!("{flips}-flip transient never consumed (store-forwarded); cleared"),
                    false,
                );
            }
            if let Some(want) = shadow.expected(addr, cfg.zero_fresh()) {
                if read.data != want {
                    return (
                        FaultOutcome::Corrupted,
                        "transient read error returned wrong plaintext".into(),
                        true,
                    );
                }
            }
            let via = if mc.inspect().stats().health.retried_ok.get() > retried {
                "retry with backoff"
            } else if mc.inspect().stats().health.ecc_corrected.get() > corrected {
                "inline ECC correction"
            } else {
                // The error fired but neither counter moved — it must
                // have been absorbed somewhere unexpected.
                return (
                    FaultOutcome::Corrupted,
                    "transient consumed without correction or retry".into(),
                    true,
                );
            };
            (
                FaultOutcome::Recovered,
                format!("{flips}-flip transient healed by {via}"),
                false,
            )
        }
        FaultKind::StuckLine => {
            // Give the line architectural content, grow a permanent weak
            // cell in it, then demand-read. If the read touches the
            // array the controller must correct inline and rescue the
            // line to a spare under a fresh IV; with a write queue
            // forwarding the read, the wear-out stays latent and heals
            // on a later array read or scrub pass.
            let prep = [(f.bit as u8) ^ 0xA5; LINE_SIZE];
            if let Err(e) = mc.write_block(addr, &prep, false, Cycles::ZERO) {
                return (
                    FaultOutcome::Corrupted,
                    format!("prep write failed: {e}"),
                    true,
                );
            }
            shadow.note_write(addr, prep);
            let remaps = mc.inspect().remapped_lines();
            mc.faults().force_line_failure(addr, 1);
            let read = match mc.read_block(addr, Cycles::ZERO) {
                Ok(r) => r,
                Err(e) => {
                    return (
                        FaultOutcome::Corrupted,
                        format!("stuck line surfaced to software: {e}"),
                        true,
                    );
                }
            };
            if let Some(want) = shadow.expected(addr, cfg.zero_fresh()) {
                if read.data != want {
                    return (
                        FaultOutcome::Corrupted,
                        "stuck line returned wrong plaintext".into(),
                        true,
                    );
                }
            }
            if mc.inspect().remapped_lines() > remaps {
                shadow.note_remap(addr);
                (
                    FaultOutcome::Recovered,
                    "weak line ECC-corrected and remapped to a spare".into(),
                    false,
                )
            } else {
                (
                    FaultOutcome::Benign,
                    "wear-out latent (store-forwarded read); heals on next array read".into(),
                    false,
                )
            }
        }
    }
}

/// Handles a single stored-bit flip in a data line: the corruption must
/// be invisible (zero-fill or store-forwarding shields it) or bounded by
/// the encryption mode's diffusion (one bit for XOR-stream modes, one
/// 16 B AES chunk for ECB), after which software scrubbing repairs it.
fn data_bit_flip(
    mc: &mut MemoryController,
    shadow: &mut ShadowModel,
    cfg: &HarnessConfig,
    addr: ss_common::BlockAddr,
    bit: usize,
) -> (FaultOutcome, String, bool) {
    mc.faults().flip_data_bit(addr, bit);
    let expected = shadow.expected(addr, cfg.zero_fresh());
    let r = match mc.read_block(addr, Cycles::ZERO) {
        Ok(r) => r,
        Err(e) => {
            return (
                FaultOutcome::Corrupted,
                format!("read after data bit flip failed: {e}"),
                true,
            );
        }
    };
    let Some(expected) = expected else {
        // Untracked garbage line (no architectural content): revert.
        mc.faults().flip_data_bit(addr, bit);
        return (
            FaultOutcome::Benign,
            "flip landed on an untracked line; reverted".into(),
            false,
        );
    };
    if r.data == expected {
        // Shielded: the block is served from the zero-fill path or the
        // write queue, not from the flipped cell. Revert the cell so a
        // later drain/fetch cannot resurrect the flip.
        mc.faults().flip_data_bit(addr, bit);
        return (
            FaultOutcome::Benign,
            "flip shielded by zero-fill/store-forwarding; reverted".into(),
            false,
        );
    }
    // Visible: the deviation must match the mode's diffusion bound.
    let diff_bytes: Vec<usize> = (0..LINE_SIZE)
        .filter(|&i| r.data[i] != expected[i])
        .collect();
    let bounded = match cfg.controller.protection {
        // XOR-stream modes (and no encryption): exactly the flipped bit.
        ProtectionMode::Plain | ProtectionMode::Ctr | ProtectionMode::Scattered => {
            diff_bytes == [bit / 8] && r.data[bit / 8] ^ expected[bit / 8] == 1 << (bit % 8)
        }
        // ECB: garbling confined to the 16 B AES chunk holding the bit.
        ProtectionMode::Ecb => {
            let chunk = bit / 8 / 16;
            diff_bytes.iter().all(|&i| i / 16 == chunk)
        }
    };
    if !bounded {
        return (
            FaultOutcome::Corrupted,
            format!(
                "single-bit flip caused out-of-bound corruption ({} bytes)",
                diff_bytes.len()
            ),
            true,
        );
    }
    // Software scrub: rewrite the architectural value.
    if let Err(e) = mc.write_block(addr, &expected, false, Cycles::ZERO) {
        return (
            FaultOutcome::Corrupted,
            format!("scrub write failed: {e}"),
            true,
        );
    }
    shadow.note_write(addr, expected);
    (
        FaultOutcome::Benign,
        format!(
            "corruption bounded to {} byte(s) as the mode predicts; scrubbed by rewrite",
            diff_bytes.len()
        ),
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_byte_identical_report() {
        for cfg in HarnessConfig::matrix().iter().take(4) {
            let a = run_plan(cfg, 11);
            let b = run_plan(cfg, 11);
            assert_eq!(
                format!("{a}"),
                format!("{b}"),
                "nondeterministic report for {}",
                cfg.label
            );
            // The machine-readable form must be byte-identical too: CI
            // compares two sweep JSON files with cmp.
            assert_eq!(
                a.to_json(),
                b.to_json(),
                "nondeterministic JSON for {}",
                cfg.label
            );
            assert_eq!(a.tally().to_json(), b.tally().to_json());
        }
    }

    #[test]
    fn battery_backed_plans_run_clean() {
        let cfg = &HarnessConfig::matrix()[0]; // ctr-bat-mt
        for seed in 0..4 {
            let report = run_plan(cfg, seed);
            assert!(report.clean(), "seed {seed} not clean:\n{report}");
            assert_eq!(report.tally().corrupted, 0);
        }
    }

    #[test]
    fn volatile_counter_loss_is_detected_not_corrupted() {
        let matrix = HarnessConfig::matrix();
        let cfg = matrix
            .iter()
            .find(|c| c.controller.counter_persistence == CounterPersistence::VolatileWriteBack)
            .unwrap();
        let mut saw_loss = false;
        for seed in 0..16 {
            let report = run_plan(cfg, seed);
            assert!(report.clean(), "seed {seed} not clean:\n{report}");
            saw_loss |= report
                .records
                .iter()
                .any(|r| r.detail.contains("CounterLoss"));
        }
        assert!(saw_loss, "no power-loss fault exercised the volatile path");
    }

    #[test]
    fn matrix_covers_the_announced_axes() {
        let matrix = HarnessConfig::matrix();
        assert!(matrix.len() >= 8, "sweep needs >= 8 configs");
        let labels: Vec<&str> = matrix.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(
            labels.len(),
            labels
                .iter()
                .collect::<std::collections::BTreeSet<_>>()
                .len(),
            "labels must be unique"
        );
        assert!(matrix.iter().any(|c| c.controller.write_queue.is_some()));
        assert!(matrix
            .iter()
            .any(|c| c.controller.protection == ProtectionMode::Ecb));
        assert!(matrix
            .iter()
            .any(|c| c.controller.protection == ProtectionMode::Plain));
        assert!(
            matrix
                .iter()
                .any(|c| c.controller.endurance_limit.is_some()),
            "sweep must cover organic wear-out"
        );
        assert!(
            matrix.iter().any(|c| c.controller.transient_read_ber > 0.0),
            "sweep must cover organic soft errors"
        );
        for cfg in &matrix {
            cfg.controller.validate().expect("matrix config invalid");
        }
    }

    #[test]
    fn scattered_matrix_is_valid_and_deterministic() {
        let matrix = HarnessConfig::scattered_matrix();
        assert!(matrix.len() >= 5, "scattered sweep needs >= 5 configs");
        for cfg in &matrix {
            assert_eq!(cfg.controller.protection, ProtectionMode::Scattered);
            cfg.controller.validate().expect("scattered config invalid");
        }
        let a = run_plan(&matrix[0], 11);
        let b = run_plan(&matrix[0], 11);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn scattered_plans_run_clean() {
        for cfg in HarnessConfig::scattered_matrix() {
            for seed in 0..4 {
                let report = run_plan(&cfg, seed);
                assert!(
                    report.clean(),
                    "{} seed {seed} not clean:\n{report}",
                    cfg.label
                );
            }
        }
    }

    #[test]
    fn scattered_heal_row_rescues_with_fresh_shares() {
        let matrix = HarnessConfig::scattered_matrix();
        let cfg = matrix.iter().find(|c| c.label == "scat-bat-heal").unwrap();
        let mut saw_remap = false;
        for seed in 0..8 {
            let report = run_plan(cfg, seed);
            assert!(report.clean(), "seed {seed} not clean:\n{report}");
            saw_remap |= report
                .records
                .iter()
                .any(|r| r.detail.contains("remapped to a spare"));
        }
        assert!(saw_remap, "no scattered fault exercised the rescue path");
    }

    #[test]
    fn healing_configs_run_clean_and_demonstrate_both_paths() {
        let matrix = HarnessConfig::matrix();
        let mut saw_retry = false;
        let mut saw_remap = false;
        for label in ["ctr-bat-endu", "ctr-bat-ber"] {
            let cfg = matrix.iter().find(|c| c.label == label).unwrap();
            for seed in 0..8 {
                let report = run_plan(cfg, seed);
                assert!(report.clean(), "{label} seed {seed} not clean:\n{report}");
                for r in &report.records {
                    saw_retry |= r.detail.contains("retry with backoff");
                    saw_remap |= r.detail.contains("remapped to a spare");
                }
            }
        }
        assert!(saw_retry, "no fault was healed via the retry path");
        assert!(saw_remap, "no fault was healed via the remap path");
    }
}
