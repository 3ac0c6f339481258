//! The fault-injection engine: drive a workload, fire a plan, classify.
//!
//! [`run_plan`] owns the whole life of one experiment: it builds the
//! machine of a [`SweepConfig`] (one [`ShardedController`], like the
//! attack and crash engines), replays a seeded workload (writes,
//! read-verifies, shreds) while a [`FaultPlan`] watches the cumulative
//! NVM write count, and after every fired fault checks the machine
//! against the [`ShadowModel`]. Every fault ends in exactly one
//! [`FaultOutcome`]; `Corrupted` — architectural state silently
//! diverging from the reference model — is the only failure.

use std::fmt;

use ss_common::{BlockAddr, Cycles, DetRng, Error, PageId, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_core::{
    ControllerConfig, ControllerConfigBuilder, CounterPersistence, EccConfig, NvmTarget,
    ProtectionMode, ShardedController, SHRED_REG,
};
use ss_trace::MetricsRegistry;

use crate::machine::{at_block, at_page, reboot, shard_sum};
use crate::plan::{FaultKind, FaultPlan, ScheduledFault, PAGES};
use crate::report::{json_escape, Outcome, PlanReport, Record, Report};
use crate::shadow::{Line, ShadowModel};
use crate::sweep::{Artifacts, Campaign, SweepConfig};

/// Domain separator for the workload stream (the plan uses its own; see
/// [`FaultPlan::generate`]), so plan and workload draws never interleave.
const WORKLOAD_DOMAIN: u64 = 0x10AD_57A7_E5EE_D001;

/// Workload-op budget of a plan before undelivered faults are skipped.
pub const MAX_OPS: u64 = 4_000;

/// Whether untouched lines architecturally read as zero under `cfg`
/// (Silent Shredder and scattered liveness zero-fill them; a plain array
/// genuinely holds zeros; other modes decrypt fresh cells to noise).
fn zero_fresh(cfg: &ControllerConfig) -> bool {
    cfg.shredder
        || matches!(
            cfg.protection,
            ProtectionMode::Plain | ProtectionMode::Scattered
        )
}

/// How one injected fault resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOutcome {
    /// Crash + `recover_mut()` round trip left every tracked line intact.
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

impl Outcome for FaultOutcome {
    const COLUMNS: &'static [(Self, &'static str, &'static str, usize)] = &[
        (FaultOutcome::Recovered, "recovered", "recovered", 3),
        (FaultOutcome::Detected, "detected", "detected", 3),
        (FaultOutcome::Benign, "benign", "benign", 3),
        (FaultOutcome::Skipped, "skipped", "skipped", 3),
        (FaultOutcome::Corrupted, "corrupted", "corrupted", 0),
    ];
    const FAILED: Self = FaultOutcome::Corrupted;
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

impl Record for FaultRecord {
    type Outcome = FaultOutcome;
    const NOUN: &'static str = "plan";

    fn outcome(&self) -> FaultOutcome {
        self.outcome
    }

    fn to_json(&self) -> String {
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

/// The `faultsweep` campaign: the seeded fault plan over its matrix,
/// gated on zero undetected corruptions, with metrics and traces
/// observed.
#[derive(Debug)]
pub struct FaultSweep;

impl Campaign for FaultSweep {
    type Record = FaultRecord;
    const NAME: &'static str = "faultsweep";
    const DEFAULT_SEEDS: u64 = 32;
    const LABEL_WIDTH: usize = 18;
    const TOTAL_NOUN: &'static str = "faults injected";
    const CLEAN_NOTE: &'static str = "zero undetected corruptions";
    const METRICS: bool = true;

    /// The full sweep matrix: encryption mode × counter persistence ×
    /// integrity × write queue.
    ///
    /// CTR (the Silent Shredder configuration) gets the full cross
    /// product on the `small_test` footprint; the non-counter modes (ECB,
    /// plain) only vary the queue, since persistence and integrity are
    /// counter properties. Extra entries cover the no-shredder CTR
    /// baseline, DEUCE and two self-healing demonstrators. The scattered
    /// two-share rows come last: counter persistence × liveness-metadata
    /// integrity, plus a self-healing row that exercises the fresh-share
    /// rescue path. The write queue, DEUCE and Start-Gap are rejected for
    /// scattered configs at the builder (no share-consistent story; see
    /// `ControllerConfig::validate`), so those rows do not vary them.
    fn matrix() -> Vec<SweepConfig> {
        let base = ControllerConfigBuilder::small_test;
        let scattered = || base().protection(ProtectionMode::Scattered);
        let build = |b: ControllerConfigBuilder| b.build().expect("matrix config must build");
        // Wear-out so aggressive (every third write to a line grows a
        // weak cell) that organic failures, rescues, and scrubbing all
        // trigger within one plan; chipkill-class ECC (3,5) keeps the
        // union of accumulated weak cells and a 2-flip injected transient
        // within the detection bound, so nothing can alias silently.
        let endurance = |b: ControllerConfigBuilder| {
            build(
                b.endurance_limit(Some(2))
                    .nvm_ecc(EccConfig::strength(3, 5))
                    .spare_lines(64)
                    .scrub_interval(Some(48)),
            )
        };
        let persistences = [
            (CounterPersistence::BatteryBackedWriteBack, "bat"),
            (CounterPersistence::WriteThrough, "wt"),
            (CounterPersistence::VolatileWriteBack, "vol"),
        ];
        let mt = |integrity: bool| if integrity { "-mt" } else { "" };
        let mut out = Vec::new();
        for (persistence, p) in persistences {
            for integrity in [true, false] {
                for queued in [false, true] {
                    let wq = if queued { "-wq" } else { "" };
                    out.push(SweepConfig::new(
                        format!("ctr-{p}{}{wq}", mt(integrity)),
                        build(
                            base()
                                .counter_persistence(persistence)
                                .integrity(integrity)
                                .write_queue(queued.then(SweepConfig::small_queue)),
                        ),
                    ));
                }
            }
        }
        out.push(SweepConfig::new(
            "ctr-noshred",
            build(base().shredder(false)),
        ));
        out.push(SweepConfig::new(
            "ctr-bat-mt-deuce",
            build(base().deuce(true)),
        ));
        out.push(SweepConfig::new("ctr-bat-endu", endurance(base())));
        // A high soft-error rate exercising inline correction (1-bit)
        // and retry/backoff (2-bit bursts) on ordinary reads; detect=4
        // covers the worst union of an injected 2-flip transient and an
        // organic 2-bit burst.
        out.push(SweepConfig::new(
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
            for (mode, name) in [
                (ProtectionMode::Ecb, "ecb"),
                (ProtectionMode::Plain, "plain"),
            ] {
                out.push(SweepConfig::new(
                    format!("{name}{wq}"),
                    build(
                        base()
                            .protection(mode)
                            .shredder(false)
                            .integrity(false)
                            .write_queue(queued.then(SweepConfig::small_queue)),
                    ),
                ));
            }
        }
        for (persistence, p) in persistences {
            for integrity in [true, false] {
                out.push(SweepConfig::new(
                    format!("scat-{p}{}", mt(integrity)),
                    build(
                        scattered()
                            .counter_persistence(persistence)
                            .integrity(integrity),
                    ),
                ));
            }
        }
        out.push(SweepConfig::new("scat-bat-heal", endurance(scattered())));
        out
    }

    fn run(cfg: &SweepConfig, seed: u64, trace_depth: Option<usize>) -> PlanArtifacts {
        run_plan_full(cfg, seed, trace_depth)
    }
}

/// Everything one plan run produces beyond the verdict: the report, a
/// unified metrics snapshot, and (when tracing was enabled) the
/// retained event records. The report is identical to what
/// [`run_plan`] returns for the same `(cfg, seed)`.
pub type PlanArtifacts = Artifacts<Report<FaultRecord>>;

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
pub fn run_plan(cfg: &SweepConfig, seed: u64) -> Report<FaultRecord> {
    run_plan_full(cfg, seed, None).report
}

/// [`run_plan`] plus observability: when `trace_depth` is `Some(n)`
/// every shard retains its last `n` trace events. Tracing never changes
/// the report — `run_plan_full(cfg, seed, d).report` is byte-identical
/// to `run_plan(cfg, seed)` for every `d`.
///
/// # Panics
///
/// As [`run_plan`].
pub fn run_plan_full(cfg: &SweepConfig, seed: u64, trace_depth: Option<usize>) -> PlanArtifacts {
    let mut cfg = cfg.clone();
    if trace_depth.is_some() {
        cfg.controller.trace_depth = trace_depth;
    }
    let cfg = &cfg;
    let plan = FaultPlan::generate(seed, &cfg.controller);
    let mut mc = cfg.machine().expect("matrix config must build");
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
                    fired_at: nvm_writes(&mc),
                    outcome: FaultOutcome::Skipped,
                    detail: "run degraded by an earlier detected fault".into(),
                });
                queue.next();
                continue;
            }
            if nvm_writes(&mc) < f.after_writes {
                break;
            }
            let fired_at = nvm_writes(&mc);
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
        if ops >= MAX_OPS {
            // Budget spent before the remaining fire points were reached
            // (e.g. a coalescing queue kept the write count flat).
            for f in queue.by_ref() {
                records.push(FaultRecord {
                    fault: f,
                    fired_at: nvm_writes(&mc),
                    outcome: FaultOutcome::Skipped,
                    detail: format!("fire point not reached within {MAX_OPS} ops"),
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
                    fired_at: nvm_writes(&mc),
                    outcome: FaultOutcome::Corrupted,
                    detail: format!("workload op failed: {e}"),
                });
            }
            return artifacts(&mc, cfg, seed, records, ops, Some(e));
        }
    }

    let final_failure = if aborted {
        None // degraded runs already verified their terminal state
    } else {
        verify_all(&mut mc, &shadow, cfg).err()
    };
    artifacts(&mc, cfg, seed, records, ops, final_failure)
}

/// The machine's NVM write clock: line writes summed over the shards.
fn nvm_writes(mc: &ShardedController) -> u64 {
    shard_sum(mc, |i| i.nvm_writes())
}

/// A finished run: its report, the shards' own metrics registries
/// summed (so no `shard.*` gauge joins the per-controller names), and
/// the shards' retained trace records in shard order.
fn artifacts(
    mc: &ShardedController,
    cfg: &SweepConfig,
    seed: u64,
    records: Vec<FaultRecord>,
    ops: u64,
    final_failure: Option<String>,
) -> PlanArtifacts {
    let mut metrics = MetricsRegistry::new();
    let mut trace = Vec::new();
    for i in (0..mc.shards() as usize).filter_map(|s| mc.inspect_shard(s)) {
        metrics.merge(&i.metrics());
        trace.extend(i.trace_records());
    }
    PlanArtifacts {
        report: Report {
            label: cfg.label.clone(),
            seed,
            records,
            plan: Some(PlanReport { ops, final_failure }),
        },
        metrics,
        trace,
    }
}

/// One deterministic workload step: mostly writes (to advance the NVM
/// write clock that fault fire points key on), plus read-verifies and —
/// when the shredder is configured — direct and MMIO shreds.
fn workload_op(
    mc: &mut ShardedController,
    shadow: &mut ShadowModel,
    cfg: &SweepConfig,
    rng: &mut DetRng,
) -> Result<(), String> {
    let page = PageId::new(1 + rng.below(PAGES));
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
        mc.shred_page_at(page, true, Cycles::ZERO)
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
    mc: &mut ShardedController,
    shadow: &ShadowModel,
    cfg: &SweepConfig,
    addr: BlockAddr,
) -> Result<(), String> {
    let r = mc
        .read_block(addr, Cycles::ZERO)
        .map_err(|e| format!("read {addr} failed: {e}"))?;
    if let Some(expected) = shadow.expected(addr, zero_fresh(&cfg.controller)) {
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
    mc: &mut ShardedController,
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
    mc: &mut ShardedController,
    shadow: &ShadowModel,
    cfg: &SweepConfig,
) -> Result<(), String> {
    let tracked: Vec<(BlockAddr, Line)> = shadow.tracked().map(|(a, l)| (a, *l)).collect();
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
        for s in 0..mc.shards() {
            let scan = mc.faults_shard(s as usize).map(|p| p.cold_scan_data());
            for (local, raw) in scan.unwrap_or_default() {
                if shadow.is_secret(&raw) {
                    let page = mc.interleave().global_page(s, local.page());
                    let addr = page.block_addr(local.block_in_page());
                    return Err(format!("pre-shred plaintext survives in NVM at {addr}"));
                }
            }
        }
    }
    Ok(())
}

/// Injects one fault and classifies the controller's response. Returns
/// `(outcome, detail, stop)`; `stop` ends the run (degraded or corrupt).
fn inject(
    mc: &mut ShardedController,
    shadow: &mut ShadowModel,
    cfg: &SweepConfig,
    f: &ScheduledFault,
) -> (FaultOutcome, String, bool) {
    let page = PageId::new(f.page);
    let addr = page.block_addr(f.block);
    match f.kind {
        FaultKind::PowerLoss => {
            if let Err(e) = mc.power_loss().ok() {
                return (
                    FaultOutcome::Corrupted,
                    format!("power_loss failed: {e}"),
                    true,
                );
            }
            match reboot(mc, cfg.recovery) {
                Ok(_) => match verify_all(mc, shadow, cfg) {
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
            let dirty = match at_page(mc, page, |mut p, local| p.flush_counter_line(local)) {
                Ok(d) => d,
                Err(e) => {
                    return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
                }
            };
            let cached = at_page(mc, page, |mut p, local| p.drop_counter_cache_line(local));
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
            if let Err(e) = at_page(mc, page, |mut p, local| p.flush_counter_line(local)) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let good = at_page(mc, page, |mut p, local| {
                let good = p.nvm_peek(NvmTarget::Counter(local));
                p.nvm_flip_bit(NvmTarget::Counter(local), f.bit);
                p.drop_counter_cache_line(local);
                good
            });
            match mc.read_block(addr, Cycles::ZERO) {
                Err(Error::IntegrityViolation { .. }) => {
                    // Restore the array.
                    at_page(mc, page, |mut p, local| {
                        p.nvm_tamper(NvmTarget::Counter(local), good)
                    });
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
            if let Err(e) = at_page(mc, page, |mut p, local| p.flush_counter_line(local)) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let stale = at_page(mc, page, |p, local| p.nvm_peek(NvmTarget::Counter(local)));
            // Advance the page legitimately so `stale` becomes a replay.
            let fresh = [(f.bit as u8) ^ 0xC3; LINE_SIZE];
            if let Err(e) = mc.write_block(addr, &fresh, false, Cycles::ZERO) {
                return (FaultOutcome::Corrupted, format!("write failed: {e}"), true);
            }
            shadow.note_write(addr, fresh);
            if let Err(e) = at_page(mc, page, |mut p, local| p.flush_counter_line(local)) {
                return (FaultOutcome::Corrupted, format!("flush failed: {e}"), true);
            }
            let good = at_page(mc, page, |mut p, local| {
                let good = p.nvm_peek(NvmTarget::Counter(local));
                p.nvm_tamper(NvmTarget::Counter(local), stale);
                p.drop_counter_cache_line(local);
                good
            });
            match mc.read_block(addr, Cycles::ZERO) {
                Err(Error::IntegrityViolation { .. }) => {
                    at_page(mc, page, |mut p, local| {
                        p.nvm_tamper(NvmTarget::Counter(local), good)
                    });
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
            at_block(mc, addr, |mut p, a| p.inject_data_read_error(a, flips));
            let corrected = shard_sum(mc, |i| i.stats().health.ecc_corrected.get());
            let retried = shard_sum(mc, |i| i.stats().health.retried_ok.get());
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
            if at_block(mc, addr, |mut p, a| p.clear_injected_read_error(a)) {
                // Store-forwarding from the write queue satisfied the
                // read without touching the array; the error is moot.
                return (
                    FaultOutcome::Benign,
                    format!("{flips}-flip transient never consumed (store-forwarded); cleared"),
                    false,
                );
            }
            if let Some(want) = shadow.expected(addr, zero_fresh(&cfg.controller)) {
                if read.data != want {
                    return (
                        FaultOutcome::Corrupted,
                        "transient read error returned wrong plaintext".into(),
                        true,
                    );
                }
            }
            let via = if shard_sum(mc, |i| i.stats().health.retried_ok.get()) > retried {
                "retry with backoff"
            } else if shard_sum(mc, |i| i.stats().health.ecc_corrected.get()) > corrected {
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
            let remaps = shard_sum(mc, |i| i.remapped_lines());
            at_block(mc, addr, |mut p, a| p.force_line_failure(a, 1));
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
            if let Some(want) = shadow.expected(addr, zero_fresh(&cfg.controller)) {
                if read.data != want {
                    return (
                        FaultOutcome::Corrupted,
                        "stuck line returned wrong plaintext".into(),
                        true,
                    );
                }
            }
            if shard_sum(mc, |i| i.remapped_lines()) > remaps {
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
    mc: &mut ShardedController,
    shadow: &mut ShadowModel,
    cfg: &SweepConfig,
    addr: BlockAddr,
    bit: usize,
) -> (FaultOutcome, String, bool) {
    let flip = |mc: &mut ShardedController| {
        at_block(mc, addr, |mut p, a| p.nvm_flip_bit(NvmTarget::Data(a), bit))
    };
    flip(mc);
    let expected = shadow.expected(addr, zero_fresh(&cfg.controller));
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
        flip(mc);
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
        flip(mc);
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
    use crate::sweep::scattered_rows;

    #[test]
    fn battery_backed_plans_run_clean() {
        let cfg = &FaultSweep::matrix()[0]; // ctr-bat-mt
        for seed in 0..4 {
            let report = run_plan(cfg, seed);
            assert!(report.clean(), "seed {seed} not clean:\n{report}");
            assert_eq!(report.tally().failed(), 0);
        }
    }

    #[test]
    fn one_shard_metrics_carry_no_shard_gauges() {
        // The metrics golden holds because a 1-shard run sums the shard's
        // own registry and adds none of the sharding layer's gauges.
        let cfg = &FaultSweep::matrix()[0];
        let metrics = run_plan_full(cfg, 0, None).metrics;
        assert!(metrics.get("ctrl.writes").is_some_and(|w| w > 0));
        let shard_keys: Vec<&str> = metrics
            .iter()
            .map(|(k, _)| k)
            .filter(|k| k.starts_with("shard."))
            .collect();
        assert!(shard_keys.is_empty(), "shard gauges leaked: {shard_keys:?}");
    }

    #[test]
    fn four_shard_plans_never_corrupt() {
        // Every fault and workload op goes through the shared shard
        // router; a mis-routed capability shows up as a corruption.
        let base = FaultSweep::matrix().swap_remove(0);
        assert_eq!(base.label, "ctr-bat-mt");
        let cfg = SweepConfig::sharded("ctr-bat-mt-x4", base.controller, 4);
        for seed in 0..4 {
            let report = run_plan(&cfg, seed);
            assert_eq!(report.tally().failed(), 0, "seed {seed}:\n{report}");
            assert!(report.clean(), "seed {seed} not clean:\n{report}");
        }
    }

    #[test]
    fn volatile_counter_loss_is_detected_not_corrupted() {
        let matrix = FaultSweep::matrix();
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
        let matrix = FaultSweep::matrix();
        assert!(matrix.len() >= 8, "sweep needs >= 8 configs");
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
        assert!(
            matrix
                .iter()
                .any(|c| c.controller.protection == ProtectionMode::Scattered),
            "sweep must cover the scattered two-share mode"
        );
    }

    #[test]
    fn scattered_matrix_is_deterministic() {
        let matrix = scattered_rows::<FaultSweep>();
        assert!(matrix.len() >= 5, "scattered sweep needs >= 5 configs");
        let a = run_plan(&matrix[0], 11);
        let b = run_plan(&matrix[0], 11);
        assert_eq!(a.to_json(), b.to_json());
    }

    #[test]
    fn scattered_plans_run_clean() {
        for cfg in scattered_rows::<FaultSweep>() {
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
        let matrix = scattered_rows::<FaultSweep>();
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
        let matrix = FaultSweep::matrix();
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
