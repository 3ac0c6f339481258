//! Torn-write crash-consistency engine: the persist-step crash matrix.
//!
//! The core crate numbers every durable NVM line write inside a
//! multi-step persist sequence (write-queue drain, counter write +
//! Merkle update, spare-pool remap, batched shred drain, scrubber
//! repair) as a *persist step*, and lets a harness arm a one-shot
//! [`crash cut`](ss_core::CrashCut) that severs the sequence at any
//! step — dropping the interrupted line entirely or leaving a torn
//! 8-byte-aligned prefix of it (DESIGN.md §13). This module turns that
//! hook into an exhaustive sweep:
//!
//! 1. **Census**: each crash scenario runs once against an unarmed
//!    *twin* machine to count the victim operation's persist steps per
//!    shard, and to capture the expected pre-victim (*old*) and
//!    post-victim (*new*) state of every target unit.
//! 2. **Replay**: for every `(shard, step)` crash point — and, under
//!    ADR, a torn-line variant of each — a fresh machine replays the
//!    setup, arms the cut, runs the victim (which must die with
//!    [`ss_common::Error::PowerCut`] under ADR and complete under
//!    eADR), loses power, reboots through
//!    [`ss_core::MemoryController::recover_mut`], and is checked
//!    against the twin's snapshots.
//! 3. **Classification**: every crash point must land in
//!    [`CrashOutcome::OldState`] (the operation rolled back whole),
//!    [`CrashOutcome::NewState`] (it committed whole), or
//!    [`CrashOutcome::Repaired`] (recovery resolved a partially
//!    committed batch, every unit individually consistent). Anything
//!    else — garbage data, a failed recovery, a cut that never fired —
//!    is [`CrashOutcome::Silent`], and `crashsweep` (in `crates/bench`)
//!    exits red on a single one.
//!
//! Everything is a pure function of `(config, seed)`: reports are
//! byte-identical across runs, so CI pins a committed golden.

use std::fmt;

use ss_common::{BlockAddr, Cycles, DetRng, Error, PageId, Result, LINE_SIZE};
use ss_core::{
    ControllerConfig, ControllerConfigBuilder, CounterPersistence, Inspect, PersistDomain,
    ProtectionMode, RecoveryReport, ShardedConfig, ShardedController, WriteQueueConfig,
};

use crate::sweep::{json_escape, Artifacts, Campaign, SweepReport, SweepTally};

/// A 64-byte line.
type Line = [u8; LINE_SIZE];

/// Seed-mixing domain for crash-scenario data patterns, disjoint from
/// the plan/workload/adversary domains so draws never collide.
const CRASH_DOMAIN: u64 = 0xC4A5_4C07_E5EE_D003;

/// Bytes of the cut line left written in the torn-write variant of each
/// ADR crash point (an 8-byte-aligned prefix, per the device's atomic
/// write granule).
const TORN_PREFIX: usize = 32;

// ---------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------

/// One multi-step persist sequence under crash test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashScenario {
    /// A demand write: data line + (write-through) counter line.
    DemandWrite,
    /// A write-queue drain (`fence_drain`) of several queued lines.
    WqueueDrain,
    /// A shred command: counter major bump + minors reset.
    ShredPage,
    /// A demand read rescuing a weak line to a spare under a fresh IV.
    SpareRemap,
    /// A scrubber pass healing a weak line it discovered.
    ScrubRepair,
    /// An explicit flush of dirty (battery-backed) counter lines.
    CounterFlush,
    /// A batched MMIO shred-queue drain across shards.
    ShredDrain,
}

impl CrashScenario {
    /// Every scenario, in report order.
    pub const ALL: [CrashScenario; 7] = [
        CrashScenario::DemandWrite,
        CrashScenario::WqueueDrain,
        CrashScenario::ShredPage,
        CrashScenario::SpareRemap,
        CrashScenario::ScrubRepair,
        CrashScenario::CounterFlush,
        CrashScenario::ShredDrain,
    ];

    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CrashScenario::DemandWrite => "demand-write",
            CrashScenario::WqueueDrain => "wqueue-drain",
            CrashScenario::ShredPage => "shred-page",
            CrashScenario::SpareRemap => "spare-remap",
            CrashScenario::ScrubRepair => "scrub-repair",
            CrashScenario::CounterFlush => "counter-flush",
            CrashScenario::ShredDrain => "shred-drain",
        }
    }

    /// Whether the scenario exercises anything on `cfg`.
    fn applies(self, cfg: &CrashConfig) -> bool {
        let c = &cfg.controller;
        match self {
            CrashScenario::DemandWrite => true,
            CrashScenario::WqueueDrain => cfg.shards == 1 && c.write_queue.is_some(),
            CrashScenario::ShredPage => c.shredder,
            CrashScenario::SpareRemap | CrashScenario::ScrubRepair => {
                cfg.shards == 1 && c.write_queue.is_none() && c.spare_lines > 0
            }
            CrashScenario::CounterFlush => {
                // Counter-mode encryption counters and scattered liveness
                // metadata share the battery-backed write-back cache, so
                // both have dirty lines for an explicit flush to move.
                matches!(
                    c.protection,
                    ProtectionMode::Ctr | ProtectionMode::Scattered
                ) && c.counter_persistence == CounterPersistence::BatteryBackedWriteBack
            }
            CrashScenario::ShredDrain => cfg.shards > 1,
        }
    }
}

// ---------------------------------------------------------------------
// Outcomes, records, tallies
// ---------------------------------------------------------------------

/// How one crash point resolved after reboot and recovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashOutcome {
    /// Every target unit reads exactly its pre-victim state.
    OldState,
    /// Every target unit reads exactly its post-victim state.
    NewState,
    /// Recovery resolved a partially committed batch: units split
    /// between old and new, each one individually consistent, with the
    /// journal having actively rolled back or forward.
    Repaired,
    /// The scenario does not apply to the configuration (or the victim
    /// persisted nothing, leaving no step to cut).
    Skipped,
    /// Anything else: torn garbage served, a cut that never fired, a
    /// failed recovery. Must never appear; `crashsweep` exits red.
    Silent,
}

impl CrashOutcome {
    /// Stable label used in reports and JSON.
    pub fn label(self) -> &'static str {
        match self {
            CrashOutcome::OldState => "old-state",
            CrashOutcome::NewState => "new-state",
            CrashOutcome::Repaired => "repaired",
            CrashOutcome::Skipped => "skipped",
            CrashOutcome::Silent => "SILENT",
        }
    }
}

/// One crash point and how it resolved.
#[derive(Debug, Clone)]
pub struct CrashRecord {
    /// Which persist sequence was cut.
    pub scenario: CrashScenario,
    /// Shard the cut was armed on (0 for a plain controller).
    pub shard: u32,
    /// 1-based persist step *within the victim operation* the cut fired
    /// at (0 for skipped records).
    pub step: u64,
    /// Bytes of the cut line left written (0 = dropped whole).
    pub torn: usize,
    /// Classification.
    pub outcome: CrashOutcome,
    /// Human-readable explanation of the verdict.
    pub detail: String,
}

impl CrashRecord {
    /// Renders as a JSON object with a fixed key order.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"scenario\":\"{}\",\"shard\":{},\"step\":{},\"torn\":{},\"outcome\":\"{}\",\
             \"detail\":\"{}\"}}",
            self.scenario.label(),
            self.shard,
            self.step,
            self.torn,
            self.outcome.label(),
            json_escape(&self.detail)
        )
    }
}

impl fmt::Display for CrashRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<13} s{} step {:<2} torn {:<2} -> {}: {}",
            self.scenario.label(),
            self.shard,
            self.step,
            self.torn,
            self.outcome.label(),
            self.detail
        )
    }
}

/// Outcome counts across one or many crash sweeps.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CrashTally {
    /// Crash points that rolled back whole.
    pub old_state: u64,
    /// Crash points that committed whole.
    pub new_state: u64,
    /// Crash points recovery actively resolved.
    pub repaired: u64,
    /// Scenario/config pairs with nothing to cut.
    pub skipped: u64,
    /// Silent corruption (must be zero).
    pub silent: u64,
}

impl CrashTally {
    /// Adds one outcome.
    pub fn absorb(&mut self, outcome: CrashOutcome) {
        match outcome {
            CrashOutcome::OldState => self.old_state += 1,
            CrashOutcome::NewState => self.new_state += 1,
            CrashOutcome::Repaired => self.repaired += 1,
            CrashOutcome::Skipped => self.skipped += 1,
            CrashOutcome::Silent => self.silent += 1,
        }
    }
}

impl SweepTally for CrashTally {
    /// Adds every count of `other`.
    fn merge(&mut self, other: CrashTally) {
        self.old_state += other.old_state;
        self.new_state += other.new_state;
        self.repaired += other.repaired;
        self.skipped += other.skipped;
        self.silent += other.silent;
    }

    /// Total crash points tallied.
    fn total(&self) -> u64 {
        self.old_state + self.new_state + self.repaired + self.skipped + self.silent
    }

    fn failed(&self) -> u64 {
        self.silent
    }

    /// Renders as a JSON object with a fixed key order — byte-stable so
    /// two sweep files from the same seeds `cmp` equal.
    fn to_json(&self) -> String {
        format!(
            "{{\"old_state\":{},\"new_state\":{},\"repaired\":{},\"skipped\":{},\"silent\":{}}}",
            self.old_state, self.new_state, self.repaired, self.skipped, self.silent
        )
    }
}

impl fmt::Display for CrashTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "old={:<4} new={:<4} repaired={:<4} skipped={:<3} silent={}",
            self.old_state, self.new_state, self.repaired, self.skipped, self.silent
        )
    }
}

/// The full, deterministic record of every crash point swept against
/// one `(config, seed)`.
#[derive(Debug, Clone)]
pub struct CrashReport {
    /// Config label the sweep ran against.
    pub label: String,
    /// Generating seed.
    pub seed: u64,
    /// Per-crash-point records, in [`CrashScenario::ALL`] order.
    pub records: Vec<CrashRecord>,
}

impl SweepReport for CrashReport {
    type Tally = CrashTally;

    /// Outcome counts for this report.
    fn tally(&self) -> CrashTally {
        let mut t = CrashTally::default();
        for r in &self.records {
            t.absorb(r.outcome);
        }
        t
    }

    /// True when no crash point went silent.
    fn clean(&self) -> bool {
        self.tally().silent == 0
    }

    /// Renders the full report as one JSON object on a single line:
    /// fixed key order, records in sweep order. `crashsweep --json`
    /// embeds this verbatim.
    fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"label\":\"{}\",\"seed\":{},\"clean\":{},\"tally\":{},\"records\":[",
            json_escape(&self.label),
            self.seed,
            self.clean(),
            self.tally().to_json()
        );
        for (i, r) in self.records.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&r.to_json());
        }
        out.push_str("]}");
        out
    }
}

impl fmt::Display for CrashReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "crashes seed={} config={} [{}]",
            self.seed,
            self.label,
            self.tally()
        )?;
        for r in &self.records {
            writeln!(f, "  {r}")?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Configurations
// ---------------------------------------------------------------------

/// One named machine configuration under crash test.
#[derive(Debug, Clone)]
pub struct CrashConfig {
    /// Stable label used in reports (e.g. `adr-wt-x4`).
    pub label: String,
    /// The controller configuration (the *total* machine when sharded).
    pub controller: ControllerConfig,
    /// Channel count of the [`ShardedController`] under test (1 behaves
    /// exactly like the plain controller).
    pub shards: u32,
    /// Whether reboot runs the full recovery protocol
    /// ([`ss_core::MemoryController::recover_mut`]) on every shard. The
    /// weakened config turns this off to prove the sweep catches the
    /// resulting corruption.
    pub recovery: bool,
}

impl CrashConfig {
    /// Wraps a controller config as a single-channel target.
    pub fn new(label: impl Into<String>, controller: ControllerConfig) -> Self {
        CrashConfig {
            label: label.into(),
            controller,
            shards: 1,
            recovery: true,
        }
    }

    /// Wraps a controller config as an `n`-channel sharded target.
    pub fn sharded(label: impl Into<String>, controller: ControllerConfig, shards: u32) -> Self {
        CrashConfig {
            shards,
            ..CrashConfig::new(label, controller)
        }
    }

    /// The small write queue used by `-wq` entries (shallow enough that
    /// a drain is a handful of steps, deep enough to hold the working
    /// set without auto-draining during setup).
    fn small_queue() -> WriteQueueConfig {
        WriteQueueConfig {
            capacity: 8,
            drain_low: 2,
            drain_high: 6,
        }
    }

    /// The default crash matrix: the ADR persist-step model across
    /// counter persistence, encryption mode, write queueing, and
    /// sharding, plus the eADR flush-on-fail baseline (cuts never fire
    /// there, preserving the historical queue-drain-on-power-loss
    /// behaviour). Every config resolves every crash point; `crashsweep`
    /// demands zero `Silent` over this matrix.
    pub fn matrix() -> Vec<CrashConfig> {
        let build = |b: ControllerConfigBuilder| b.build().expect("crash matrix config");
        let adr = || ControllerConfigBuilder::small_test().persist_domain(PersistDomain::Adr);
        let adr_wt = || build(adr().counter_persistence(CounterPersistence::WriteThrough));
        vec![
            CrashConfig::new("adr-wt", adr_wt()),
            CrashConfig::new("adr-bat", build(adr())),
            CrashConfig::new(
                "adr-plain-wq",
                build(
                    adr()
                        .protection(ProtectionMode::Plain)
                        .shredder(false)
                        .integrity(false)
                        .write_queue(Some(Self::small_queue())),
                ),
            ),
            CrashConfig::new(
                "adr-ecb-wq",
                build(
                    adr()
                        .protection(ProtectionMode::Ecb)
                        .shredder(false)
                        .integrity(false)
                        .write_queue(Some(Self::small_queue())),
                ),
            ),
            CrashConfig::new(
                "eadr-wq",
                build(ControllerConfigBuilder::small_test().write_queue(Some(Self::small_queue()))),
            ),
            CrashConfig::sharded("adr-wt-x4", adr_wt(), 4),
            CrashConfig::sharded("adr-wt-x8", adr_wt(), 8),
        ]
    }

    /// The scattered-backend crash matrix (behind `crashsweep
    /// --scattered`, with its own committed golden): both ADR counter
    /// persistences, the eADR flush-on-fail baseline, and a sharded
    /// ADR target for the batched shred drain. Under ADR every
    /// scattered persist (data share, mask share, liveness line) flows
    /// through the journaled
    /// [`persist_line`](ss_core::MemoryController) choke point, so a cut
    /// between the two share writes must roll back to a coherent pair —
    /// the sweep proves a torn pair can never recombine to garbage.
    pub fn scattered_matrix() -> Vec<CrashConfig> {
        let base = |domain: PersistDomain, persistence: CounterPersistence| {
            ControllerConfigBuilder::scattered()
                .data_capacity(1 << 20)
                .counter_cache_bytes(16 << 10)
                .persist_domain(domain)
                .counter_persistence(persistence)
                .build()
                .expect("scattered crash config must build")
        };
        vec![
            CrashConfig::new(
                "scat-adr-wt",
                base(PersistDomain::Adr, CounterPersistence::WriteThrough),
            ),
            CrashConfig::new(
                "scat-adr-bat",
                base(
                    PersistDomain::Adr,
                    CounterPersistence::BatteryBackedWriteBack,
                ),
            ),
            CrashConfig::new(
                "scat-eadr",
                base(
                    PersistDomain::Eadr,
                    CounterPersistence::BatteryBackedWriteBack,
                ),
            ),
            CrashConfig::sharded(
                "scat-adr-wt-x4",
                base(PersistDomain::Adr, CounterPersistence::WriteThrough),
                4,
            ),
        ]
    }

    /// A deliberately broken configuration: ADR torn writes with the
    /// reboot recovery protocol disabled. Cutting between a demand
    /// write's data and counter steps leaves new ciphertext under the
    /// old IV — garbage that decrypts silently. `crashsweep --weakened`
    /// must exit red; CI runs it to prove the gate fires.
    pub fn weakened() -> CrashConfig {
        CrashConfig {
            recovery: false,
            ..CrashConfig::new(
                "weakened-norecovery",
                ControllerConfigBuilder::small_test()
                    .counter_persistence(CounterPersistence::WriteThrough)
                    .persist_domain(PersistDomain::Adr)
                    .build()
                    .expect("weakened crash config"),
            )
        }
    }
}

/// The `crashsweep` campaign: every crash point of every
/// [`CrashScenario`] over [`CrashConfig::matrix`], gated on zero silent
/// outcomes, with the no-recovery [`CrashConfig::weakened`] config
/// behind `--weakened`.
#[derive(Debug)]
pub struct CrashSweep;

impl Campaign for CrashSweep {
    type Config = CrashConfig;
    type Report = CrashReport;
    const NAME: &'static str = "crashsweep";
    const DEFAULT_SEEDS: u64 = 8;
    const LABEL_WIDTH: usize = 20;
    const TOTAL_NOUN: &'static str = "crash points";
    const CLEAN_NOTE: &'static str = "zero silent outcomes";
    const FAILED_NOUN: &'static str = "silent";

    fn matrix() -> Vec<CrashConfig> {
        CrashConfig::matrix()
    }
    fn scattered_matrix() -> Vec<CrashConfig> {
        CrashConfig::scattered_matrix()
    }
    fn weakened() -> Option<CrashConfig> {
        Some(CrashConfig::weakened())
    }
    fn label(cfg: &CrashConfig) -> &str {
        &cfg.label
    }
    fn run(cfg: &CrashConfig, seed: u64, _trace_depth: Option<usize>) -> Artifacts<CrashReport> {
        run_crash_config(cfg, seed).into()
    }
}

// ---------------------------------------------------------------------
// The machine: one sharded controller (1 shard = the plain controller)
// ---------------------------------------------------------------------

/// Builds the machine under test. Every config runs on a
/// [`ShardedController`]; `shards: 1` is the plain controller, byte for
/// byte.
fn machine(cfg: &CrashConfig) -> Result<ShardedController> {
    ShardedController::new(ShardedConfig::new(cfg.shards, cfg.controller.clone()))
}

/// Lifetime persist steps of shard `s`.
fn persist_steps(m: &ShardedController, s: u32) -> u64 {
    m.inspect_shard(s as usize).map_or(0, |i| i.persist_steps())
}

/// Sums a per-shard count over every shard.
fn shard_sum(m: &ShardedController, count: impl Fn(Inspect<'_>) -> u64) -> u64 {
    (0..m.shards() as usize)
        .filter_map(|s| m.inspect_shard(s))
        .map(count)
        .sum()
}

/// Reboots every shard: `with_journal`, the full recovery protocol, the
/// per-shard reports merged by summing counts; without it (the weakened
/// config), only the availability check.
fn reboot(m: &mut ShardedController, with_journal: bool) -> Result<RecoveryReport> {
    if !with_journal {
        return m.recover().ok().map(|()| RecoveryReport::default());
    }
    let mut merged = RecoveryReport {
        root_verified: true,
        ..RecoveryReport::default()
    };
    for (_, r) in m.recover_mut_all().into_results() {
        let r = r?;
        merged.journal_open |= r.journal_open;
        if merged.interrupted_tag == 0 {
            merged.interrupted_tag = r.interrupted_tag;
        }
        merged.undone += r.undone;
        merged.redone += r.redone;
        merged.remaps_rolled_back += r.remaps_rolled_back;
        merged.root_verified &= r.root_verified;
        merged.shredded_pages += r.shredded_pages;
    }
    Ok(merged)
}

// ---------------------------------------------------------------------
// Target units and observation
// ---------------------------------------------------------------------

/// One independently-consistent piece of state a scenario touches.
#[derive(Debug, Clone)]
enum Unit {
    /// A data line with distinct pre- and post-victim plaintext.
    Line {
        addr: BlockAddr,
        old: Line,
        new: Line,
    },
    /// A page the victim shreds: old = per-block plaintext, new =
    /// zero-filled.
    Shred {
        page: PageId,
        blocks: Vec<(usize, Line)>,
    },
    /// A weak line the victim rescues to a spare: the plaintext never
    /// changes, the remap count does.
    Remap {
        addr: BlockAddr,
        data: Line,
        old_remapped: u64,
        new_remapped: u64,
    },
}

/// What one unit looked like after reboot.
enum Seen {
    /// `(matches_old, matches_new)` — both can hold when old == new.
    State(bool, bool),
    /// Neither: the failure detail.
    Bad(String),
}

/// Observes `unit` on the rebooted machine. Meta (remap counts) is read
/// before data, because reading a still-weak line re-triggers healing.
fn observe(m: &mut ShardedController, unit: &Unit) -> Seen {
    match unit {
        Unit::Line { addr, old, new } => match m.read_block(*addr, Cycles::ZERO) {
            Ok(r) => {
                let is_old = r.data == *old;
                let is_new = r.data == *new;
                if is_old || is_new {
                    Seen::State(is_old, is_new)
                } else {
                    Seen::Bad(format!(
                        "line {:#x} reads garbage (neither pre- nor post-victim value)",
                        addr.raw()
                    ))
                }
            }
            Err(e) => Seen::Bad(format!("line {:#x} unreadable: {e}", addr.raw())),
        },
        Unit::Shred { page, blocks } => {
            let mut olds = 0usize;
            let mut news = 0usize;
            for (b, old) in blocks {
                match m.read_block(page.block_addr(*b), Cycles::ZERO) {
                    Ok(r) if r.zero_filled && r.data == [0u8; LINE_SIZE] => news += 1,
                    Ok(r) if !r.zero_filled && r.data == *old => olds += 1,
                    Ok(_) => {
                        return Seen::Bad(format!(
                            "page {} block {b} reads garbage after shred cut",
                            page.raw()
                        ));
                    }
                    Err(e) => {
                        return Seen::Bad(format!("page {} block {b} unreadable: {e}", page.raw()));
                    }
                }
            }
            // A shred is atomic per page: a per-block mix is torn state.
            if olds == blocks.len() {
                Seen::State(true, false)
            } else if news == blocks.len() {
                Seen::State(false, true)
            } else {
                Seen::Bad(format!(
                    "page {} half-shredded: {olds} old block(s), {news} zeroed",
                    page.raw()
                ))
            }
        }
        Unit::Remap {
            addr,
            data,
            old_remapped,
            new_remapped,
        } => {
            if shard_sum(m, |i| i.quarantined_lines()) != 0 {
                return Seen::Bad(format!(
                    "line {:#x}: crash turned a rescue into a quarantine",
                    addr.raw()
                ));
            }
            let remapped = shard_sum(m, |i| i.remapped_lines());
            let is_old = remapped == *old_remapped;
            let is_new = remapped == *new_remapped;
            if !is_old && !is_new {
                return Seen::Bad(format!(
                    "remap table inconsistent: {remapped} entries (expected {old_remapped} or \
                     {new_remapped})"
                ));
            }
            match m.read_block(*addr, Cycles::ZERO) {
                Ok(r) if r.data == *data => Seen::State(is_old, is_new),
                Ok(_) => Seen::Bad(format!(
                    "line {:#x} lost its plaintext across the remap cut",
                    addr.raw()
                )),
                Err(e) => Seen::Bad(format!("line {:#x} unreadable: {e}", addr.raw())),
            }
        }
    }
}

/// Folds per-unit observations into one crash-point outcome.
fn classify(seen: &[Seen], report: &RecoveryReport) -> (CrashOutcome, String) {
    let mut all_old = true;
    let mut all_new = true;
    for s in seen {
        match s {
            Seen::State(o, n) => {
                all_old &= o;
                all_new &= n;
            }
            Seen::Bad(detail) => return (CrashOutcome::Silent, detail.clone()),
        }
    }
    let work = format!(
        "undone={} redone={} remaps_rolled_back={}",
        report.undone, report.redone, report.remaps_rolled_back
    );
    if all_new {
        (CrashOutcome::NewState, format!("victim committed ({work})"))
    } else if all_old {
        (
            CrashOutcome::OldState,
            format!("victim rolled back ({work})"),
        )
    } else if report.repaired() {
        (
            CrashOutcome::Repaired,
            format!("partial batch resolved, every unit consistent ({work})"),
        )
    } else {
        (
            CrashOutcome::Silent,
            "units split between old and new with no recovery work".to_string(),
        )
    }
}

// ---------------------------------------------------------------------
// Scenario scripts
// ---------------------------------------------------------------------

/// A deterministic non-zero line pattern (zero plaintext would be
/// indistinguishable from a shredded read).
fn pattern(rng: &mut DetRng) -> Line {
    let b = (rng.next_u64() >> 16) as u8;
    [b | 0x01; LINE_SIZE]
}

/// Runs the scenario's setup phase and returns its target units (with
/// `new` values still unknown for twin capture — the twin fills them).
/// Setup must be byte-deterministic: the crash replays re-run it
/// verbatim and the step census must line up.
fn setup(scen: CrashScenario, m: &mut ShardedController, seed: u64) -> Result<Vec<Unit>> {
    let mut rng = DetRng::new(seed ^ CRASH_DOMAIN ^ (scen.label().len() as u64) << 8);
    match scen {
        CrashScenario::DemandWrite => {
            let addr = PageId::new(1).block_addr(0);
            let old = pattern(&mut rng);
            let mut new = old;
            new.iter_mut().for_each(|b| *b ^= 0x5A);
            m.write_block(addr, &old, false, Cycles::ZERO)?;
            m.fence_drain(Cycles::ZERO)?;
            Ok(vec![Unit::Line { addr, old, new }])
        }
        CrashScenario::WqueueDrain => {
            let mut units = Vec::new();
            // Durable base values first (their own drain), then the new
            // values queued and left undrained for the victim fence.
            for i in 0..4u64 {
                let addr = PageId::new(1 + i).block_addr(i as usize);
                let old = pattern(&mut rng);
                m.write_block(addr, &old, false, Cycles::ZERO)?;
                units.push(Unit::Line {
                    addr,
                    old,
                    new: old,
                });
            }
            m.fence_drain(Cycles::ZERO)?;
            for unit in &mut units {
                if let Unit::Line { addr, old, new } = unit {
                    *new = *old;
                    new.iter_mut().for_each(|b| *b ^= 0x5A);
                    m.write_block(*addr, new, false, Cycles::ZERO)?;
                }
            }
            Ok(units)
        }
        CrashScenario::ShredPage => {
            let page = PageId::new(2);
            let mut blocks = Vec::new();
            for b in [0usize, 1, 7] {
                let old = pattern(&mut rng);
                m.write_block(page.block_addr(b), &old, false, Cycles::ZERO)?;
                blocks.push((b, old));
            }
            m.fence_drain(Cycles::ZERO)?;
            Ok(vec![Unit::Shred { page, blocks }])
        }
        CrashScenario::SpareRemap | CrashScenario::ScrubRepair => {
            // The scrubber's cursor starts at device address 0, so the
            // scrub variant targets page 0 block 0; the demand-rescue
            // variant picks an arbitrary line.
            let addr = if scen == CrashScenario::ScrubRepair {
                PageId::new(0).block_addr(0)
            } else {
                PageId::new(3).block_addr(5)
            };
            let data = pattern(&mut rng);
            m.write_block(addr, &data, false, Cycles::ZERO)?;
            m.flush_counters()?;
            let il = m.interleave();
            let (s, local) = (il.shard_of_block(addr), il.local_block(addr));
            if let Some(mut port) = m.faults_shard(s as usize) {
                port.force_line_failure(local, 1);
            }
            Ok(vec![Unit::Remap {
                addr,
                data,
                old_remapped: 0,
                new_remapped: 1,
            }])
        }
        CrashScenario::CounterFlush => {
            let mut units = Vec::new();
            for i in 0..3u64 {
                let addr = PageId::new(4 + i).block_addr(0);
                let old = pattern(&mut rng);
                m.write_block(addr, &old, false, Cycles::ZERO)?;
                // The flush moves counters, not data: old == new.
                units.push(Unit::Line {
                    addr,
                    old,
                    new: old,
                });
            }
            Ok(units)
        }
        CrashScenario::ShredDrain => {
            let mut units = Vec::new();
            // One page per shard, so the batched drain walks every
            // shard's queue group in order.
            for i in 0..m.shards() as u64 {
                let page = PageId::new(1 + i);
                let old = pattern(&mut rng);
                m.write_block(page.block_addr(0), &old, false, Cycles::ZERO)?;
                units.push(Unit::Shred {
                    page,
                    blocks: vec![(0, old)],
                });
            }
            for i in 0..m.shards() as u64 {
                m.enqueue_shred(PageId::new(1 + i), true)?;
            }
            Ok(units)
        }
    }
}

/// Runs the scenario's victim operation — the persist sequence under
/// crash test.
fn victim(scen: CrashScenario, m: &mut ShardedController, units: &[Unit]) -> Result<()> {
    match scen {
        CrashScenario::DemandWrite => {
            for unit in units {
                if let Unit::Line { addr, new, .. } = unit {
                    m.write_block(*addr, new, false, Cycles::ZERO)?;
                }
            }
            Ok(())
        }
        CrashScenario::WqueueDrain => m.fence_drain(Cycles::ZERO).map(|_| ()),
        CrashScenario::ShredPage => {
            for unit in units {
                if let Unit::Shred { page, .. } = unit {
                    m.shred_page_at(*page, true, Cycles::ZERO)?;
                }
            }
            Ok(())
        }
        CrashScenario::SpareRemap => {
            for unit in units {
                if let Unit::Remap { addr, .. } = unit {
                    m.read_block(*addr, Cycles::ZERO)?;
                }
            }
            Ok(())
        }
        CrashScenario::ScrubRepair => m.scrub_step(Cycles::ZERO).map(|_| ()),
        CrashScenario::CounterFlush => m.flush_counters(),
        CrashScenario::ShredDrain => m.drain_shreds(true, Cycles::ZERO).map(|_| ()),
    }
}

// ---------------------------------------------------------------------
// The sweep
// ---------------------------------------------------------------------

/// Sweeps every crash point of one scenario on one config.
fn run_crash_scenario(cfg: &CrashConfig, scen: CrashScenario, seed: u64) -> Vec<CrashRecord> {
    let skip = |detail: &str| {
        vec![CrashRecord {
            scenario: scen,
            shard: 0,
            step: 0,
            torn: 0,
            outcome: CrashOutcome::Skipped,
            detail: detail.to_string(),
        }]
    };
    let fail = |detail: String| {
        vec![CrashRecord {
            scenario: scen,
            shard: 0,
            step: 0,
            torn: 0,
            outcome: CrashOutcome::Silent,
            detail,
        }]
    };
    if !scen.applies(cfg) {
        return skip("not applicable to this configuration");
    }

    // Census pass: an unarmed twin runs setup + victim once, counting
    // the victim's persist steps per shard and capturing expected state.
    let mut twin = match machine(cfg) {
        Ok(m) => m,
        Err(e) => return fail(format!("config does not build: {e}")),
    };
    let units = match setup(scen, &mut twin, seed) {
        Ok(u) => u,
        Err(e) => return fail(format!("setup failed on the twin: {e}")),
    };
    let shards = twin.shards();
    let before: Vec<u64> = (0..shards).map(|s| persist_steps(&twin, s)).collect();
    if let Err(e) = victim(scen, &mut twin, &units) {
        return fail(format!("victim failed unarmed on the twin: {e}"));
    }
    let after: Vec<u64> = (0..shards).map(|s| persist_steps(&twin, s)).collect();
    if before == after {
        return skip("victim persisted nothing; no step to cut");
    }

    let adr = cfg.controller.persist_domain == PersistDomain::Adr;
    let torn_variants: &[usize] = if adr { &[0, TORN_PREFIX] } else { &[0] };
    let mut records = Vec::new();
    for s in 0..shards {
        for at in (before[s as usize] + 1)..=after[s as usize] {
            for &torn in torn_variants {
                let rel_step = at - before[s as usize];
                let (outcome, detail) = replay_crash_point(cfg, scen, seed, s, at, torn);
                records.push(CrashRecord {
                    scenario: scen,
                    shard: s,
                    step: rel_step,
                    torn,
                    outcome,
                    detail,
                });
            }
        }
    }
    records
}

/// Replays one crash point: fresh machine, deterministic setup, cut
/// armed at absolute persist step `at` on `shard`, victim, power loss,
/// reboot recovery, classification against the twin's snapshots.
fn replay_crash_point(
    cfg: &CrashConfig,
    scen: CrashScenario,
    seed: u64,
    shard: u32,
    at: u64,
    torn: usize,
) -> (CrashOutcome, String) {
    let adr = cfg.controller.persist_domain == PersistDomain::Adr;
    let mut m = match machine(cfg) {
        Ok(m) => m,
        Err(e) => return (CrashOutcome::Silent, format!("config does not build: {e}")),
    };
    let units = match setup(scen, &mut m, seed) {
        Ok(u) => u,
        Err(e) => return (CrashOutcome::Silent, format!("replay setup failed: {e}")),
    };
    if let Some(mut port) = m.faults_shard(shard as usize) {
        port.arm_crash_cut(at, torn);
    }
    match victim(scen, &mut m, &units) {
        Err(Error::PowerCut { .. }) if adr => {}
        Err(e) => {
            return (
                CrashOutcome::Silent,
                format!("victim died of the wrong cause: {e}"),
            );
        }
        Ok(()) if adr => {
            // The cut may fire on the sequence's very last persist step
            // and still let the operation finish its in-memory epilogue;
            // what matters is that the machine is off afterwards.
            if !m
                .faults_shard(shard as usize)
                .is_some_and(|p| p.crash_cut_fired())
            {
                return (
                    CrashOutcome::Silent,
                    format!("armed cut at step {at} never fired (census mismatch)"),
                );
            }
        }
        Ok(()) => {} // eADR: flush-on-fail completes the sequence.
    }
    if let Err(e) = m.power_loss().ok() {
        return (CrashOutcome::Silent, format!("power_loss failed: {e}"));
    }
    let report = match reboot(&mut m, cfg.recovery) {
        Ok(r) => r,
        Err(e) => return (CrashOutcome::Silent, format!("recovery failed: {e}")),
    };
    let seen: Vec<Seen> = units.iter().map(|u| observe(&mut m, u)).collect();
    classify(&seen, &report)
}

/// Sweeps every scenario's crash points against one `(config, seed)`.
pub fn run_crash_config(cfg: &CrashConfig, seed: u64) -> CrashReport {
    let mut records = Vec::new();
    for scen in CrashScenario::ALL {
        records.extend(run_crash_scenario(cfg, scen, seed));
    }
    CrashReport {
        label: cfg.label.clone(),
        seed,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_labels_are_unique_and_valid() {
        let matrix = CrashConfig::matrix();
        let mut labels: Vec<&str> = matrix.iter().map(|c| c.label.as_str()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), matrix.len(), "duplicate config labels");
        for cfg in &matrix {
            cfg.controller.validate().expect("matrix config invalid");
            assert!(cfg.recovery, "matrix configs all recover");
        }
        assert!(!CrashConfig::weakened().recovery);
    }

    #[test]
    fn adr_demand_write_sweep_is_clean() {
        let cfg = &CrashConfig::matrix()[0]; // adr-wt
        let records = run_crash_scenario(cfg, CrashScenario::DemandWrite, 0);
        assert!(!records.is_empty());
        for r in &records {
            assert_ne!(r.outcome, CrashOutcome::Silent, "{r}");
            assert_ne!(r.outcome, CrashOutcome::Skipped, "{r}");
        }
    }

    #[test]
    fn eadr_cuts_never_fire() {
        let cfg = CrashConfig::new("eadr", ControllerConfig::small_test());
        let records = run_crash_scenario(&cfg, CrashScenario::DemandWrite, 1);
        assert!(!records.is_empty());
        for r in &records {
            assert_eq!(
                r.outcome,
                CrashOutcome::NewState,
                "eADR completes every sequence: {r}"
            );
        }
    }

    #[test]
    fn scattered_crash_matrix_is_clean() {
        for cfg in CrashConfig::scattered_matrix() {
            assert_eq!(cfg.controller.protection, ProtectionMode::Scattered);
            let report = run_crash_config(&cfg, 0);
            assert!(report.clean(), "{} went silent:\n{report}", cfg.label);
        }
    }

    #[test]
    fn scattered_demand_write_cut_never_recombines_garbage() {
        // The scattered-specific hazard: a cut between the data-share
        // and mask-share writes leaves a mismatched pair. Every demand-
        // write crash point must resolve to old or new state, proving
        // the journal restores pair coherence.
        let matrix = CrashConfig::scattered_matrix();
        let cfg = matrix.iter().find(|c| c.label == "scat-adr-wt").unwrap();
        let records = run_crash_scenario(cfg, CrashScenario::DemandWrite, 3);
        assert!(!records.is_empty());
        for r in &records {
            assert!(
                matches!(r.outcome, CrashOutcome::OldState | CrashOutcome::NewState),
                "torn share pair survived: {r}"
            );
        }
    }

    #[test]
    fn weakened_config_goes_silent() {
        let cfg = CrashConfig::weakened();
        let report = run_crash_config(&cfg, 0);
        assert!(
            report.tally().silent > 0,
            "no-recovery ADR must serve torn garbage somewhere:\n{report}"
        );
    }

    #[test]
    fn report_json_has_fixed_shape() {
        let cfg = CrashConfig::new("eadr", ControllerConfig::small_test());
        let report = run_crash_config(&cfg, 0);
        let json = report.to_json();
        assert!(json.starts_with("{\"label\":\"eadr\",\"seed\":0,"));
        assert_eq!(json, report.to_json(), "rendering must be pure");
    }
}
