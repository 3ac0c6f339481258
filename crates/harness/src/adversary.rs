//! The adversary model: scripted persistence-based attacks.
//!
//! `faultsweep` answers "does the controller survive *accidents*?";
//! this module answers "does it survive an *adversary*?". The attacker
//! of *Architecting NVMM to Guard Against Persistence-based Attacks*
//! (arXiv:1902.03518) is strictly stronger than a fault: they choose
//! *when* to strike, they keep what they stole across power cycles, and
//! they can write persistent state back. [`Adversary`] gives that
//! attacker a concrete, capability-scoped API:
//!
//! * **cold scan** ([`Adversary::cold_scan`]): with the DIMM powered
//!   off, read every persisted line raw — data region, spare pool and
//!   counter region — plus a snapshot of the (on-chip, *untouchable*)
//!   Merkle roots for the record.
//! * **stolen-DIMM offline read** ([`Adversary::offline_read`]): the
//!   strongest §4.1 attacker — they hold the array, the persisted
//!   counters *and* the processor key, and try to decrypt a line
//!   offline.
//! * **counter rollback / stale-state replay**
//!   ([`Adversary::capture_line`], [`Adversary::capture_counter`],
//!   [`Adversary::replay_line`], [`Adversary::replay_counter`]): write
//!   previously captured ciphertext and counter lines back into NVM
//!   between power cycles, then let the machine reboot on the stale
//!   state.
//! * **unprivileged software** ([`Adversary::user_shred`]): a user-mode
//!   process poking the kernel-only shred MMIO register.
//!
//! Multi-step attack scenarios ([`AttackKind`]) are driven by
//! [`run_attack`] against a [`ShardedController`] — one shard is the
//! plain controller, byte for byte — and every physical capability
//! routes through the per-shard `Inspect`/`FaultPort` facades at the
//! interleaved address. Every attack
//! ends in exactly one [`AttackOutcome`]; `Leaked` is the only failure
//! and any `Leaked` turns the `attacksweep` binary's exit red.
//!
//! Everything is seeded through [`ss_common::DetRng`]: the same
//! `(config, attack, seed)` always produces the same steps and the same
//! byte-identical report.

use std::collections::BTreeSet;
use std::fmt;

use ss_common::{BlockAddr, Cycles, DetRng, Error, PageId, Result, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_core::{
    ControllerConfig, ControllerConfigBuilder, CounterPersistence, FaultPort, ProtectionMode,
    ReadResult, ShardedConfig, ShardedController, ShredStrategy, WriteQueueConfig, SHRED_REG,
};

use crate::shadow::Line;
use crate::sweep::{json_escape, Artifacts, Campaign, SweepReport, SweepTally};

/// Domain separator for attack-scenario RNG streams (distinct from the
/// fault-plan and workload domains in `plan.rs`/`engine.rs`).
const ATTACK_DOMAIN: u64 = 0xA77A_C4E2_5EED_0002;

/// One scripted multi-step attack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackKind {
    /// Write secrets, shred them, power off, steal the DIMM: cold-scan
    /// every persisted region, attempt an offline decrypt with the key,
    /// then reboot and read. Nothing may yield the secret.
    ShredThenSteal,
    /// Wear a secret-bearing line until the healing path rescues it
    /// into the spare pool, then shred and probe the pool for residue:
    /// the rescue must have used a fresh IV and the shred must cover
    /// the spare as well as the original.
    RemapProbe,
    /// Capture ciphertext + counter line at one power cycle, let the
    /// victim overwrite, then write the stale state back at reboot.
    /// The Merkle tree (whose root the adversary cannot roll back) must
    /// detect the replay.
    RollbackReplay,
    /// Race the background scrubber against a shred: grow weak cells in
    /// a secret page, shred it, then run a full scrub pass. The
    /// scrubber's rescues must not resurrect pre-shred plaintext into
    /// the spare pool.
    ScrubRace,
}

impl AttackKind {
    /// Every attack, in the fixed order reports use.
    pub const ALL: [AttackKind; 4] = [
        AttackKind::ShredThenSteal,
        AttackKind::RemapProbe,
        AttackKind::RollbackReplay,
        AttackKind::ScrubRace,
    ];

    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AttackKind::ShredThenSteal => "shred-then-steal",
            AttackKind::RemapProbe => "remap-probe",
            AttackKind::RollbackReplay => "rollback-replay",
            AttackKind::ScrubRace => "scrub-race",
        }
    }

    /// Per-kind RNG domain so adding an attack never perturbs another's
    /// secrets or page picks.
    fn domain(self) -> u64 {
        match self {
            AttackKind::ShredThenSteal => 0x51ED,
            AttackKind::RemapProbe => 0x4EAB,
            AttackKind::RollbackReplay => 0x4011,
            AttackKind::ScrubRace => 0x5C4B,
        }
    }
}

/// How one attack resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackOutcome {
    /// Every probe was denied the secret: the defense held silently.
    Defended,
    /// The attack was surfaced as a hard error (integrity violation,
    /// privilege violation) — the machine refused rather than served.
    Detected,
    /// The adversary recovered protected data, or tampered state was
    /// accepted silently. Any `Leaked` is a hard sweep failure.
    Leaked,
    /// Not applicable to this configuration (e.g. no spare pool to
    /// probe).
    Skipped,
}

impl AttackOutcome {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            AttackOutcome::Defended => "defended",
            AttackOutcome::Detected => "detected",
            AttackOutcome::Leaked => "LEAKED",
            AttackOutcome::Skipped => "skipped",
        }
    }
}

/// One attack and how it resolved, with the scripted steps that led
/// there (deterministic; no wall-clock anywhere).
#[derive(Debug, Clone)]
pub struct AttackRecord {
    /// Which attack ran.
    pub kind: AttackKind,
    /// Classification.
    pub outcome: AttackOutcome,
    /// The adversary's scripted steps, in execution order.
    pub steps: Vec<String>,
    /// Human-readable explanation of the verdict.
    pub detail: String,
}

impl AttackRecord {
    /// Renders as a JSON object with a fixed key order.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"attack\":\"{}\",\"outcome\":\"{}\",\"steps\":[",
            self.kind.label(),
            self.outcome.label()
        );
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(&json_escape(s));
            out.push('"');
        }
        out.push_str(&format!("],\"detail\":\"{}\"}}", json_escape(&self.detail)));
        out
    }
}

impl fmt::Display for AttackRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} -> {}: {}",
            self.kind.label(),
            self.outcome.label(),
            self.detail
        )
    }
}

/// Outcome counts across one or many attack runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AttackTally {
    /// Attacks the defenses absorbed silently.
    pub defended: u64,
    /// Attacks surfaced as hard errors.
    pub detected: u64,
    /// Successful attacks (must be zero).
    pub leaked: u64,
    /// Attacks inapplicable to the configuration.
    pub skipped: u64,
}

impl AttackTally {
    /// Adds one outcome.
    pub fn absorb(&mut self, outcome: AttackOutcome) {
        match outcome {
            AttackOutcome::Defended => self.defended += 1,
            AttackOutcome::Detected => self.detected += 1,
            AttackOutcome::Leaked => self.leaked += 1,
            AttackOutcome::Skipped => self.skipped += 1,
        }
    }
}

impl SweepTally for AttackTally {
    /// Adds every count of `other`.
    fn merge(&mut self, other: AttackTally) {
        self.defended += other.defended;
        self.detected += other.detected;
        self.leaked += other.leaked;
        self.skipped += other.skipped;
    }

    /// Total attacks tallied.
    fn total(&self) -> u64 {
        self.defended + self.detected + self.leaked + self.skipped
    }

    fn failed(&self) -> u64 {
        self.leaked
    }

    /// Renders as a JSON object with a fixed key order — byte-stable so
    /// two sweep files from the same seeds `cmp` equal.
    fn to_json(&self) -> String {
        format!(
            "{{\"defended\":{},\"detected\":{},\"leaked\":{},\"skipped\":{}}}",
            self.defended, self.detected, self.leaked, self.skipped
        )
    }
}

impl fmt::Display for AttackTally {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "defended={:<3} detected={:<3} skipped={:<3} leaked={}",
            self.defended, self.detected, self.skipped, self.leaked
        )
    }
}

/// The full, deterministic record of every attack run against one
/// `(config, seed)`.
#[derive(Debug, Clone)]
pub struct AttackReport {
    /// Config label the attacks ran against.
    pub label: String,
    /// Generating seed.
    pub seed: u64,
    /// Per-attack records, in [`AttackKind::ALL`] order.
    pub records: Vec<AttackRecord>,
}

impl SweepReport for AttackReport {
    type Tally = AttackTally;

    /// Outcome counts for this report.
    fn tally(&self) -> AttackTally {
        let mut t = AttackTally::default();
        for r in &self.records {
            t.absorb(r.outcome);
        }
        t
    }

    /// True when no attack leaked.
    fn clean(&self) -> bool {
        self.tally().leaked == 0
    }

    /// Renders the full report as one JSON object on a single line:
    /// fixed key order, records in attack order, no maps anywhere on
    /// the path. `attacksweep --json` embeds this verbatim.
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

impl fmt::Display for AttackReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "attacks seed={} config={} [{}]",
            self.seed,
            self.label,
            self.tally()
        )?;
        for r in &self.records {
            writeln!(f, "  {r}")?;
            for s in &r.steps {
                writeln!(f, "      . {s}")?;
            }
        }
        Ok(())
    }
}

/// One named machine configuration under attack.
#[derive(Debug, Clone)]
pub struct AttackConfig {
    /// Stable label used in reports (e.g. `ctr-bat-mt-x4`).
    pub label: String,
    /// The controller configuration (the *total* machine when sharded).
    pub controller: ControllerConfig,
    /// Channel count of the [`ShardedController`] under attack, over
    /// the round-robin interleave (1 behaves exactly like the plain
    /// controller).
    pub shards: u32,
    /// Working-set size in pages (attacks target pages `1..=pages`,
    /// which covers every shard once `pages >= shards`).
    pub pages: u64,
}

impl AttackConfig {
    /// Wraps a controller config as a single-channel target.
    pub fn new(label: impl Into<String>, controller: ControllerConfig) -> Self {
        AttackConfig {
            label: label.into(),
            controller,
            shards: 1,
            pages: 8,
        }
    }

    /// Wraps a controller config as an `n`-channel sharded target.
    pub fn sharded(label: impl Into<String>, controller: ControllerConfig, shards: u32) -> Self {
        AttackConfig {
            shards,
            ..AttackConfig::new(label, controller)
        }
    }

    /// The default attack matrix: the paper's secure configuration
    /// across counter persistence, write queueing, healing pressure,
    /// and sharding. Every config defends every attack — `attacksweep`
    /// demands zero `Leaked` over this matrix.
    pub fn matrix() -> Vec<AttackConfig> {
        let base = ControllerConfigBuilder::small_test;
        let build = |b: ControllerConfigBuilder| b.build().expect("attack matrix config");
        let queue = WriteQueueConfig {
            capacity: 8,
            drain_low: 2,
            drain_high: 6,
        };
        vec![
            AttackConfig::new("ctr-bat-mt", build(base())),
            AttackConfig::new(
                "ctr-wt-mt",
                build(base().counter_persistence(CounterPersistence::WriteThrough)),
            ),
            AttackConfig::new("ctr-bat-mt-wq", build(base().write_queue(Some(queue)))),
            AttackConfig::new(
                "ctr-bat-mt-heal",
                build(base().spare_lines(64).scrub_interval(Some(32))),
            ),
            AttackConfig::sharded("ctr-bat-mt-x4", build(base()), 4),
            AttackConfig::sharded("ctr-bat-mt-x8", build(base()), 8),
        ]
    }

    /// The scattered-backend attack matrix (behind `attacksweep
    /// --scattered`, with its own committed golden). The headline
    /// scenario is the stolen DIMM: the offline attacker holds the data
    /// region, the mask region, the liveness metadata *and* the
    /// processor key — and must still classify `Defended`, because
    /// after a shred the surviving data share recombines with fresh
    /// randomness to nothing.
    pub fn scattered_matrix() -> Vec<AttackConfig> {
        let base = || {
            ControllerConfigBuilder::scattered()
                .data_capacity(1 << 20)
                .counter_cache_bytes(16 << 10)
        };
        let build = |b: ControllerConfigBuilder| b.build().expect("scattered attack config");
        vec![
            AttackConfig::new("scat-bat-mt", build(base())),
            AttackConfig::new(
                "scat-wt-mt",
                build(base().counter_persistence(CounterPersistence::WriteThrough)),
            ),
            AttackConfig::new(
                "scat-bat-mt-heal",
                build(base().spare_lines(64).scrub_interval(Some(32))),
            ),
            AttackConfig::sharded("scat-bat-mt-x4", build(base()), 4),
        ]
    }

    /// A deliberately weakened configuration (no Merkle tree): the
    /// rollback-replay attack *succeeds* against it. Used to verify the
    /// sweep actually turns red on a leak — it is never part of
    /// [`AttackConfig::matrix`].
    pub fn weakened() -> AttackConfig {
        AttackConfig::new(
            "weak-nomt",
            ControllerConfigBuilder::small_test()
                .integrity(false)
                .build()
                .expect("weakened config"),
        )
    }
}

/// The `attacksweep` campaign: every attack in [`AttackKind::ALL`] over
/// [`AttackConfig::matrix`], gated on zero leaked outcomes, with the
/// no-Merkle [`AttackConfig::weakened`] config behind `--weakened`.
#[derive(Debug)]
pub struct AttackSweep;

impl Campaign for AttackSweep {
    type Config = AttackConfig;
    type Report = AttackReport;
    const NAME: &'static str = "attacksweep";
    const DEFAULT_SEEDS: u64 = 32;
    const LABEL_WIDTH: usize = 18;
    const TOTAL_NOUN: &'static str = "attacks run";
    const CLEAN_NOTE: &'static str = "zero leaked outcomes";
    const FAILED_NOUN: &'static str = "leaked";

    fn matrix() -> Vec<AttackConfig> {
        AttackConfig::matrix()
    }
    fn scattered_matrix() -> Vec<AttackConfig> {
        AttackConfig::scattered_matrix()
    }
    fn weakened() -> Option<AttackConfig> {
        Some(AttackConfig::weakened())
    }
    fn label(cfg: &AttackConfig) -> &str {
        &cfg.label
    }
    fn run(cfg: &AttackConfig, seed: u64, _trace_depth: Option<usize>) -> Artifacts<AttackReport> {
        run_attacks(cfg, seed).into()
    }
}

/// Everything a cold scan exfiltrates: the raw persisted state of the
/// DIMM, grouped by region, plus a snapshot of the on-chip Merkle roots
/// (which the adversary can *see* here for bookkeeping but can never
/// write — that asymmetry is what defeats rollback).
#[derive(Debug, Clone)]
pub struct DimmImage {
    /// Raw data-region and spare-pool lines: `(shard, address, bytes)`.
    pub data: Vec<(u32, BlockAddr, Line)>,
    /// Spare-pool lines only (a subset of `data` by content).
    pub spares: Vec<(u32, BlockAddr, Line)>,
    /// Persisted counter lines, keyed by shard-local page.
    pub counters: Vec<(u32, PageId, Line)>,
    /// On-chip Merkle root per shard (`None` when integrity is off).
    pub merkle_roots: Vec<(u32, Option<[u8; 32]>)>,
}

impl DimmImage {
    /// Whether any persisted line (data, spare or counter) holds
    /// exactly `line` — the residue test for plaintext remanence.
    pub fn contains_line(&self, line: &Line) -> bool {
        self.data.iter().any(|(_, _, l)| l == line)
            || self.spares.iter().any(|(_, _, l)| l == line)
            || self.counters.iter().any(|(_, _, l)| l == line)
    }

    /// Whether any persisted line matches any member of `secrets`.
    pub fn contains_any(&self, secrets: &BTreeSet<Line>) -> Option<(u32, u64)> {
        for (s, a, l) in &self.data {
            if secrets.contains(l) {
                return Some((*s, a.raw()));
            }
        }
        for (s, a, l) in &self.spares {
            if secrets.contains(l) {
                return Some((*s, a.raw()));
            }
        }
        for (s, p, l) in &self.counters {
            if secrets.contains(l) {
                return Some((*s, p.raw()));
            }
        }
        None
    }
}

/// The adversary: a capability-scoped wrapper around the machine under
/// attack. Victim operations require the machine to be powered;
/// physical capabilities (cold scan, capture, replay, offline decrypt)
/// require it to be powered *off* — calling either in the wrong state
/// is harness misuse and fails loudly. Every call appends one line to
/// the deterministic step script that ends up in the [`AttackRecord`].
#[derive(Debug)]
pub struct Adversary {
    machine: ShardedController,
    powered: bool,
    steps: Vec<String>,
}

impl Adversary {
    /// Builds the machine under attack, powered on.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the configuration does not build.
    pub fn build(cfg: &AttackConfig) -> Result<Adversary> {
        Ok(Adversary {
            machine: ShardedController::new(ShardedConfig::new(
                cfg.shards,
                cfg.controller.clone(),
            ))?,
            powered: true,
            steps: Vec::new(),
        })
    }

    /// Channel count of the machine under attack.
    pub fn shards(&self) -> u32 {
        self.machine.shards()
    }

    /// The scripted steps so far (consumed by [`run_attack`]).
    pub fn steps(&self) -> &[String] {
        &self.steps
    }

    fn note(&mut self, step: String) {
        self.steps.push(step);
    }

    /// Runs `f` on the fault port of the shard owning `page`, with the
    /// page translated into that shard's local frame number.
    fn at_page<T>(
        &mut self,
        page: PageId,
        f: impl FnOnce(FaultPort<'_>, PageId) -> T,
    ) -> Result<T> {
        let il = self.machine.interleave();
        let (s, local) = (il.shard_of_page(page), il.local_page(page));
        let port = self.machine.faults_shard(s as usize);
        let port = port.ok_or_else(|| Error::InvalidConfig {
            detail: format!("no shard {s}"),
        })?;
        Ok(f(port, local))
    }

    /// [`Adversary::at_page`] for the line at `addr`, translated into its
    /// shard's local address space.
    fn at_block<T>(
        &mut self,
        addr: BlockAddr,
        f: impl FnOnce(FaultPort<'_>, BlockAddr) -> T,
    ) -> Result<T> {
        let local = self.machine.interleave().local_block(addr);
        self.at_page(addr.page(), |port, _| f(port, local))
    }

    /// Every shard's on-chip Merkle root.
    fn merkle_roots(&self) -> Vec<(u32, Option<[u8; 32]>)> {
        let root = |s: u32| self.machine.inspect_shard(s as usize)?.merkle_root();
        (0..self.machine.shards()).map(|s| (s, root(s))).collect()
    }

    fn need_power(&self, what: &str) -> Result<()> {
        if self.powered {
            Ok(())
        } else {
            Err(Error::InvalidConfig {
                detail: format!("adversary misuse: {what} needs the machine powered on"),
            })
        }
    }

    fn need_dark(&self, what: &str) -> Result<()> {
        if self.powered {
            Err(Error::InvalidConfig {
                detail: format!("adversary misuse: {what} needs the machine powered off"),
            })
        } else {
            Ok(())
        }
    }

    // -- victim operations (powered) -----------------------------------

    /// The victim writes `line` at `addr`.
    ///
    /// # Errors
    ///
    /// Write-path errors, or misuse while powered off.
    pub fn victim_write(&mut self, addr: BlockAddr, line: &Line) -> Result<()> {
        self.need_power("victim write")?;
        self.machine
            .write_block(addr, line, false, Cycles::ZERO)
            .map(|_| ())
    }

    /// The victim reads `addr`.
    ///
    /// # Errors
    ///
    /// Read-path errors (integrity violations included — those are what
    /// rollback scenarios classify), or misuse while powered off.
    pub fn victim_read(&mut self, addr: BlockAddr) -> Result<ReadResult> {
        self.need_power("victim read")?;
        self.machine.read_block(addr, Cycles::ZERO)
    }

    /// The kernel shreds `page`.
    ///
    /// # Errors
    ///
    /// Shred-path errors, or misuse while powered off.
    pub fn victim_shred(&mut self, page: PageId) -> Result<()> {
        self.need_power("shred")?;
        self.note(format!("victim: shred page {}", page.raw()));
        self.machine
            .shred_page_at(page, true, Cycles::ZERO)
            .map(|_| ())
    }

    /// The victim flushes dirty counters (clean-shutdown behaviour).
    ///
    /// # Errors
    ///
    /// NVM write errors, or misuse while powered off.
    pub fn victim_flush_counters(&mut self) -> Result<()> {
        self.need_power("counter flush")?;
        self.machine.flush_counters()
    }

    /// The machine runs one full background-scrub pass.
    ///
    /// # Errors
    ///
    /// Remap-path errors, or misuse while powered off.
    pub fn victim_scrub_pass(&mut self) -> Result<()> {
        self.need_power("scrub pass")?;
        self.note("victim: full background scrub pass".into());
        let lines = self.machine.config().base.data_capacity
            / u64::from(self.machine.shards())
            / LINE_SIZE as u64;
        for _ in 0..lines {
            self.machine.scrub_step(Cycles::ZERO)?;
        }
        Ok(())
    }

    /// Unprivileged software pokes the kernel-only shred register.
    ///
    /// # Errors
    ///
    /// The privilege violation the attack *wants* to be absent, or
    /// misuse while powered off.
    pub fn user_shred(&mut self, page: PageId) -> Result<()> {
        self.need_power("user-mode shred")?;
        self.note(format!(
            "adversary: user-mode MMIO shred of page {}",
            page.raw()
        ));
        self.machine
            .mmio_write(SHRED_REG, page.base_addr().raw(), false, Cycles::ZERO)
            .map(|_| ())
    }

    /// Grows `weak_bits` permanently weak cells in the line at `addr` —
    /// media wear-out the adversary waits for (or accelerates with hot
    /// writes), setting up the healing path as an attack surface.
    ///
    /// # Errors
    ///
    /// Misuse while powered off.
    pub fn age_line(&mut self, addr: BlockAddr, weak_bits: u32) -> Result<()> {
        self.need_power("line aging")?;
        self.note(format!(
            "adversary: age line {addr} ({weak_bits} weak bit(s))"
        ));
        self.at_block(addr, |mut p, a| p.force_line_failure(a, weak_bits))
    }

    /// Data lines currently rescued into spare-pool slots.
    pub fn remapped_lines(&self) -> u64 {
        (0..self.machine.shards() as usize)
            .filter_map(|s| self.machine.inspect_shard(s))
            .map(|i| i.remapped_lines())
            .sum()
    }

    // -- power transitions ---------------------------------------------

    /// Cuts power (ADR drains, battery-backed counters flush). Physical
    /// capabilities become available until [`Adversary::power_on`].
    ///
    /// # Errors
    ///
    /// Power-down flush errors, or misuse while already off.
    pub fn power_off(&mut self) -> Result<()> {
        self.need_power("power-off")?;
        self.note("adversary: cut power".into());
        self.machine.power_loss().ok()?;
        self.powered = false;
        Ok(())
    }

    /// Restores power and runs the recovery check.
    ///
    /// # Errors
    ///
    /// [`Error::CounterLoss`] and friends from recovery, or misuse
    /// while already on.
    pub fn power_on(&mut self) -> Result<()> {
        self.need_dark("power-on")?;
        self.note("adversary: restore power, machine recovers".into());
        self.machine.recover().ok()?;
        self.powered = true;
        Ok(())
    }

    // -- physical capabilities (powered off) ---------------------------

    /// Cold-scans every persisted region of the stolen/accessed DIMM.
    ///
    /// # Errors
    ///
    /// Misuse while powered on.
    pub fn cold_scan(&mut self) -> Result<DimmImage> {
        self.need_dark("cold scan")?;
        let mut image = DimmImage {
            data: Vec::new(),
            spares: Vec::new(),
            counters: Vec::new(),
            merkle_roots: self.merkle_roots(),
        };
        for s in 0..self.machine.shards() {
            if let Some(port) = self.machine.faults_shard(s as usize) {
                let data = port.cold_scan_data().into_iter();
                image.data.extend(data.map(|(a, l)| (s, a, l)));
                let spares = port.cold_scan_spares().into_iter();
                image.spares.extend(spares.map(|(a, l)| (s, a, l)));
                let counters = port.cold_scan_counters().into_iter();
                image.counters.extend(counters.map(|(p, l)| (s, p, l)));
            }
        }
        self.note(format!(
            "adversary: cold scan ({} data, {} spare, {} counter line(s))",
            image.data.len(),
            image.spares.len(),
            image.counters.len()
        ));
        Ok(image)
    }

    /// Captures the raw ciphertext of the data line at `addr`.
    ///
    /// # Errors
    ///
    /// Misuse while powered on.
    pub fn capture_line(&mut self, addr: BlockAddr) -> Result<Line> {
        self.need_dark("line capture")?;
        self.note(format!("adversary: capture ciphertext at {addr}"));
        self.at_block(addr, |p, a| p.nvm_peek(a))
    }

    /// Captures the persisted counter line of `page`.
    ///
    /// # Errors
    ///
    /// Misuse while powered on.
    pub fn capture_counter(&mut self, page: PageId) -> Result<Line> {
        self.need_dark("counter capture")?;
        self.note(format!(
            "adversary: capture counter line of page {}",
            page.raw()
        ));
        self.at_page(page, |p, local| p.nvm_peek_counter(local))
    }

    /// Writes previously captured ciphertext back to the data line at
    /// `addr` (stale-state replay).
    ///
    /// # Errors
    ///
    /// Misuse while powered on.
    pub fn replay_line(&mut self, addr: BlockAddr, line: Line) -> Result<()> {
        self.need_dark("line replay")?;
        self.note(format!("adversary: replay stale ciphertext at {addr}"));
        self.at_block(addr, |mut p, a| p.nvm_tamper(a, line))
    }

    /// Writes a previously captured counter line back (counter
    /// rollback).
    ///
    /// # Errors
    ///
    /// Misuse while powered on.
    pub fn replay_counter(&mut self, page: PageId, line: Line) -> Result<()> {
        self.need_dark("counter rollback")?;
        self.note(format!(
            "adversary: roll back counter line of page {}",
            page.raw()
        ));
        self.at_page(page, |mut p, local| p.tamper_counter_line(local, line))
    }

    /// The stolen-DIMM oracle: decrypt the line at `addr` offline using
    /// the array, the persisted counters *and* the processor key — the
    /// strongest §4.1 attacker. Shredding must still deny the plaintext
    /// (the zeroed minor counter maps the line to zeros/garbage).
    ///
    /// # Errors
    ///
    /// Decrypt-path errors, or misuse while powered on.
    pub fn offline_read(&mut self, addr: BlockAddr) -> Result<Line> {
        self.need_dark("offline read")?;
        self.note(format!("adversary: offline decrypt attempt at {addr}"));
        self.at_block(addr, |mut p, a| p.peek_plaintext(a))?
    }
}

/// A fresh full-entropy secret line.
fn rand_secret(rng: &mut DetRng) -> Line {
    let mut line = [0u8; LINE_SIZE];
    rng.fill_bytes(&mut line);
    line
}

/// `k` distinct pages from `1..=pages`, in seeded shuffled order.
fn pick_pages(rng: &mut DetRng, pages: u64, k: usize) -> Vec<PageId> {
    let mut all: Vec<u64> = (1..=pages).collect();
    // Fisher-Yates with the deterministic stream.
    for i in (1..all.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        all.swap(i, j);
    }
    all.truncate(k.min(all.len()));
    all.into_iter().map(PageId::new).collect()
}

/// Scenario-internal error → the conservative `Leaked` verdict: an
/// unexpected error during an attack is never silently excused.
type Verdict = std::result::Result<(AttackOutcome, String), String>;

fn step_err<T>(r: Result<T>, what: &str) -> std::result::Result<T, String> {
    r.map_err(|e| format!("unexpected: {what}: {e}"))
}

/// Runs one attack script against a fresh machine built from `cfg`.
///
/// Deterministic: same `(cfg, kind, seed)` ⇒ byte-identical record.
///
/// # Panics
///
/// Panics only on harness-internal misuse (a matrix configuration that
/// does not build). Machine misbehavior is reported as `Leaked`, never
/// panicked on.
pub fn run_attack(cfg: &AttackConfig, kind: AttackKind, seed: u64) -> AttackRecord {
    let mut adv = Adversary::build(cfg).expect("attack config must build");
    let mut rng = DetRng::new(seed ^ ATTACK_DOMAIN ^ kind.domain());
    let verdict = match kind {
        AttackKind::ShredThenSteal => shred_then_steal(&mut adv, &mut rng, cfg),
        AttackKind::RemapProbe => remap_probe(&mut adv, &mut rng, cfg),
        AttackKind::RollbackReplay => rollback_replay(&mut adv, &mut rng, cfg),
        AttackKind::ScrubRace => scrub_race(&mut adv, &mut rng, cfg),
    };
    let (outcome, detail) = match verdict {
        Ok(v) => v,
        Err(e) => (AttackOutcome::Leaked, e),
    };
    AttackRecord {
        kind,
        outcome,
        steps: adv.steps,
        detail,
    }
}

/// Runs every attack in [`AttackKind::ALL`] order against `cfg`.
pub fn run_attacks(cfg: &AttackConfig, seed: u64) -> AttackReport {
    AttackReport {
        label: cfg.label.clone(),
        seed,
        records: AttackKind::ALL
            .iter()
            .map(|&k| run_attack(cfg, k, seed))
            .collect(),
    }
}

/// Shred-then-steal: secrets are written and shredded; then the DIMM is
/// stolen. Cold scan, offline decrypt with the key, and post-reboot
/// reads must all deny the secrets.
fn shred_then_steal(adv: &mut Adversary, rng: &mut DetRng, cfg: &AttackConfig) -> Verdict {
    if !cfg.controller.shredder {
        return Ok((
            AttackOutcome::Skipped,
            "no shredder configured; nothing to attack".into(),
        ));
    }
    let victims = pick_pages(rng, cfg.pages, 4.min(cfg.pages as usize));
    let mut secrets: BTreeSet<Line> = BTreeSet::new();
    let mut addrs: Vec<BlockAddr> = Vec::new();
    for &page in &victims {
        for _ in 0..2 {
            let addr = page.block_addr(rng.below(BLOCKS_PER_PAGE as u64) as usize);
            let secret = rand_secret(rng);
            step_err(adv.victim_write(addr, &secret), "victim write")?;
            secrets.insert(secret);
            addrs.push(addr);
        }
    }
    adv.note(format!(
        "victim: {} secret line(s) written across {} page(s)",
        addrs.len(),
        victims.len()
    ));
    step_err(adv.victim_flush_counters(), "counter flush")?;
    for &page in &victims {
        step_err(adv.victim_shred(page), "shred")?;
    }
    step_err(adv.power_off(), "power-off")?;
    let image = step_err(adv.cold_scan(), "cold scan")?;
    if let Some((shard, at)) = image.contains_any(&secrets) {
        return Ok((
            AttackOutcome::Leaked,
            format!("pre-shred plaintext resident in shard {shard} at {at:#x}"),
        ));
    }
    for &addr in &addrs {
        let plain = step_err(adv.offline_read(addr), "offline read")?;
        if secrets.contains(&plain) {
            return Ok((
                AttackOutcome::Leaked,
                format!("stolen DIMM with key recovered plaintext at {addr}"),
            ));
        }
        if cfg.controller.shred_strategy == ShredStrategy::MajorBumpResetMinors
            && plain != [0u8; LINE_SIZE]
        {
            return Ok((
                AttackOutcome::Leaked,
                format!("shredded line at {addr} decrypts to non-zero data"),
            ));
        }
    }
    step_err(adv.power_on(), "power-on")?;
    for &addr in &addrs {
        let r = step_err(adv.victim_read(addr), "post-reboot read")?;
        if secrets.contains(&r.data) {
            return Ok((
                AttackOutcome::Leaked,
                format!("post-reboot read at {addr} served the secret"),
            ));
        }
        if cfg.controller.shred_strategy == ShredStrategy::MajorBumpResetMinors
            && !(r.zero_filled && r.data == [0u8; LINE_SIZE])
        {
            return Ok((
                AttackOutcome::Leaked,
                format!("post-reboot read at {addr} did not zero-fill"),
            ));
        }
    }
    Ok((
        AttackOutcome::Defended,
        format!(
            "cold scan, offline decrypt and reboot reads all denied {} secret(s) across {} shard(s)",
            secrets.len(),
            adv.shards()
        ),
    ))
}

/// Remap-probe: wear a secret-bearing line into the spare pool, then
/// shred and probe the pool. The rescue must use a fresh IV and the
/// shred must cover the rescued copy.
fn remap_probe(adv: &mut Adversary, rng: &mut DetRng, cfg: &AttackConfig) -> Verdict {
    if !cfg.controller.shredder {
        return Ok((
            AttackOutcome::Skipped,
            "no shredder configured; nothing to attack".into(),
        ));
    }
    if cfg.controller.spare_lines == 0 {
        return Ok((
            AttackOutcome::Skipped,
            "no spare pool to probe (spare_lines = 0)".into(),
        ));
    }
    let page = pick_pages(rng, cfg.pages, 1)[0];
    let addr = page.block_addr(rng.below(BLOCKS_PER_PAGE as u64) as usize);
    let secret = rand_secret(rng);
    step_err(adv.victim_write(addr, &secret), "victim write")?;
    step_err(adv.victim_flush_counters(), "counter flush")?;
    // Capture the original ciphertext at a power cycle so the fresh-IV
    // property of the rescue is checkable (also drains any write queue,
    // making the wear-out reachable by the demand read below).
    step_err(adv.power_off(), "power-off")?;
    let original_cipher = step_err(adv.capture_line(addr), "line capture")?;
    step_err(adv.power_on(), "power-on")?;
    step_err(adv.age_line(addr, 1), "line aging")?;
    let before = adv.remapped_lines();
    let r = step_err(adv.victim_read(addr), "demand read of worn line")?;
    if r.data != secret {
        return Err(format!("healing read at {addr} returned wrong plaintext"));
    }
    if adv.remapped_lines() == before {
        return Ok((
            AttackOutcome::Skipped,
            "wear-out never triggered a spare-pool rescue under this configuration".into(),
        ));
    }
    adv.note(format!("victim: line {addr} rescued into the spare pool"));
    // Probe the pool while the secret is live: the rescued copy must be
    // re-encrypted under a fresh IV, not byte-copied.
    step_err(adv.power_off(), "power-off")?;
    let image = step_err(adv.cold_scan(), "cold scan")?;
    if image.spares.iter().any(|(_, _, l)| *l == secret) {
        return Ok((
            AttackOutcome::Leaked,
            "spare pool holds the rescued line as raw plaintext".into(),
        ));
    }
    if image.spares.iter().any(|(_, _, l)| *l == original_cipher) {
        return Ok((
            AttackOutcome::Leaked,
            "spare pool reused the original IV: rescued ciphertext repeats".into(),
        ));
    }
    step_err(adv.power_on(), "power-on")?;
    step_err(adv.victim_shred(page), "shred")?;
    step_err(adv.power_off(), "power-off")?;
    let image = step_err(adv.cold_scan(), "cold scan")?;
    if image.contains_line(&secret) {
        return Ok((
            AttackOutcome::Leaked,
            "secret survives in a persisted region after shred".into(),
        ));
    }
    let plain = step_err(adv.offline_read(addr), "offline read")?;
    if plain == secret {
        return Ok((
            AttackOutcome::Leaked,
            "offline decrypt of the remapped line recovered the secret".into(),
        ));
    }
    step_err(adv.power_on(), "power-on")?;
    let r = step_err(adv.victim_read(addr), "post-shred read")?;
    if !(r.zero_filled && r.data == [0u8; LINE_SIZE]) {
        return Ok((
            AttackOutcome::Leaked,
            format!("post-shred read of the remapped line at {addr} did not zero-fill"),
        ));
    }
    Ok((
        AttackOutcome::Defended,
        "rescue re-encrypted under a fresh IV; shred covers original and spare residue".into(),
    ))
}

/// Rollback-replay: capture ciphertext + counter at one power cycle,
/// let the victim overwrite, replay the stale pair at reboot. The
/// on-chip Merkle root (which the adversary cannot roll back) must
/// reject the stale counter.
fn rollback_replay(adv: &mut Adversary, rng: &mut DetRng, cfg: &AttackConfig) -> Verdict {
    if cfg.controller.protection == ProtectionMode::Scattered {
        // Live scattered overwrites never touch the liveness line, so a
        // captured metadata line is usually still current and rolling it
        // back is a semantic no-op — there is nothing for the Merkle
        // tree to catch. The backend's honest replay story (and its
        // limits) is documented in DESIGN.md §15.
        return Ok((
            AttackOutcome::Skipped,
            "scattered liveness metadata does not advance on live overwrites; \
             counter rollback is a no-op here (DESIGN.md §15)"
                .into(),
        ));
    }
    if cfg.controller.protection != ProtectionMode::Ctr {
        return Ok((
            AttackOutcome::Skipped,
            "no counters to roll back in this encryption mode".into(),
        ));
    }
    let page = pick_pages(rng, cfg.pages, 1)[0];
    let addr = page.block_addr(rng.below(BLOCKS_PER_PAGE as u64) as usize);
    let v1 = rand_secret(rng);
    step_err(adv.victim_write(addr, &v1), "victim write v1")?;
    step_err(adv.victim_flush_counters(), "counter flush")?;
    step_err(adv.power_off(), "power-off")?;
    let stale_cipher = step_err(adv.capture_line(addr), "line capture")?;
    let stale_counter = step_err(adv.capture_counter(page), "counter capture")?;
    let roots_at_capture = step_err(adv.cold_scan(), "cold scan")?.merkle_roots;
    step_err(adv.power_on(), "power-on")?;
    let v2 = rand_secret(rng);
    step_err(adv.victim_write(addr, &v2), "victim write v2")?;
    step_err(adv.victim_flush_counters(), "counter flush")?;
    step_err(adv.power_off(), "power-off")?;
    step_err(adv.replay_line(addr, stale_cipher), "line replay")?;
    step_err(adv.replay_counter(page, stale_counter), "counter rollback")?;
    step_err(adv.power_on(), "power-on")?;
    let root_moved = adv.merkle_roots() != roots_at_capture;
    match adv.victim_read(addr) {
        Err(Error::IntegrityViolation { .. }) => Ok((
            AttackOutcome::Detected,
            format!(
                "Merkle rejected the rolled-back counter (on-chip root {} since capture)",
                if root_moved { "advanced" } else { "unchanged" }
            ),
        )),
        Ok(r) if r.data == v1 => Ok((
            AttackOutcome::Leaked,
            "rollback resurrected the stale secret".into(),
        )),
        Ok(_) => Ok((
            AttackOutcome::Leaked,
            "rolled-back state accepted silently".into(),
        )),
        Err(e) => Err(format!("unexpected: read after rollback: {e}")),
    }
}

/// Scrub-race: weak cells grow in a secret page, the page is shredded,
/// then a full scrub pass rescues the weak lines. The rescues must not
/// resurrect pre-shred plaintext anywhere.
fn scrub_race(adv: &mut Adversary, rng: &mut DetRng, cfg: &AttackConfig) -> Verdict {
    if !cfg.controller.shredder {
        return Ok((
            AttackOutcome::Skipped,
            "no shredder configured; nothing to attack".into(),
        ));
    }
    if cfg.controller.spare_lines == 0 {
        return Ok((
            AttackOutcome::Skipped,
            "no spare pool for the scrubber to rescue into (spare_lines = 0)".into(),
        ));
    }
    let page = pick_pages(rng, cfg.pages, 1)[0];
    let blocks: Vec<usize> = (0..4)
        .map(|_| rng.below(BLOCKS_PER_PAGE as u64) as usize)
        .collect::<BTreeSet<_>>()
        .into_iter()
        .collect();
    let mut secrets: BTreeSet<Line> = BTreeSet::new();
    for &b in &blocks {
        let secret = rand_secret(rng);
        step_err(
            adv.victim_write(page.block_addr(b), &secret),
            "victim write",
        )?;
        secrets.insert(secret);
    }
    step_err(adv.victim_flush_counters(), "counter flush")?;
    // Drain any write queue so the weak cells surface on scrub reads.
    step_err(adv.power_off(), "power-off")?;
    step_err(adv.power_on(), "power-on")?;
    for &b in &blocks {
        step_err(adv.age_line(page.block_addr(b), 1), "line aging")?;
    }
    step_err(adv.victim_shred(page), "shred")?;
    let before = adv.remapped_lines();
    step_err(adv.victim_scrub_pass(), "scrub pass")?;
    let rescued = adv.remapped_lines() - before;
    adv.note(format!("victim: scrubber rescued {rescued} weak line(s)"));
    step_err(adv.power_off(), "power-off")?;
    let image = step_err(adv.cold_scan(), "cold scan")?;
    if let Some((shard, at)) = image.contains_any(&secrets) {
        return Ok((
            AttackOutcome::Leaked,
            format!("scrub rescue resurrected pre-shred plaintext in shard {shard} at {at:#x}"),
        ));
    }
    for &b in &blocks {
        let plain = step_err(adv.offline_read(page.block_addr(b)), "offline read")?;
        if secrets.contains(&plain) {
            return Ok((
                AttackOutcome::Leaked,
                "offline decrypt after scrub recovered a secret".into(),
            ));
        }
    }
    step_err(adv.power_on(), "power-on")?;
    for &b in &blocks {
        let r = step_err(adv.victim_read(page.block_addr(b)), "post-scrub read")?;
        if !(r.zero_filled && r.data == [0u8; LINE_SIZE]) {
            return Ok((
                AttackOutcome::Leaked,
                format!("post-scrub read of block {b} did not zero-fill after shred"),
            ));
        }
    }
    Ok((
        AttackOutcome::Defended,
        format!(
            "scrubber rescued {rescued} weak line(s) after shred without resurrecting plaintext"
        ),
    ))
}

/// The two scenarios `examples/attack_demo.rs` narrates: one silently
/// defended attack and one loudly detected one. Shared with the
/// end-to-end test so the demo's output is asserted, not just printed.
pub fn demo_records() -> (AttackRecord, AttackRecord) {
    let cfg = AttackConfig::new("demo-ctr-bat-mt", ControllerConfig::small_test());
    (
        run_attack(&cfg, AttackKind::ShredThenSteal, 1),
        run_attack(&cfg, AttackKind::RollbackReplay, 1),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_covers_the_announced_axes() {
        let matrix = AttackConfig::matrix();
        assert!(matrix.len() >= 4, "attack sweep needs >= 4 configs");
        assert!(
            matrix.iter().any(|c| c.shards > 1),
            "attack sweep must include a sharded config"
        );
        let labels: BTreeSet<&str> = matrix.iter().map(|c| c.label.as_str()).collect();
        assert_eq!(labels.len(), matrix.len(), "labels must be unique");
        for cfg in &matrix {
            cfg.controller.validate().expect("matrix config invalid");
            assert!(
                cfg.pages >= u64::from(cfg.shards),
                "pages must cover shards"
            );
        }
    }

    #[test]
    fn same_seed_byte_identical_report() {
        for cfg in AttackConfig::matrix().iter().take(2) {
            let a = run_attacks(cfg, 7);
            let b = run_attacks(cfg, 7);
            assert_eq!(
                format!("{a}"),
                format!("{b}"),
                "{} nondeterministic",
                cfg.label
            );
            assert_eq!(a.to_json(), b.to_json());
        }
    }

    #[test]
    fn base_config_defends_or_detects_everything() {
        let cfg = &AttackConfig::matrix()[0];
        for seed in 0..4 {
            let report = run_attacks(cfg, seed);
            assert!(report.clean(), "seed {seed} leaked:\n{report}");
            for r in &report.records {
                assert_ne!(r.outcome, AttackOutcome::Skipped, "seed {seed}: {r}");
            }
        }
    }

    #[test]
    fn sharded_config_defends_everything_per_shard() {
        let cfg = AttackConfig::matrix()
            .into_iter()
            .find(|c| c.shards == 4)
            .expect("matrix has a 4-shard config");
        for seed in 0..4 {
            let report = run_attacks(&cfg, seed);
            assert!(report.clean(), "seed {seed} leaked:\n{report}");
        }
    }

    #[test]
    fn scattered_matrix_never_leaks() {
        for cfg in AttackConfig::scattered_matrix() {
            assert_eq!(cfg.controller.protection, ProtectionMode::Scattered);
            for seed in 0..4 {
                let report = run_attacks(&cfg, seed);
                assert!(
                    report.clean(),
                    "{} seed {seed} leaked:\n{report}",
                    cfg.label
                );
            }
        }
    }

    #[test]
    fn scattered_stolen_dimm_is_defended() {
        // ISSUE acceptance: the stolen-DIMM offline decrypt (cold scan +
        // both share regions + key) must classify Defended — one share
        // alone is a one-time pad of nothing, and after the shred the
        // surviving share has no partner at all.
        for cfg in AttackConfig::scattered_matrix() {
            for seed in 0..4 {
                let record = run_attack(&cfg, AttackKind::ShredThenSteal, seed);
                assert_eq!(
                    record.outcome,
                    AttackOutcome::Defended,
                    "{} seed {seed}:\n{record}",
                    cfg.label
                );
            }
        }
    }

    #[test]
    fn weakened_config_leaks_on_rollback() {
        let cfg = AttackConfig::weakened();
        let record = run_attack(&cfg, AttackKind::RollbackReplay, 0);
        assert_eq!(
            record.outcome,
            AttackOutcome::Leaked,
            "the weakened config must demonstrate the leak:\n{record}"
        );
        let report = run_attacks(&cfg, 0);
        assert!(!report.clean(), "weakened report must not be clean");
    }

    #[test]
    fn spare_less_config_skips_pool_attacks() {
        let cfg = AttackConfig::new(
            "no-spares",
            ControllerConfigBuilder::small_test()
                .spare_lines(0)
                .build()
                .expect("no-spares config"),
        );
        let report = run_attacks(&cfg, 0);
        assert!(report.clean());
        for r in &report.records {
            if matches!(r.kind, AttackKind::RemapProbe | AttackKind::ScrubRace) {
                assert_eq!(r.outcome, AttackOutcome::Skipped, "{r}");
            }
        }
    }

    #[test]
    fn misuse_is_loud() {
        let cfg = AttackConfig::new("misuse", ControllerConfig::small_test());
        let mut adv = Adversary::build(&cfg).unwrap();
        // Powered on: physical capabilities must refuse.
        assert!(adv.cold_scan().is_err());
        assert!(adv.capture_counter(PageId::new(1)).is_err());
        adv.power_off().unwrap();
        // Powered off: victim operations must refuse.
        assert!(adv.victim_read(PageId::new(1).block_addr(0)).is_err());
        assert!(adv.victim_shred(PageId::new(1)).is_err());
        assert!(adv.power_on().is_ok());
    }
}
