//! Memory-controller configuration.

use ss_common::{Error, Result, PAGE_SIZE};
use ss_nvm::EccConfig;

/// How the controller protects lines on their way to NVM
/// (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ProtectionMode {
    /// No protection: lines are stored in the clear (vulnerable to
    /// remanence attacks; the pre-security baseline).
    Plain,
    /// Direct/ECB encryption: secure against casual scanning but leaks
    /// equality and adds decryption latency to the miss path (§2.2).
    Ecb,
    /// The paper's design: counter-mode AES-CTR with per-page major and
    /// per-block minor counters, shred = major bump + minor reset.
    Ctr,
    /// Scattered two-share memory (cf. *Secure Scattered Memory*,
    /// arXiv:2402.15824): every line is secret-shared into a
    /// uniform-random share in the data region and an XOR-masked share
    /// in a disjoint mask region. Either share alone is a one-time pad
    /// of nothing; shred = discard the masked share.
    Scattered,
}

/// Which §4.2 design option a shred command applies to the counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ShredStrategy {
    /// Option 1: increment every minor counter. Cheap per shred but burns
    /// through the 7-bit minors and triggers frequent re-encryptions.
    MinorIncrementAll,
    /// Option 2: bump the major counter only. Avoids re-encryption but a
    /// fresh read returns garbage, breaking software that expects zeroed
    /// pages (e.g. glibc rtld's NULL assertions).
    MajorBumpOnly,
    /// Option 3 (the paper's choice): bump the major counter and reset all
    /// minors to the reserved zero, enabling zero-filled reads.
    MajorBumpResetMinors,
}

/// Which persistence domain the controller's volatile persist-path
/// state sits in — the torn-write axis of the crash model (DESIGN.md
/// §13; cf. the eADR mode of *From Ideal to Practice*,
/// arXiv:2307.02050).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PersistDomain {
    /// ADR: only completed 8-byte stores are durable. A crash can cut an
    /// in-flight multi-step persist sequence after any numbered persist
    /// step ([`crate::persist`]), tear the 64 B line being written
    /// at the cut, and drops un-drained write-queue entries. The
    /// controller keeps an NVM-resident ordering journal so
    /// [`crate::MemoryController::recover_mut`] can roll the damage
    /// back (or forward) on reboot.
    Adr,
    /// eADR: stored energy flushes the whole controller persist path on
    /// power failure, so every in-flight sequence completes — crashes
    /// land on operation boundaries, 64 B line writes are atomic, the
    /// write queue drains, and no ordering journal is needed. This is
    /// the default and reproduces the pre-crash-model behaviour
    /// byte for byte.
    Eadr,
}

/// How counter-cache contents survive power loss (§4.3, §7.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CounterPersistence {
    /// Write-back counter cache with battery backing: dirty counter blocks
    /// are flushed to NVM on power-down. The paper's default.
    BatteryBackedWriteBack,
    /// Write-through: every counter update also writes NVM immediately
    /// (64 B per shredded 4 KiB page — still ~64× cheaper than zeroing).
    WriteThrough,
    /// Write-back with **no** battery: a crash loses dirty counters and
    /// with them the data — modelled so the failure mode can be tested.
    VolatileWriteBack,
}

/// Full controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ControllerConfig {
    /// Bytes of data memory behind the controller (frames × 4 KiB).
    pub data_capacity: u64,
    /// How lines are protected in NVM. [`ProtectionMode::Ctr`] (the
    /// default) is the paper's controller.
    pub protection: ProtectionMode,
    /// Whether the Silent Shredder mechanism (shred command + zero-fill
    /// reads) is enabled. Requires per-line metadata:
    /// [`ProtectionMode::Ctr`] or [`ProtectionMode::Scattered`].
    pub shredder: bool,
    /// Shred strategy (only meaningful when `shredder`).
    pub shred_strategy: ShredStrategy,
    /// Counter-cache capacity in bytes (Table 1: 4 MiB).
    pub counter_cache_bytes: usize,
    /// Counter persistence mode.
    pub counter_persistence: CounterPersistence,
    /// Persistence domain of the controller's volatile persist path
    /// (write queue, in-flight sequences). [`PersistDomain::Eadr`] (the
    /// default) keeps the historical flush-everything-on-power-fail
    /// behaviour; [`PersistDomain::Adr`] enables step-granular crash
    /// cuts, torn 64 B lines, and the ordering journal.
    pub persist_domain: PersistDomain,
    /// Maintain and verify a Merkle tree over the counter region.
    pub integrity: bool,
    /// DEUCE-style partial re-encryption on writes (\[43\]).
    pub deuce: bool,
    /// Optional controller write queue with read priority and
    /// forwarding (None = writes go straight to the channels, the
    /// paper's simpler model).
    pub write_queue: Option<crate::wqueue::WriteQueueConfig>,
    /// Start-Gap wear levelling over the data region \[30\].
    pub wear_leveling: bool,
    /// Per-line write-endurance limit forwarded to the NVM device
    /// (accept-write / fail-read: worn lines keep taking writes but grow
    /// weak cells that surface on reads). `None` models pristine media.
    pub endurance_limit: Option<u64>,
    /// ECC strength of the backing NVM (default SECDED).
    pub nvm_ecc: EccConfig,
    /// Transient (soft) read-error probability per bit, forwarded to the
    /// NVM device. 0.0 disables background transients.
    pub transient_read_ber: f64,
    /// Seed of the device's deterministic fault stream (weak-cell
    /// positions and transient arrivals).
    pub nvm_fault_seed: u64,
    /// Spare lines reserved after the counter region for bad-line
    /// remapping. 0 disables remapping: degrading lines go straight to
    /// quarantine.
    pub spare_lines: u64,
    /// Background read scrubber: visit one data line every this many
    /// demand writes, when the write path is idle. `None` disables
    /// scrubbing.
    pub scrub_interval: Option<u64>,
    /// AES-128 processor key.
    pub key: [u8; 16],
    /// Event-trace ring depth. `None` (the default) disables tracing
    /// entirely — the emit path reduces to one discriminant test and no
    /// event is ever constructed. `Some(n)` retains the last `n` events.
    pub trace_depth: Option<usize>,
}

impl Default for ControllerConfig {
    /// The paper's secure controller with Silent Shredder on, scaled to
    /// 1 GiB of data memory (the full 16 GiB of Table 1 is unnecessary
    /// for the reproduced experiments; see DESIGN.md on scaling).
    fn default() -> Self {
        ControllerConfig {
            data_capacity: 1 << 30,
            protection: ProtectionMode::Ctr,
            shredder: true,
            shred_strategy: ShredStrategy::MajorBumpResetMinors,
            counter_cache_bytes: 4 << 20,
            counter_persistence: CounterPersistence::BatteryBackedWriteBack,
            persist_domain: PersistDomain::Eadr,
            integrity: true,
            deuce: false,
            write_queue: None,
            wear_leveling: false,
            endurance_limit: None,
            nvm_ecc: EccConfig::secded(),
            transient_read_ber: 0.0,
            nvm_fault_seed: 0,
            spare_lines: 32,
            scrub_interval: None,
            key: *b"silent-shredder!",
            trace_depth: None,
        }
    }
}

impl ControllerConfig {
    /// A tiny configuration for unit tests and doc examples: 1 MiB of
    /// data, 16 KiB counter cache.
    pub fn small_test() -> Self {
        ControllerConfig {
            data_capacity: 1 << 20,
            counter_cache_bytes: 16 << 10,
            ..ControllerConfig::default()
        }
    }

    /// The evaluation baseline: counter-mode encryption *without* the
    /// shredder (shredding must be done by writing zeros).
    pub fn encrypted_baseline() -> Self {
        ControllerConfig {
            shredder: false,
            ..ControllerConfig::default()
        }
    }

    /// An unencrypted controller (for motivation experiments and attack
    /// demonstrations).
    pub fn plain() -> Self {
        ControllerConfig {
            protection: ProtectionMode::Plain,
            shredder: false,
            integrity: false,
            ..ControllerConfig::default()
        }
    }

    /// The scattered two-share mode: lines are secret-shared across two
    /// NVM regions, shred = discard the masked share. Keeps the shred
    /// command and liveness-metadata integrity on.
    pub fn scattered() -> Self {
        ControllerConfig {
            protection: ProtectionMode::Scattered,
            shredder: true,
            ..ControllerConfig::default()
        }
    }

    /// Starts a validating [`ControllerConfigBuilder`] seeded with the
    /// default (paper) configuration.
    pub fn builder() -> ControllerConfigBuilder {
        ControllerConfigBuilder::new()
    }

    /// Continues this configuration in a validating builder.
    pub fn into_builder(self) -> ControllerConfigBuilder {
        ControllerConfigBuilder { cfg: self }
    }

    /// Number of 4 KiB frames of data memory.
    pub fn frames(&self) -> u64 {
        self.data_capacity / PAGE_SIZE as u64
    }

    /// Validates cross-field constraints.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the capacity is not
    /// page-aligned or zero, the shredder is enabled without per-line
    /// metadata (`Ctr` or `Scattered`), DEUCE is combined with a non-CTR
    /// mode, or a mode is paired with machinery it cannot keep
    /// consistent (DESIGN.md §13, §15).
    pub fn validate(&self) -> Result<()> {
        if self.data_capacity == 0 || !self.data_capacity.is_multiple_of(PAGE_SIZE as u64) {
            return Err(Error::InvalidConfig {
                detail: format!("data capacity {} not page aligned", self.data_capacity),
            });
        }
        let per_line_metadata = matches!(
            self.protection,
            ProtectionMode::Ctr | ProtectionMode::Scattered
        );
        if self.shredder && !per_line_metadata {
            return Err(Error::InvalidConfig {
                detail: "silent shredder requires counter-mode or scattered protection".into(),
            });
        }
        if self.deuce && self.protection != ProtectionMode::Ctr {
            return Err(Error::InvalidConfig {
                detail: "deuce requires counter-mode encryption".into(),
            });
        }
        if self.protection == ProtectionMode::Scattered {
            // Machinery the share split has no share-consistent story
            // for (write-queue coalescing, Start-Gap moves, partial
            // minor bumps) is rejected at this single choke point.
            if self.shredder && self.shred_strategy != ShredStrategy::MajorBumpResetMinors {
                return Err(Error::InvalidConfig {
                    detail: "scattered shredding requires the major-bump-reset-minors strategy"
                        .into(),
                });
            }
            if self.write_queue.is_some() {
                return Err(Error::InvalidConfig {
                    detail: "scattered two-share mode does not support the write queue".into(),
                });
            }
            if self.wear_leveling {
                return Err(Error::InvalidConfig {
                    detail: "Start-Gap wear levelling does not cover the scattered mask region"
                        .into(),
                });
            }
        }
        if let Some(wq) = &self.write_queue {
            if !wq.is_valid() {
                return Err(Error::InvalidConfig {
                    detail: "invalid write-queue watermarks".into(),
                });
            }
        }
        if self.persist_domain == PersistDomain::Adr {
            // Combinations the ordering journal cannot keep
            // crash-consistent (DESIGN.md §13): counter-mode writes bump
            // counters at enqueue time, so an ADR-volatile queue would
            // drop ciphertext whose counters already advanced; DEUCE
            // chunk metadata and Start-Gap moves mutate mapping state
            // with no journaled pre-image.
            if self.write_queue.is_some() && self.protection == ProtectionMode::Ctr {
                return Err(Error::InvalidConfig {
                    detail: "ADR domain cannot cover an encrypted (counter-mode) write queue; \
                             use eADR or drop the queue"
                        .into(),
                });
            }
            if self.deuce {
                return Err(Error::InvalidConfig {
                    detail: "DEUCE chunk metadata is not covered by the ADR ordering journal"
                        .into(),
                });
            }
            if self.wear_leveling {
                return Err(Error::InvalidConfig {
                    detail: "Start-Gap moves are not covered by the ADR ordering journal".into(),
                });
            }
        }
        if !self.nvm_ecc.is_valid() {
            return Err(Error::InvalidConfig {
                detail: "ecc correct bound must not exceed detect bound".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.transient_read_ber) {
            return Err(Error::InvalidConfig {
                detail: format!(
                    "transient read BER {} not in [0, 1]",
                    self.transient_read_ber
                ),
            });
        }
        if self.endurance_limit == Some(0) {
            return Err(Error::InvalidConfig {
                detail: "endurance limit must be positive when set".into(),
            });
        }
        if self.scrub_interval == Some(0) {
            return Err(Error::InvalidConfig {
                detail: "scrub interval must be positive when set".into(),
            });
        }
        if self.trace_depth == Some(0) {
            return Err(Error::InvalidConfig {
                detail: "trace depth must be positive when set".into(),
            });
        }
        Ok(())
    }
}

/// Configuration of a sharded (multi-channel) controller: `shards`
/// independent controller instances behind one facade, plus the batched
/// shred command queue drained through [`crate::mmio::SHRED_DRAIN_REG`].
#[derive(Debug, Clone, PartialEq)]
pub struct ShardedConfig {
    /// Number of shards (independent channels). 1 reproduces the plain
    /// controller exactly.
    pub shards: u32,
    /// The controller configuration being sharded. `data_capacity` is
    /// the *total* across shards; per-shard resources (counter cache,
    /// spare pool, write queue) are per-channel silicon and are
    /// replicated into every shard unchanged.
    pub base: ControllerConfig,
}

/// Decorrelates per-shard fault streams: shard `i` seeds its NVM device
/// with `base_seed ^ i * SHARD_SEED_STRIDE`. Shard 0 keeps the base seed
/// untouched so a 1-shard controller is bit-identical to the unsharded
/// one.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

impl ShardedConfig {
    /// Wraps `base` with `shards` channels.
    pub fn new(shards: u32, base: ControllerConfig) -> Self {
        ShardedConfig { shards, base }
    }

    /// Frames of data memory owned by each shard.
    pub fn frames_per_shard(&self) -> u64 {
        self.base.frames() / u64::from(self.shards.max(1))
    }

    /// The configuration of shard `shard`: the capacity slice plus a
    /// decorrelated fault seed.
    pub fn shard_config(&self, shard: u32) -> ControllerConfig {
        ControllerConfig {
            data_capacity: self.base.data_capacity / u64::from(self.shards.max(1)),
            nvm_fault_seed: self.base.nvm_fault_seed
                ^ u64::from(shard).wrapping_mul(SHARD_SEED_STRIDE),
            ..self.base.clone()
        }
    }

    /// Validates the sharding parameters and the base configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when there are zero shards, the
    /// frame count does not divide evenly across shards, or the base
    /// configuration is itself invalid.
    pub fn validate(&self) -> Result<()> {
        if self.shards == 0 {
            return Err(Error::InvalidConfig {
                detail: "sharded controller needs at least one shard".into(),
            });
        }
        self.base.validate()?;
        if !self.base.frames().is_multiple_of(u64::from(self.shards)) {
            return Err(Error::InvalidConfig {
                detail: format!(
                    "{} frames do not divide evenly across {} shards",
                    self.base.frames(),
                    self.shards
                ),
            });
        }
        Ok(())
    }
}

/// Validating builder for [`ControllerConfig`] — the one construction
/// choke point that rejects invalid axis combinations (scattered +
/// DEUCE, ADR-incompatible sets, …) before a controller ever sees them.
///
/// Starts from the paper's default configuration (or a preset) and
/// chains setters; [`ControllerConfigBuilder::build`] runs
/// [`ControllerConfig::validate`] and only then releases the config.
///
/// # Examples
///
/// ```
/// use ss_core::{ControllerConfig, ProtectionMode};
///
/// let cfg = ControllerConfig::builder()
///     .data_capacity(1 << 20)
///     .counter_cache_bytes(16 << 10)
///     .protection(ProtectionMode::Scattered)
///     .build()
///     .expect("valid scattered config");
/// assert!(cfg.shredder);
/// ```
#[derive(Debug, Clone)]
pub struct ControllerConfigBuilder {
    cfg: ControllerConfig,
}

impl Default for ControllerConfigBuilder {
    fn default() -> Self {
        ControllerConfigBuilder::new()
    }
}

impl ControllerConfigBuilder {
    /// A builder seeded with [`ControllerConfig::default`].
    pub fn new() -> Self {
        ControllerConfigBuilder {
            cfg: ControllerConfig::default(),
        }
    }

    /// A builder seeded with [`ControllerConfig::small_test`].
    pub fn small_test() -> Self {
        ControllerConfig::small_test().into_builder()
    }

    /// A builder seeded with [`ControllerConfig::plain`].
    pub fn plain() -> Self {
        ControllerConfig::plain().into_builder()
    }

    /// A builder seeded with [`ControllerConfig::encrypted_baseline`].
    pub fn encrypted_baseline() -> Self {
        ControllerConfig::encrypted_baseline().into_builder()
    }

    /// A builder seeded with [`ControllerConfig::scattered`].
    pub fn scattered() -> Self {
        ControllerConfig::scattered().into_builder()
    }

    /// Sets the data capacity in bytes.
    pub fn data_capacity(mut self, bytes: u64) -> Self {
        self.cfg.data_capacity = bytes;
        self
    }

    /// Sets the protection mode.
    pub fn protection(mut self, mode: ProtectionMode) -> Self {
        self.cfg.protection = mode;
        self
    }

    /// Enables or disables the shred command.
    pub fn shredder(mut self, on: bool) -> Self {
        self.cfg.shredder = on;
        self
    }

    /// Sets the shred strategy.
    pub fn shred_strategy(mut self, strategy: ShredStrategy) -> Self {
        self.cfg.shred_strategy = strategy;
        self
    }

    /// Sets the counter-cache capacity in bytes.
    pub fn counter_cache_bytes(mut self, bytes: usize) -> Self {
        self.cfg.counter_cache_bytes = bytes;
        self
    }

    /// Sets the counter-persistence mode.
    pub fn counter_persistence(mut self, mode: CounterPersistence) -> Self {
        self.cfg.counter_persistence = mode;
        self
    }

    /// Sets the persistence domain of the controller persist path.
    pub fn persist_domain(mut self, domain: PersistDomain) -> Self {
        self.cfg.persist_domain = domain;
        self
    }

    /// Enables or disables the counter-region integrity tree.
    pub fn integrity(mut self, on: bool) -> Self {
        self.cfg.integrity = on;
        self
    }

    /// Enables or disables DEUCE partial re-encryption.
    pub fn deuce(mut self, on: bool) -> Self {
        self.cfg.deuce = on;
        self
    }

    /// Installs (or removes) the controller write queue.
    pub fn write_queue(mut self, wq: Option<crate::wqueue::WriteQueueConfig>) -> Self {
        self.cfg.write_queue = wq;
        self
    }

    /// Enables or disables Start-Gap wear levelling.
    pub fn wear_leveling(mut self, on: bool) -> Self {
        self.cfg.wear_leveling = on;
        self
    }

    /// Sets the per-line endurance limit of the backing NVM.
    pub fn endurance_limit(mut self, limit: Option<u64>) -> Self {
        self.cfg.endurance_limit = limit;
        self
    }

    /// Sets the ECC strength of the backing NVM.
    pub fn nvm_ecc(mut self, ecc: EccConfig) -> Self {
        self.cfg.nvm_ecc = ecc;
        self
    }

    /// Sets the transient read bit-error rate of the backing NVM.
    pub fn transient_read_ber(mut self, ber: f64) -> Self {
        self.cfg.transient_read_ber = ber;
        self
    }

    /// Seeds the device's deterministic fault stream.
    pub fn nvm_fault_seed(mut self, seed: u64) -> Self {
        self.cfg.nvm_fault_seed = seed;
        self
    }

    /// Reserves spare lines for bad-line remapping.
    pub fn spare_lines(mut self, lines: u64) -> Self {
        self.cfg.spare_lines = lines;
        self
    }

    /// Sets the background scrub interval (demand writes per step).
    pub fn scrub_interval(mut self, interval: Option<u64>) -> Self {
        self.cfg.scrub_interval = interval;
        self
    }

    /// Sets the event-trace ring depth.
    pub fn trace_depth(mut self, depth: Option<usize>) -> Self {
        self.cfg.trace_depth = depth;
        self
    }

    /// Validates and releases the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for any combination
    /// [`ControllerConfig::validate`] rejects.
    pub fn build(self) -> Result<ControllerConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::MemoryController;
    use crate::wqueue::WriteQueueConfig;
    use ss_common::{Cycles, PageId, BLOCKS_PER_PAGE, LINE_SIZE};

    #[test]
    fn default_is_valid_shredder() {
        let c = ControllerConfig::default();
        assert!(c.validate().is_ok());
        assert!(c.shredder);
        assert_eq!(c.protection, ProtectionMode::Ctr);
        assert_eq!(c.counter_cache_bytes, 4 << 20);
    }

    #[test]
    fn presets_are_valid() {
        assert!(ControllerConfig::small_test().validate().is_ok());
        assert!(ControllerConfig::encrypted_baseline().validate().is_ok());
        assert!(ControllerConfig::plain().validate().is_ok());
        let s = ControllerConfig::scattered();
        assert!(s.validate().is_ok());
        assert_eq!(s.protection, ProtectionMode::Scattered);
        assert!(s.shredder);
    }

    #[test]
    fn unaligned_capacity_rejected() {
        let c = ControllerConfig {
            data_capacity: 4097,
            ..ControllerConfig::default()
        };
        assert!(c.validate().is_err());
        let c0 = ControllerConfig {
            data_capacity: 0,
            ..ControllerConfig::default()
        };
        assert!(c0.validate().is_err());
    }

    #[test]
    fn frames_computed() {
        assert_eq!(ControllerConfig::small_test().frames(), 256);
    }

    #[test]
    fn sharded_config_validates_and_slices() {
        let sc = ShardedConfig::new(4, ControllerConfig::small_test());
        assert!(sc.validate().is_ok());
        assert_eq!(sc.frames_per_shard(), 64);
        let s0 = sc.shard_config(0);
        assert_eq!(s0.data_capacity, (1 << 20) / 4);
        // Shard 0 keeps the base fault seed (1-shard equivalence).
        assert_eq!(s0.nvm_fault_seed, sc.base.nvm_fault_seed);
        assert_ne!(sc.shard_config(1).nvm_fault_seed, s0.nvm_fault_seed);

        assert!(ShardedConfig::new(0, ControllerConfig::small_test())
            .validate()
            .is_err());
        // 256 frames do not split across 3 shards.
        assert!(ShardedConfig::new(3, ControllerConfig::small_test())
            .validate()
            .is_err());
    }

    #[test]
    fn healing_fields_validated() {
        let bad_ecc = ControllerConfig {
            nvm_ecc: EccConfig::strength(4, 2),
            ..ControllerConfig::small_test()
        };
        assert!(bad_ecc.validate().is_err());
        let bad_ber = ControllerConfig {
            transient_read_ber: 1.5,
            ..ControllerConfig::small_test()
        };
        assert!(bad_ber.validate().is_err());
        let zero_limit = ControllerConfig {
            endurance_limit: Some(0),
            ..ControllerConfig::small_test()
        };
        assert!(zero_limit.validate().is_err());
        let zero_scrub = ControllerConfig {
            scrub_interval: Some(0),
            ..ControllerConfig::small_test()
        };
        assert!(zero_scrub.validate().is_err());
        let zero_trace = ControllerConfig {
            trace_depth: Some(0),
            ..ControllerConfig::small_test()
        };
        assert!(zero_trace.validate().is_err());
        let good = ControllerConfig {
            endurance_limit: Some(256),
            transient_read_ber: 1e-4,
            spare_lines: 64,
            scrub_interval: Some(32),
            ..ControllerConfig::small_test()
        };
        assert!(good.validate().is_ok());
    }

    /// Every combination of the axes `validate` cross-checks, on the
    /// `small_test` footprint: protection mode × shredder × DEUCE ×
    /// write queue × wear levelling × persistence domain × shred
    /// strategy.
    fn axis_combinations() -> Vec<ControllerConfig> {
        fn expand<T: Copy>(
            configs: Vec<ControllerConfig>,
            values: &[T],
            set: impl Fn(&mut ControllerConfig, T),
        ) -> Vec<ControllerConfig> {
            let mut out = Vec::new();
            for c in configs {
                for &v in values {
                    let mut c = c.clone();
                    set(&mut c, v);
                    out.push(c);
                }
            }
            out
        }
        let modes = [
            ProtectionMode::Plain,
            ProtectionMode::Ecb,
            ProtectionMode::Ctr,
            ProtectionMode::Scattered,
        ];
        let strategies = [
            ShredStrategy::MinorIncrementAll,
            ShredStrategy::MajorBumpOnly,
            ShredStrategy::MajorBumpResetMinors,
        ];
        let mut all = vec![ControllerConfig::small_test()];
        all = expand(all, &modes, |c, v| c.protection = v);
        all = expand(all, &[false, true], |c, v| c.shredder = v);
        all = expand(all, &[false, true], |c, v| c.deuce = v);
        all = expand(all, &[None, Some(WriteQueueConfig::default())], |c, v| {
            c.write_queue = v;
        });
        all = expand(all, &[false, true], |c, v| c.wear_leveling = v);
        all = expand(all, &[PersistDomain::Eadr, PersistDomain::Adr], |c, v| {
            c.persist_domain = v;
        });
        expand(all, &strategies, |c, v| c.shred_strategy = v)
    }

    /// The acceptance rules of DESIGN.md §13 (ADR) and §15 (protection
    /// modes), restated independently of `validate`.
    fn documented_valid(c: &ControllerConfig) -> bool {
        use ProtectionMode::{Ctr, Scattered};
        let adr = c.persist_domain == PersistDomain::Adr;
        let queued = c.write_queue.is_some();
        // The shredder needs per-line metadata to reset.
        let shredder_ok = !c.shredder || matches!(c.protection, Ctr | Scattered);
        // DEUCE re-encrypts counter-mode chunks; its chunk metadata has
        // no ADR journal pre-image.
        let deuce_ok = !c.deuce || (c.protection == Ctr && !adr);
        // Shares have no story for queue coalescing, Start-Gap moves,
        // or shred strategies that leave minors non-zero.
        let scattered_ok = c.protection != Scattered
            || !(queued
                || c.wear_leveling
                || (c.shredder && c.shred_strategy != ShredStrategy::MajorBumpResetMinors));
        // ADR cannot cover counters bumped for a volatile queued write,
        // nor Start-Gap moves.
        let adr_ok = !adr || !(c.wear_leveling || (queued && c.protection == Ctr));
        shredder_ok && deuce_ok && scattered_ok && adr_ok
    }

    /// Boots `cfg`, round-trips a line and, with the shredder, shreds
    /// its page; under ADR the same checks run again after a power
    /// cycle and recovery.
    fn smoke(cfg: ControllerConfig) {
        let label = format!("{cfg:?}");
        let shredder = cfg.shredder;
        let zero_fill = shredder && cfg.shred_strategy == ShredStrategy::MajorBumpResetMinors;
        let adr = cfg.persist_domain == PersistDomain::Adr;
        let mut mc = MemoryController::new(cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
        let page = PageId::new(3);
        let addr = page.block_addr(5);
        let line = [0x5A; LINE_SIZE];
        mc.write_block(addr, &line, false, Cycles::ZERO).unwrap();
        assert_eq!(
            mc.read_block(addr, Cycles::ZERO).unwrap().data,
            line,
            "{label}"
        );
        if shredder {
            mc.shred_page(page, true).unwrap();
        }
        let check = |mc: &mut MemoryController| {
            if zero_fill {
                for b in 0..BLOCKS_PER_PAGE {
                    let r = mc.read_block(page.block_addr(b), Cycles::ZERO).unwrap();
                    assert!(r.zero_filled && r.data == [0; LINE_SIZE], "{label}");
                }
            } else {
                let r = mc.read_block(addr, Cycles::ZERO).unwrap();
                // A shred that leaves minors non-zero turns the page to
                // garbage instead of zeros; either way the line is gone.
                assert_eq!(r.data == line, !shredder, "{label}");
            }
        };
        check(&mut mc);
        if adr {
            mc.fence_drain(Cycles::ZERO).unwrap();
            mc.power_loss().unwrap();
            assert!(mc.recover_mut().unwrap().root_verified, "{label}");
            check(&mut mc);
        }
    }

    #[test]
    fn build_accepts_exactly_the_documented_combinations() {
        let all = axis_combinations();
        assert_eq!(all.len(), 4 * 2 * 2 * 2 * 2 * 2 * 3);
        let mut accepted = 0;
        for cfg in all {
            let expected = documented_valid(&cfg);
            match cfg.clone().into_builder().build() {
                Ok(built) => {
                    assert!(expected, "build() accepted {cfg:?}");
                    smoke(built);
                    accepted += 1;
                }
                Err(e) => assert!(!expected, "build() rejected {cfg:?}: {e}"),
            }
        }
        assert_eq!(accepted, 98);
    }

    #[test]
    fn builder_validates_at_build_time() {
        let cfg = ControllerConfigBuilder::small_test()
            .protection(ProtectionMode::Scattered)
            .spare_lines(8)
            .build()
            .unwrap();
        assert_eq!(cfg.protection, ProtectionMode::Scattered);
        assert_eq!(cfg.spare_lines, 8);

        // The invalid combo is caught at the single choke point.
        assert!(ControllerConfigBuilder::small_test()
            .protection(ProtectionMode::Plain)
            .build()
            .is_err());
    }
}
