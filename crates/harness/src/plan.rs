//! Seeded fault plans.

use ss_common::{DetRng, BLOCKS_PER_PAGE, LINE_SIZE};
use ss_core::{ControllerConfig, ProtectionMode};

/// Working-set size in pages: fault plans, their workload and the
/// attack scripts target pages `1..=PAGES`, which covers every shard of
/// the 8-shard attack configs.
pub const PAGES: u64 = 8;

/// One kind of injected fault. Only kinds applicable to the controller
/// configuration are ever scheduled (e.g. counter tampering is pointless
/// without counters, and is *undetectable by design* without the Merkle
/// tree — see DESIGN.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Sudden power loss: `power_loss()` → `recover_mut()` → resume or
    /// degrade, then full shadow verification.
    PowerLoss,
    /// A counter-cache frame loses its contents. Modeled as an
    /// ECC-scrubbed drop: the line is written back first if dirty, then
    /// invalidated, so the next access re-fetches (and Merkle-verifies)
    /// the NVM copy.
    CounterCacheLineDrop,
    /// A single stored bit of a *data* line flips in the NVM array.
    DataBitFlip,
    /// A single stored bit of a *counter* line flips in the NVM array.
    /// Scheduled only when integrity is on; must be detected.
    CounterBitFlip,
    /// An attacker writes back a previously captured counter line
    /// (replay). Scheduled only when integrity is on; must be detected.
    CounterReplay,
    /// A user-mode writer hits the kernel-only shred MMIO register;
    /// must raise a privilege violation and shred nothing.
    ShredDenied,
    /// A kernel shred command is lost in flight (never reaches the
    /// controller); architectural state must simply be unchanged.
    ShredDropped,
    /// A transient (soft) read error of 1–2 raw bit flips on a data
    /// line's next array read. Scheduled only when the device ECC can
    /// handle 2 flips non-silently; must be healed by inline correction
    /// or retry, never visible to software.
    TransientReadError,
    /// A line develops a permanent weak (stuck) cell. Scheduled only
    /// when ECC can correct it and a spare pool exists; the controller
    /// must rescue the line to a spare under a fresh IV on the next
    /// array read.
    StuckLine,
}

impl FaultKind {
    /// Short stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::PowerLoss => "power-loss",
            FaultKind::CounterCacheLineDrop => "ctr-cache-drop",
            FaultKind::DataBitFlip => "data-bit-flip",
            FaultKind::CounterBitFlip => "ctr-bit-flip",
            FaultKind::CounterReplay => "ctr-replay",
            FaultKind::ShredDenied => "shred-denied",
            FaultKind::ShredDropped => "shred-dropped",
            FaultKind::TransientReadError => "transient-read",
            FaultKind::StuckLine => "stuck-line",
        }
    }
}

/// A fault scheduled by event index: it fires once the controller's
/// cumulative NVM write count reaches `after_writes`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Fires when `MemoryController::nvm_writes() >= after_writes`.
    pub after_writes: u64,
    /// What to inject.
    pub kind: FaultKind,
    /// Target page, in `1..=PAGES`.
    pub page: u64,
    /// Target block within the page.
    pub block: usize,
    /// Target bit within the 64-byte line (for bit-flip faults).
    pub bit: usize,
}

/// A deterministic, seeded schedule of faults. Same seed + same
/// configuration ⇒ byte-identical plan, workload, and report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Faults in firing order (non-decreasing `after_writes`).
    pub faults: Vec<ScheduledFault>,
}

impl FaultPlan {
    /// Generates a plan of 3–6 faults applicable to `cfg`, targeting the
    /// working set `1..=PAGES`.
    pub fn generate(seed: u64, cfg: &ControllerConfig) -> Self {
        // Domain-separate plan generation from the workload stream so
        // adding a fault kind never perturbs the op sequence.
        let mut rng = DetRng::new(seed ^ 0xFA01_7C0D_E5EE_D000);
        let mut candidates = vec![
            FaultKind::PowerLoss,
            FaultKind::DataBitFlip,
            FaultKind::ShredDenied,
        ];
        if cfg.protection == ProtectionMode::Ctr {
            candidates.push(FaultKind::CounterCacheLineDrop);
            if cfg.integrity {
                candidates.push(FaultKind::CounterBitFlip);
                candidates.push(FaultKind::CounterReplay);
            }
        }
        if cfg.protection == ProtectionMode::Scattered {
            // The scattered backend keeps its liveness metadata in the
            // counter cache/region, so cache drops and (with integrity)
            // metadata bit flips apply. CounterReplay does not: live
            // scattered writes leave the liveness line unchanged, so a
            // captured line is often still current and the replay is a
            // semantic no-op rather than a detectable rollback.
            candidates.push(FaultKind::CounterCacheLineDrop);
            if cfg.integrity {
                candidates.push(FaultKind::CounterBitFlip);
            }
        }
        if cfg.shredder {
            candidates.push(FaultKind::ShredDropped);
        }
        // Media-error kinds need the healing machinery to be classifiable
        // as anything but corruption: a 2-flip transient must at least be
        // *detected* (else it aliases silently), and a stuck cell needs
        // correction headroom plus a spare to be rescued to.
        if cfg.nvm_ecc.correct >= 1 && cfg.nvm_ecc.detect >= 2 {
            candidates.push(FaultKind::TransientReadError);
        }
        if cfg.nvm_ecc.correct >= 1 && cfg.spare_lines > 0 {
            candidates.push(FaultKind::StuckLine);
        }
        let count = 3 + rng.below(4);
        let mut after = 0u64;
        let mut faults = Vec::new();
        for _ in 0..count {
            after += 5 + rng.below(40);
            faults.push(ScheduledFault {
                after_writes: after,
                kind: candidates[rng.below(candidates.len() as u64) as usize],
                page: 1 + rng.below(PAGES),
                block: rng.below(BLOCKS_PER_PAGE as u64) as usize,
                bit: rng.below((LINE_SIZE * 8) as u64) as usize,
            });
        }
        FaultPlan { faults }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan() {
        let cfg = ControllerConfig::small_test();
        assert_eq!(FaultPlan::generate(7, &cfg), FaultPlan::generate(7, &cfg));
    }

    #[test]
    fn plans_respect_config_applicability() {
        // Plain config: no counters, no integrity, no shredder — but
        // (with default ECC + spares) media-error kinds still apply.
        let mut cfg = ControllerConfig::plain();
        cfg.integrity = false;
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, &cfg);
            for f in &plan.faults {
                assert!(
                    matches!(
                        f.kind,
                        FaultKind::PowerLoss
                            | FaultKind::DataBitFlip
                            | FaultKind::ShredDenied
                            | FaultKind::TransientReadError
                            | FaultKind::StuckLine
                    ),
                    "inapplicable fault {:?} scheduled for a plain config",
                    f.kind
                );
            }
        }
    }

    #[test]
    fn media_error_kinds_require_healing_machinery() {
        // No ECC and no spares: a transient would alias silently and a
        // stuck cell could never be rescued — neither may be scheduled.
        let cfg = ss_core::ControllerConfigBuilder::small_test()
            .nvm_ecc(ss_core::EccConfig::disabled())
            .spare_lines(0)
            .build()
            .expect("ecc-less config must still validate");
        for seed in 0..64 {
            let plan = FaultPlan::generate(seed, &cfg);
            for f in &plan.faults {
                assert!(
                    !matches!(f.kind, FaultKind::TransientReadError | FaultKind::StuckLine),
                    "media fault {:?} scheduled without ECC/spares",
                    f.kind
                );
            }
        }
    }

    #[test]
    fn fire_points_are_ordered() {
        let cfg = ControllerConfig::small_test();
        for seed in 0..32 {
            let plan = FaultPlan::generate(seed, &cfg);
            assert!(!plan.faults.is_empty());
            for w in plan.faults.windows(2) {
                assert!(w[0].after_writes <= w[1].after_writes);
            }
        }
    }
}
