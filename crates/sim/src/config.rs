//! System-level configuration presets.

use ss_cache::HierarchyConfig;
use ss_core::ControllerConfig;
use ss_os::ZeroStrategy;

/// Everything needed to build a [`crate::System`].
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// Cache-hierarchy geometry (Table 1 defaults).
    pub hierarchy: HierarchyConfig,
    /// Memory-controller configuration.
    pub controller: ControllerConfig,
    /// How the kernel's `clear_page` shreds a frame.
    pub zero_strategy: ZeroStrategy,
}

impl SystemConfig {
    /// The evaluation baseline of §5: counter-mode encrypted NVMM,
    /// shredding via invalidation + non-temporal zero stores.
    pub fn baseline() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::default(),
            controller: ControllerConfig::encrypted_baseline(),
            zero_strategy: ZeroStrategy::NonTemporal,
        }
    }

    /// Silent Shredder: same platform, zeroing replaced by the shred
    /// command.
    pub fn silent_shredder() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::default(),
            controller: ControllerConfig::default(),
            zero_strategy: ZeroStrategy::ShredCommand,
        }
    }

    /// An unencrypted system (motivation experiments, attack demos).
    pub fn plain() -> Self {
        SystemConfig {
            hierarchy: HierarchyConfig::default(),
            controller: ControllerConfig::plain(),
            zero_strategy: ZeroStrategy::NonTemporal,
        }
    }

    /// Replaces the kernel zeroing strategy (validating it against the
    /// controller happens at [`crate::System::new`]).
    pub fn with_zero_strategy(mut self, strategy: ZeroStrategy) -> Self {
        self.zero_strategy = strategy;
        self
    }

    /// Scales caches and memory down for fast runs: `shrink`× smaller
    /// caches, `data_mib` MiB of memory. Shapes and latencies are
    /// unchanged, so baseline-vs-shredder comparisons are preserved
    /// (see DESIGN.md on scaling).
    pub fn scaled(mut self, shrink: usize, data_mib: u64) -> Self {
        self.hierarchy = HierarchyConfig {
            cores: self.hierarchy.cores,
            ..HierarchyConfig::scaled_down(shrink)
        };
        self.controller.data_capacity = data_mib << 20;
        // Keep the counter cache proportionate (it covers data/64).
        self.controller.counter_cache_bytes = usize::try_from((data_mib << 20) / 64)
            .expect("fits usize")
            .max(16 << 10);
        self
    }

    /// A tiny single-purpose config for tests and doc examples.
    /// `shredder` selects Silent Shredder vs the baseline.
    pub fn small_test(shredder: bool) -> Self {
        let base = if shredder {
            Self::silent_shredder()
        } else {
            Self::baseline()
        };
        let mut cfg = base.scaled(64, 4);
        cfg.hierarchy.cores = 2;
        cfg
    }

    /// Number of cores.
    pub fn cores(&self) -> usize {
        self.hierarchy.cores
    }

    /// Whether this configuration uses the Silent Shredder mechanism.
    pub fn is_shredder(&self) -> bool {
        self.controller.shredder && self.zero_strategy == ZeroStrategy::ShredCommand
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_consistent() {
        assert!(SystemConfig::silent_shredder().is_shredder());
        assert!(!SystemConfig::baseline().is_shredder());
    }

    #[test]
    fn scaling_shrinks() {
        let c = SystemConfig::baseline().scaled(16, 64);
        assert_eq!(c.controller.data_capacity, 64 << 20);
        assert!(c.hierarchy.l4_size < HierarchyConfig::default().l4_size);
        assert_eq!(c.controller.counter_cache_bytes, 1 << 20);
    }

    #[test]
    fn small_test_has_two_cores() {
        assert_eq!(SystemConfig::small_test(true).cores(), 2);
    }
}
