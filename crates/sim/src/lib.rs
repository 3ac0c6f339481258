//! Full-system simulator: cores + caches + OS + Silent Shredder controller.
//!
//! This crate wires every substrate together into a [`System`] that
//! plays the role gem5 plays in the paper (§5): workloads are instruction
//! streams ([`ss_cpu::Op`]) running on simulated processes; loads and
//! stores are translated by the simulated kernel, page faults run the
//! real fault handler (including `clear_page` under the configured
//! [`ss_os::ZeroStrategy`]), and every memory access flows through the
//! 4-level hierarchy into the secure NVMM controller.
//!
//! [`SystemConfig`] provides the paper's configurations:
//! [`SystemConfig::baseline`] (counter-mode encryption + non-temporal
//! zeroing, exactly the evaluation baseline of §5) and
//! [`SystemConfig::silent_shredder`] (shred command + zero-fill reads).
//!
//! # Examples
//!
//! ```
//! use ss_sim::{System, SystemConfig};
//! use ss_cpu::Op;
//!
//! let mut system = System::new(SystemConfig::small_test(true))?;
//! let pid = system.spawn_process(0)?;
//! let buf = system.sys_alloc(pid, 4096)?;
//!
//! // Touch the page: the fault handler shreds the frame for free.
//! let ops = vec![Op::StoreLine(buf), Op::Load(buf), Op::Compute(10)];
//! let summary = system.run(vec![ops.into_iter()], None);
//! assert_eq!(summary.total_instructions(), 12);
//! # Ok::<(), ss_common::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod config;
pub mod consolidation;
pub mod hardware;
pub mod report;
pub mod system;
pub mod timeshare;

pub use config::SystemConfig;
pub use consolidation::{ConsolidationReport, ConsolidationScenario};
pub use hardware::Hardware;
pub use report::{RunReport, Table1Row};
pub use system::System;
