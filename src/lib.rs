//! **silent-shredder** — a from-scratch Rust reproduction of
//! *"Silent Shredder: Zero-Cost Shredding for Secure Non-Volatile Main
//! Memory Controllers"* (Awad, Manadhata, Haber, Solihin, Horne —
//! ASPLOS 2016).
//!
//! This facade re-exports the workspace crates:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`common`] | `ss-common` | addresses, cycles, stats, PRNG |
//! | [`crypto`] | `ss-crypto` | AES-128, counter mode, IVs, SHA-256, Merkle tree |
//! | [`nvm`] | `ss-nvm` | PCM-like device: timing, endurance, energy, remanence |
//! | [`cache`] | `ss-cache` | set-associative caches, 4-level coherent hierarchy |
//! | [`core`] | `ss-core` | **the Silent Shredder secure NVMM controller** |
//! | [`cpu`] | `ss-cpu` | in-order multicore model, IPC accounting |
//! | [`os`] | `ss-os` | simulated kernel & hypervisor (faults, shredding, ballooning) |
//! | [`workloads`] | `ss-workloads` | SPEC-like models, PowerGraph-like graph apps |
//! | [`sim`] | `ss-sim` | the full-system simulator |
//!
//! # Quickstart
//!
//! ```
//! use silent_shredder::sim::{System, SystemConfig};
//! use silent_shredder::cpu::Op;
//!
//! // Boot a Silent Shredder machine and run a process that touches a
//! // freshly allocated page: the kernel shreds the frame for free, and
//! // reading an untouched line zero-fills without going to NVM.
//! let mut system = System::new(SystemConfig::small_test(true))?;
//! let pid = system.spawn_process(0)?;
//! let heap = system.sys_alloc(pid, 4096)?;
//! system.run(
//!     vec![vec![Op::StoreLine(heap), Op::Load(heap.add(512))].into_iter()],
//!     None,
//! );
//! let stats = &system.hardware().controller.inspect().stats().mem;
//! assert_eq!(stats.zeroing_writes.get(), 0);
//! # Ok::<(), silent_shredder::common::Error>(())
//! ```
//!
//! See `examples/` for runnable scenarios, `crates/bench/src/bin/repro.rs`
//! for the figure/table reproduction harness, and DESIGN.md /
//! EXPERIMENTS.md for methodology.

#![forbid(unsafe_code)]

pub use ss_cache as cache;
pub use ss_common as common;
pub use ss_core as core;
pub use ss_cpu as cpu;
pub use ss_crypto as crypto;
pub use ss_nvm as nvm;
pub use ss_os as os;
pub use ss_sim as sim;
pub use ss_workloads as workloads;

/// The most commonly used types, importable in one line. A
/// [`Kernel`](ss_os::Kernel) boots from its `clear_page` strategy alone:
/// `Kernel::new(ZeroStrategy::ShredCommand, frames)`.
pub mod prelude {
    pub use ss_common::{BlockAddr, Cycles, Error, PageId, PhysAddr, Result, VirtAddr};
    pub use ss_core::{
        ControllerConfig, ControllerConfigBuilder, MemoryController, ProtectionMode, ShredStrategy,
    };
    pub use ss_cpu::Op;
    pub use ss_os::{Kernel, ZeroStrategy};
    pub use ss_sim::{System, SystemConfig};
    pub use ss_workloads::{GraphApp, GraphWorkload, SpecWorkload, Workload};
}
