//! **Silent Shredder** — the paper's contribution: a secure non-volatile
//! main-memory (NVMM) controller that makes OS page shredding free.
//!
//! The controller sits between the LLC and the NVM array. All data is
//! encrypted with counter-mode AES under a processor key; each 4 KiB page
//! has a counter block `{64-bit major, 64 × 7-bit minors}` cached in a
//! 4 MiB on-chip counter cache (Table 1). The key mechanisms (§4):
//!
//! * **Shred command** ([`MemoryController::mmio_write`] to
//!   [`mmio::SHRED_REG`], kernel-mode only): increments the page's major
//!   counter and resets all its minor counters to the reserved value 0 —
//!   no data block is ever written. The page's old ciphertext becomes
//!   unintelligible under the new IVs.
//! * **Zero-fill reads**: an LLC miss whose minor counter is 0 returns a
//!   zero line without touching the NVM array.
//! * **Minor-counter discipline**: live blocks use minors 1..=127;
//!   overflow bumps the major counter and re-encrypts the page.
//!
//! The same type also implements the comparison points: a plain
//! (unencrypted) controller, a counter-mode controller *without* the
//! shredder (the evaluation baseline), direct/ECB encryption, the
//! alternative shred strategies of §4.2, and a DEUCE-style \[43\]
//! write-efficient encryption mode ([`deuce`]).
//!
//! # Examples
//!
//! ```
//! use ss_core::{ControllerConfig, MemoryController};
//! use ss_common::{Cycles, PageId};
//!
//! let mut mc = MemoryController::new(ControllerConfig::small_test())?;
//! let page = PageId::new(3);
//! let addr = page.block_addr(0);
//!
//! mc.write_block(addr, &[0xAB; 64], false, Cycles::ZERO)?;
//! assert_eq!(mc.read_block(addr, Cycles::ZERO)?.data, [0xAB; 64]);
//!
//! // Shred the page: zero cost, and subsequent reads are zero-filled.
//! mc.shred_page(page, true)?;
//! let read = mc.read_block(addr, Cycles::ZERO)?;
//! assert!(read.zero_filled);
//! assert_eq!(read.data, [0u8; 64]);
//! # Ok::<(), ss_common::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod channel;
pub mod config;
pub mod controller;
pub mod counters;
pub mod deuce;
pub mod heal;
pub mod interleave;
pub mod mmio;
pub mod persist;
pub mod shard;
pub mod wqueue;

pub use channel::ChannelSched;
pub use config::{
    ControllerConfig, ControllerConfigBuilder, CounterPersistence, PersistDomain, ProtectionMode,
    ShardedConfig, ShardedConfigBuilder, ShredStrategy,
};
pub use controller::ports::{FaultPort, Inspect};
pub use controller::{ControllerStats, MemoryController, ProtStats, ReadResult};
pub use counters::CounterBlock;
pub use heal::{HealthStats, RetryPolicy, SparePool};
pub use interleave::Interleave;
pub use mmio::{MmioError, MmioOp, SHRED_DRAIN_REG, SHRED_ENQ_REG, SHRED_REG};
pub use persist::{CrashCut, RecoveryReport, SeqTag};
pub use shard::{DrainReport, PerShard, ShardedController, ShredQueueStats};
pub use wqueue::{WriteQueue, WriteQueueConfig, WriteQueueStats};
// Re-exported because `ControllerConfig::nvm_ecc` is part of this
// crate's public configuration surface.
pub use ss_nvm::EccConfig;
