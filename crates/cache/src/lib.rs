//! Cache hierarchy substrate.
//!
//! Implements the 4-level hierarchy of the paper's evaluation platform
//! (Table 1): private 64 KiB L1 and 512 KiB L2 per core, shared 8 MiB L3
//! and 64 MiB L4, all 8-way, 64 B lines, with MESI-style invalidation
//! between the private levels of different cores.
//!
//! * [`set_assoc`] — a generic set-associative, LRU, write-back cache used
//!   for every level *and* reused by the memory controller's counter cache.
//!   Its sets are flat arrays of tags and recency ranks.
//! * [`hierarchy`] — the multi-core hierarchy with snoops of the other
//!   cores' private caches (only those that hold a line of the page, by an
//!   exact per-page snoop filter), dirty-data forwarding, eviction cascades
//!   and page invalidation (the operation a shred command triggers, Fig. 6
//!   step 2).
//!
//! # Examples
//!
//! ```
//! use ss_cache::{CacheConfig, SetAssocCache};
//! use ss_common::BlockAddr;
//!
//! let mut c: SetAssocCache<u32> = SetAssocCache::new(
//!     CacheConfig::new("toy", 4 * 64, 2, ss_common::Cycles::new(1)).unwrap(),
//! );
//! assert!(c.get(BlockAddr::new(0)).is_none());
//! c.insert(BlockAddr::new(0), 42, false);
//! assert_eq!(c.get(BlockAddr::new(0)).map(|e| e.value), Some(42));
//! ```

#![forbid(unsafe_code)]

pub mod hierarchy;
pub mod set_assoc;

pub use hierarchy::{AccessKind, AccessResult, Hierarchy, HierarchyConfig, Level, LevelStats};
pub use set_assoc::{CacheConfig, CacheStats, Entry, Evicted, Inserted, SetAssocCache};
