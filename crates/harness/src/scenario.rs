//! The controller-level crash at every write-queue depth that
//! `tests/persistence.rs` runs, and the verdict it returns.

use std::fmt;

use ss_common::{BlockAddr, Cycles, Error, PageId, LINE_SIZE};
use ss_core::{ControllerConfigBuilder, CounterPersistence, WriteQueueConfig};

use crate::machine::reboot;
use crate::shadow::Line;
use crate::sweep::SweepConfig;

/// The outcome of a crash/recovery round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVerdict {
    /// Recovery succeeded and every pre-crash line read back intact.
    Recovered,
    /// Recovery reported [`Error::CounterLoss`] and every subsequent
    /// read refused to serve data. Legal only for volatile counters.
    CounterLoss,
    /// Wrong data, a stray error, or data served after counter loss.
    Corrupted {
        /// Raw block address of the first divergence (0 when the failure
        /// is not tied to one address).
        addr: u64,
    },
}

impl fmt::Display for CrashVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CrashVerdict::Recovered => write!(f, "recovered"),
            CrashVerdict::CounterLoss => write!(f, "counter-loss (detected)"),
            CrashVerdict::Corrupted { addr } => write!(f, "CORRUPTED at {addr:#x}"),
        }
    }
}

/// Cuts power with exactly `depth` distinct lines written round-robin
/// into a `shards`-channel controller (one shard is the plain
/// controller), then recovers every shard and verifies every line.
///
/// Each shard's 8-deep write queue never drains on its own below depth
/// 8, so every line is still queued at the crash: the ADR guarantee
/// (`power_loss` drains the queue) is load-bearing here, and one
/// shard's counter loss must not be masked by its clean siblings.
///
/// # Panics
///
/// Panics if the controller cannot be built (harness misuse).
pub fn crash_at_depth(persistence: CounterPersistence, depth: usize, shards: u32) -> CrashVerdict {
    let queue = WriteQueueConfig {
        capacity: 8,
        drain_low: 1,
        drain_high: 8,
    };
    let base = ControllerConfigBuilder::small_test()
        .counter_persistence(persistence)
        .write_queue(Some(queue))
        .build()
        .expect("scenario config must build");
    let mut sc = SweepConfig::sharded("crash-at-depth", base, shards)
        .machine()
        .expect("scenario config must build");
    let mut written: Vec<(BlockAddr, Line)> = Vec::new();
    for i in 0..depth {
        // Consecutive pages interleave round-robin, touching every shard
        // once depth >= shards.
        let addr = PageId::new(1 + i as u64).block_addr(i);
        let line = [(i as u8) ^ 0xA5; LINE_SIZE];
        sc.write_block(addr, &line, false, Cycles::ZERO)
            .expect("pre-crash write");
        written.push((addr, line));
    }
    if sc.power_loss().ok().is_err() {
        return CrashVerdict::Corrupted { addr: 0 };
    }
    match reboot(&mut sc, true) {
        Ok(_) => {}
        Err(Error::CounterLoss) => {
            // Degraded mode: every read must fail loudly, not guess.
            for (addr, _) in &written {
                if sc.read_block(*addr, Cycles::ZERO).is_ok() {
                    return CrashVerdict::Corrupted { addr: addr.raw() };
                }
            }
            return CrashVerdict::CounterLoss;
        }
        Err(_) => return CrashVerdict::Corrupted { addr: 0 },
    }
    for (addr, line) in &written {
        match sc.read_block(*addr, Cycles::ZERO) {
            Ok(r) if r.data == *line => {}
            _ => return CrashVerdict::Corrupted { addr: addr.raw() },
        }
    }
    CrashVerdict::Recovered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_backed_survives_every_depth() {
        for depth in 0..=8 {
            assert_eq!(
                crash_at_depth(CounterPersistence::BatteryBackedWriteBack, depth, 1),
                CrashVerdict::Recovered,
                "depth {depth}"
            );
        }
    }

    #[test]
    fn volatile_loss_is_loud() {
        let v = crash_at_depth(CounterPersistence::VolatileWriteBack, 4, 1);
        assert_eq!(v, CrashVerdict::CounterLoss);
    }

    #[test]
    fn sharded_battery_backed_survives_every_depth() {
        for depth in 0..=8 {
            assert_eq!(
                crash_at_depth(CounterPersistence::BatteryBackedWriteBack, depth, 4),
                CrashVerdict::Recovered,
                "depth {depth}"
            );
        }
    }

    #[test]
    fn sharded_volatile_loss_is_loud() {
        let v = crash_at_depth(CounterPersistence::VolatileWriteBack, 6, 4);
        assert_eq!(v, CrashVerdict::CounterLoss);
    }
}
