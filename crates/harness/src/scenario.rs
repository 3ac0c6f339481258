//! Canned crash/recovery scenarios shared by the integration tests.
//!
//! These are the deterministic building blocks of `tests/persistence.rs`:
//! a controller-level crash at every write-queue depth, and whole-system
//! ([`ss_sim::System`]) crash round trips that go through the real
//! kernel/cache/TLB stack before the power is cut.

use std::fmt;

use ss_common::{BlockAddr, Cycles, Error, PageId, LINE_SIZE, PAGE_SIZE};
use ss_core::{
    ControllerConfigBuilder, CounterPersistence, ShardedConfig, ShardedController, WriteQueueConfig,
};
use ss_cpu::Op;
use ss_sim::{System, SystemConfig};

use crate::shadow::Line;

/// The outcome of a crash/recovery round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashVerdict {
    /// `recover()` succeeded and every pre-crash line read back intact.
    Recovered,
    /// `recover()` reported [`Error::CounterLoss`] and every subsequent
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
    let mut sc = ShardedController::new(ShardedConfig::new(shards, base))
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
    match sc.recover().ok() {
        Ok(()) => {}
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

/// Whole-system crash round trip with the given counter persistence:
/// boot, run a store/load stream through the cache hierarchy, drain,
/// snapshot the architectural plaintext, cut power, recover, re-read.
fn system_crash(persistence: CounterPersistence) -> CrashVerdict {
    let mut cfg = SystemConfig::small_test(true);
    cfg.controller.counter_persistence = persistence;
    let mut sys = System::new(cfg).expect("system boot");
    sys.age_free_frames();
    let pid = sys.spawn_process(0).expect("spawn");
    let pages = 16u64;
    let buf = sys.sys_alloc(pid, pages * PAGE_SIZE as u64).expect("alloc");
    let ops: Vec<Op> = (0..pages)
        .flat_map(|p| {
            let base = buf.add(p * PAGE_SIZE as u64);
            [
                Op::StoreLine(base),
                Op::StoreLine(base.add(512)),
                Op::Load(base),
            ]
        })
        .collect();
    sys.run(vec![ops.into_iter()], None);
    sys.drain_caches();
    // Snapshot the architectural plaintext of every line the run left in
    // the NVM array, via the controller's debug decrypt path.
    let addrs: Vec<BlockAddr> = sys
        .hardware_mut()
        .controller
        .faults()
        .cold_scan_data()
        .into_iter()
        .map(|(a, _)| a)
        .collect();
    let mut before: Vec<(BlockAddr, Line)> = Vec::with_capacity(addrs.len());
    for a in addrs {
        match sys.hardware_mut().controller.faults().peek_plaintext(a) {
            Ok(l) => before.push((a, l)),
            Err(_) => return CrashVerdict::Corrupted { addr: a.raw() },
        }
    }
    if before.is_empty() {
        return CrashVerdict::Corrupted { addr: 0 }; // run wrote nothing?
    }
    if sys.crash().is_err() {
        return CrashVerdict::Corrupted { addr: 0 };
    }
    match sys.recover() {
        Ok(()) => {}
        Err(Error::CounterLoss) => {
            for (a, _) in &before {
                if sys
                    .hardware_mut()
                    .controller
                    .read_block(*a, Cycles::ZERO)
                    .is_ok()
                {
                    return CrashVerdict::Corrupted { addr: a.raw() };
                }
            }
            return CrashVerdict::CounterLoss;
        }
        Err(_) => return CrashVerdict::Corrupted { addr: 0 },
    }
    for (a, l) in &before {
        match sys.hardware_mut().controller.faults().peek_plaintext(*a) {
            Ok(now) if now == *l => {}
            _ => return CrashVerdict::Corrupted { addr: a.raw() },
        }
    }
    CrashVerdict::Recovered
}

/// Battery-backed whole-system crash round trip; expected to recover.
pub fn system_crash_roundtrip() -> CrashVerdict {
    system_crash(CounterPersistence::BatteryBackedWriteBack)
}

/// Volatile-counter whole-system crash; expected to report counter loss
/// (and never serve garbage) rather than recover.
pub fn system_volatile_crash() -> CrashVerdict {
    system_crash(CounterPersistence::VolatileWriteBack)
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
