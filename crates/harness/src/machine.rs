//! The per-shard plumbing every sweep engine shares.
//!
//! Every engine drives the one [`ShardedController`] that
//! [`SweepConfig::machine`](crate::sweep::SweepConfig::machine) builds;
//! one shard is the plain controller, byte for byte. What the engines
//! do *per shard* is written here once: a fault-port capability at a
//! page or line goes to the owning shard through the interleave, a
//! per-shard count is summed over the shards, and reboot merges the
//! shards' recovery reports.

use ss_common::{BlockAddr, PageId, Result};
use ss_core::{FaultPort, Inspect, RecoveryReport, ShardedController};

/// Runs `f` on the fault port of the shard owning `page`, with the page
/// translated into that shard's local frame number.
pub(crate) fn at_page<T>(
    m: &mut ShardedController,
    page: PageId,
    f: impl FnOnce(FaultPort<'_>, PageId) -> T,
) -> T {
    let il = m.interleave();
    let (s, local) = (il.shard_of_page(page), il.local_page(page));
    let port = m.faults_shard(s as usize);
    let port = port.expect("the interleave maps every page to a shard");
    f(port, local)
}

/// [`at_page`] for the line at `addr`, translated into its shard's local
/// address space.
pub(crate) fn at_block<T>(
    m: &mut ShardedController,
    addr: BlockAddr,
    f: impl FnOnce(FaultPort<'_>, BlockAddr) -> T,
) -> T {
    let local = m.interleave().local_block(addr);
    at_page(m, addr.page(), |port, _| f(port, local))
}

/// Sums a per-shard count over every shard.
pub(crate) fn shard_sum(m: &ShardedController, count: impl Fn(Inspect<'_>) -> u64) -> u64 {
    (0..m.shards() as usize)
        .filter_map(|s| m.inspect_shard(s))
        .map(count)
        .sum()
}

/// Reboots every shard. With `recovery`, each runs the full recovery
/// protocol and the reports merge by summing counts; the first failing
/// shard's error wins. Without it (the weakened crash config), nothing
/// runs and the report is empty.
pub(crate) fn reboot(m: &mut ShardedController, recovery: bool) -> Result<RecoveryReport> {
    if !recovery {
        return Ok(RecoveryReport::default());
    }
    let mut merged = RecoveryReport {
        root_verified: true,
        ..RecoveryReport::default()
    };
    for (_, r) in m.recover_mut_all().into_results() {
        let r = r?;
        merged.journal_open |= r.journal_open;
        if merged.interrupted_tag == 0 {
            merged.interrupted_tag = r.interrupted_tag;
        }
        merged.undone += r.undone;
        merged.redone += r.redone;
        merged.remaps_rolled_back += r.remaps_rolled_back;
        merged.root_verified &= r.root_verified;
        merged.shredded_pages += r.shredded_pages;
    }
    Ok(merged)
}
