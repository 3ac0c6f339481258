//! Virtual-machine isolation (§7.2, Fig. 1): the hypervisor shreds pages
//! before granting them to a VM, the guest kernel shreds them again
//! before mapping them into processes — and with Silent Shredder both
//! layers pay nothing.
//!
//! Also demonstrates memory ballooning and the inter-VM leak that
//! shredding prevents.
//!
//! ```sh
//! cargo run --release --example vm_isolation
//! ```

use silent_shredder::common::{Cycles, PageId, Result};
use silent_shredder::os::machine::MachineOps;
use silent_shredder::os::{Hypervisor, ZeroStrategy};
use silent_shredder::prelude::*;
use silent_shredder::sim::Hardware;

use silent_shredder::cache::{Hierarchy, HierarchyConfig};

fn build_hardware() -> Result<Hardware> {
    let hierarchy = Hierarchy::new(&HierarchyConfig {
        cores: 2,
        ..HierarchyConfig::scaled_down(64)
    })?;
    let controller = MemoryController::new(
        ControllerConfigBuilder::new()
            .data_capacity(8 << 20)
            .counter_cache_bytes(64 << 10)
            .build()?,
    )?;
    Ok(Hardware::new(hierarchy, controller))
}

fn demo(strategy: ZeroStrategy) -> Result<()> {
    println!("--- host/guest shredding via {strategy:?} ---");
    let mut hw = build_hardware()?;
    let frames: Vec<PageId> = (1..1024).map(PageId::new).collect();
    let mut hyp = Hypervisor::new(frames, strategy, strategy);

    // VM 1 boots, runs a tenant that writes a secret, then shuts down.
    let (vm1, _) = hyp.create_vm(&mut hw, 0, 128, Cycles::ZERO)?;
    let k1 = hyp.vm_kernel_mut(vm1)?;
    let tenant = k1.create_process();
    let buf = k1.sys_alloc(tenant, 16 * 4096)?;
    let mut secret_frame = None;
    for p in 0..16u64 {
        let (pa, _) = k1.handle_fault(&mut hw, 0, tenant, buf.add(p * 4096), true, Cycles::ZERO)?;
        hw.write_line_temporal(0, pa.block(), &[0x53; 64], false, Cycles::ZERO);
        secret_frame.get_or_insert(pa.page());
    }
    k1.exit_process(tenant)?;
    hyp.destroy_vm(vm1)?;
    println!(
        "  vm1 tenant wrote secrets into {} pages (first frame: {})",
        16,
        secret_frame.expect("wrote at least one page")
    );

    // VM 2 gets the recycled frames. The hypervisor shreds on grant.
    let before = hw.controller.inspect().stats().mem.zeroing_writes.get();
    let (vm2, grant_lat) = hyp.create_vm(&mut hw, 0, 128, Cycles::ZERO)?;
    let zeroing_writes = hw.controller.inspect().stats().mem.zeroing_writes.get() - before;
    println!(
        "  vm2 granted 128 recycled frames: {} zeroing writes, {} cycles, {} host shreds",
        zeroing_writes,
        grant_lat.raw(),
        hyp.stats().pages_shredded
    );

    // The new tenant reads its fresh allocation: must see zeros.
    let k2 = hyp.vm_kernel_mut(vm2)?;
    let tenant2 = k2.create_process();
    let buf2 = k2.sys_alloc(tenant2, 16 * 4096)?;
    let (pa, _) = k2.handle_fault(&mut hw, 0, tenant2, buf2, true, Cycles::ZERO)?;
    let (line, _) = hw.read_line(0, pa.block(), Cycles::ZERO);
    println!(
        "  vm2 tenant's first read: {} (leak {})",
        if line == [0u8; 64] {
            "zeros"
        } else {
            "previous tenant's data!"
        },
        if line == [0x53; 64] {
            "CONFIRMED"
        } else {
            "prevented"
        },
    );

    // Ballooning: reclaim half of vm2's free frames, shredding them.
    let (reclaimed, _) = hyp.balloon_reclaim(&mut hw, 0, vm2, 64, Cycles::ZERO)?;
    println!(
        "  ballooned {reclaimed} frames back to the host (total shreds: {})",
        hyp.stats().pages_shredded
    );
    println!();
    Ok(())
}

fn main() -> Result<()> {
    println!("VM isolation and double shredding (paper Fig. 1, §7.2)\n");
    demo(ZeroStrategy::NonTemporal)?;
    demo(ZeroStrategy::ShredCommand)?;
    println!("With the shred command, inter-VM isolation costs no NVM writes at all.");
    Ok(())
}
