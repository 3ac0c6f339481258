//! Server consolidation: the paper's motivating deployment (§1, §7.2).
//!
//! A consolidated host churns through virtual machines — boot, run a
//! tenant, tear down, boot the next — and balloons memory between them.
//! Every transition shreds pages at both the hypervisor and guest level
//! (Fig. 1's double shredding). This example measures a whole churn
//! cycle under each zeroing strategy on the real hardware stack.
//!
//! ```sh
//! cargo run --release --example server_consolidation
//! ```

use silent_shredder::cache::{Hierarchy, HierarchyConfig};
use silent_shredder::common::{Cycles, PageId, Result, PAGE_SIZE};
use silent_shredder::os::machine::MachineOps;
use silent_shredder::os::Hypervisor;
use silent_shredder::prelude::*;
use silent_shredder::sim::Hardware;

const HOST_FRAMES: u64 = 2048;
const VM_FRAMES: usize = 256;
const TENANT_PAGES: u64 = 64;
const GENERATIONS: usize = 6;

fn churn(strategy: ZeroStrategy) -> Result<(u64, u64, u64)> {
    let hierarchy = Hierarchy::new(&HierarchyConfig {
        cores: 2,
        ..HierarchyConfig::scaled_down(128)
    })?;
    let controller = MemoryController::new(
        ControllerConfigBuilder::new()
            .data_capacity((HOST_FRAMES + 16) * PAGE_SIZE as u64)
            .counter_cache_bytes(256 << 10)
            .build()?,
    )?;
    let mut hw = Hardware::new(hierarchy, controller);
    let mut hyp = Hypervisor::new(
        (1..HOST_FRAMES).map(PageId::new).collect(),
        strategy,
        strategy,
    );

    let mut clock = Cycles::ZERO;
    for generation in 0..GENERATIONS {
        let (vm, lat) = hyp.create_vm(&mut hw, 0, VM_FRAMES, clock)?;
        clock += lat;
        // The tenant allocates, touches its working set, and writes data.
        let kernel = hyp.vm_kernel_mut(vm)?;
        let tenant = kernel.create_process();
        let heap = kernel.sys_alloc(tenant, TENANT_PAGES * PAGE_SIZE as u64)?;
        for p in 0..TENANT_PAGES {
            let (pa, fault_lat) = kernel.handle_fault(
                &mut hw,
                0,
                tenant,
                heap.add(p * PAGE_SIZE as u64),
                true,
                clock,
            )?;
            clock += fault_lat;
            let payload = [generation as u8 + 1; 64];
            clock += hw.write_line_temporal(0, pa.block(), &payload, false, clock);
        }
        // Mid-life: the host balloons a quarter of the VM's free memory
        // away and later grants it back.
        let (reclaimed, lat) = hyp.balloon_reclaim(&mut hw, 0, vm, VM_FRAMES / 4, clock)?;
        clock += lat;
        clock += hyp.balloon_grant(&mut hw, 0, vm, reclaimed, clock)?;
        // Teardown.
        let kernel = hyp.vm_kernel_mut(vm)?;
        kernel.exit_process(tenant)?;
        hyp.destroy_vm(vm)?;
    }

    let mem = &hw.controller.inspect().stats().mem;
    Ok((
        mem.zeroing_writes.get(),
        hyp.stats().pages_shredded.get(),
        clock.raw(),
    ))
}

fn main() -> Result<()> {
    println!(
        "Consolidated host: {GENERATIONS} VM generations x {VM_FRAMES} frames, \
         {TENANT_PAGES}-page tenants, ballooning each cycle\n"
    );
    println!(
        "{:<26} {:>15} {:>14} {:>16}",
        "strategy", "zeroing writes", "host shreds", "total cycles"
    );
    let mut baseline_cycles: Option<u64> = None;
    for strategy in [
        ZeroStrategy::Temporal,
        ZeroStrategy::NonTemporal,
        ZeroStrategy::DmaEngine,
        ZeroStrategy::ShredCommand,
    ] {
        let (zeroing, shreds, cycles) = churn(strategy)?;
        let baseline = *baseline_cycles.get_or_insert(cycles);
        println!(
            "{:<26} {:>15} {:>14} {:>16}   ({:.2}x vs temporal)",
            format!("{strategy:?}"),
            zeroing,
            shreds,
            cycles,
            baseline as f64 / cycles as f64
        );
    }
    println!("\nShred-command churn does the same isolation work with zero zeroing writes.");
    Ok(())
}
