//! A tiny persistent key-value store on a named pmem region (§2.1):
//! records written through real AES-CTR encryption survive a simulated
//! power loss and are recovered by a fresh "boot" of the kernel.
//!
//! ```sh
//! cargo run --release --example persistent_kv
//! ```

use silent_shredder::cache::{Hierarchy, HierarchyConfig};
use silent_shredder::common::{Cycles, PageId, Result, LINE_SIZE, PAGE_SIZE};
use silent_shredder::os::machine::MachineOps;
use silent_shredder::prelude::*;
use silent_shredder::sim::Hardware;

const STORE_NAME: u64 = 0x4B56_5354; // "KVST"
const STORE_PAGES: u64 = 8;

/// One slot per 64 B line: `[key: 8 bytes][value: 48 bytes][tag: 8 bytes]`.
const SLOT_TAG: u64 = 0x534C_4F54_5631; // "SLOTV1"

fn encode(key: u64, value: &[u8]) -> [u8; LINE_SIZE] {
    let mut line = [0u8; LINE_SIZE];
    line[0..8].copy_from_slice(&key.to_le_bytes());
    let n = value.len().min(48);
    line[8..8 + n].copy_from_slice(&value[..n]);
    line[56..64].copy_from_slice(&SLOT_TAG.to_le_bytes());
    line
}

fn decode(line: &[u8; LINE_SIZE]) -> Option<(u64, Vec<u8>)> {
    let tag = u64::from_le_bytes(line[56..64].try_into().expect("8 bytes"));
    if tag != SLOT_TAG {
        return None;
    }
    let key = u64::from_le_bytes(line[0..8].try_into().expect("8 bytes"));
    let value = line[8..56]
        .iter()
        .copied()
        .take_while(|&b| b != 0)
        .collect();
    Some((key, value))
}

struct Store {
    first_frame: PageId,
}

impl Store {
    fn put(&self, hw: &mut Hardware, slot: usize, key: u64, value: &[u8]) {
        let page = PageId::new(self.first_frame.raw() + (slot / 64) as u64);
        let addr = page.block_addr(slot % 64);
        // Non-temporal store + fence: the record is durable on return.
        hw.write_line_nt(0, addr, &encode(key, value), false, Cycles::ZERO);
        hw.fence(0, Cycles::ZERO);
    }

    fn get(&self, hw: &mut Hardware, slot: usize) -> Option<(u64, Vec<u8>)> {
        let page = PageId::new(self.first_frame.raw() + (slot / 64) as u64);
        let (line, _) = hw.read_line(0, page.block_addr(slot % 64), Cycles::ZERO);
        decode(&line)
    }
}

fn hardware() -> Result<Hardware> {
    Ok(Hardware::new(
        Hierarchy::new(&HierarchyConfig {
            cores: 1,
            ..HierarchyConfig::scaled_down(128)
        })?,
        MemoryController::new(
            ControllerConfigBuilder::new()
                .data_capacity(4 << 20)
                .counter_cache_bytes(32 << 10)
                .build()?,
        )?,
    ))
}

fn boot_kernel() -> Kernel {
    Kernel::new(
        ZeroStrategy::ShredCommand,
        (1..512).map(PageId::new).collect(),
    )
}

fn main() -> Result<()> {
    println!("Persistent key-value store over encrypted NVM (§2.1)\n");
    let mut hw = hardware()?;

    // --- First boot: create the store and insert records. ---
    let store = {
        let mut kernel = boot_kernel();
        kernel.enable_pmem()?;
        let pid = kernel.create_process();
        kernel.sys_palloc(
            &mut hw,
            0,
            pid,
            STORE_NAME,
            STORE_PAGES * PAGE_SIZE as u64,
            Cycles::ZERO,
        )?;
        let entry = kernel
            .pmem()
            .expect("pmem enabled")
            .find(STORE_NAME)
            .expect("registered");
        println!(
            "boot #1: created region {STORE_NAME:#x} ({} pages at {})",
            entry.pages, entry.first_frame
        );
        Store {
            first_frame: entry.first_frame,
        }
    };
    store.put(&mut hw, 0, 1001, b"alice -> 42 credits");
    store.put(&mut hw, 1, 1002, b"bob -> 17 credits");
    store.put(&mut hw, 97, 1003, b"carol -> 99 credits");
    println!("boot #1: inserted 3 records (non-temporal stores + fence)");

    // --- Power loss. ---
    let _ = hw.hierarchy.flush_all(); // caches are volatile: contents gone
    hw.controller.power_loss()?;
    hw.controller.recover_mut()?;
    println!("\n*** power loss; battery-backed counters flushed; caches lost ***\n");

    // --- Second boot: recover the directory and read everything back. ---
    let mut kernel2 = boot_kernel();
    let regions = kernel2.recover_pmem(&mut hw, 0, Cycles::ZERO)?;
    println!("boot #2: recovered {regions} persistent region(s)");
    let pid = kernel2.create_process();
    let va = kernel2.sys_pattach(pid, STORE_NAME)?;
    println!("boot #2: region remapped at {va}");
    let entry = kernel2
        .pmem()
        .expect("pmem enabled")
        .find(STORE_NAME)
        .expect("recovered");
    let store2 = Store {
        first_frame: entry.first_frame,
    };
    for slot in [0usize, 1, 97, 5] {
        match store2.get(&mut hw, slot) {
            Some((key, value)) => println!(
                "  slot {slot:>3}: key {key} = {:?}",
                String::from_utf8_lossy(&value)
            ),
            None => println!("  slot {slot:>3}: empty (reads as zeros — shredded at creation)"),
        }
    }
    println!("\nRecords decrypted correctly after reboot; empty slots zero-fill.");
    Ok(())
}
