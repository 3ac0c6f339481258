//! Drivers shared between the property suite (`tests/properties.rs`,
//! which feeds them seeded random op sequences) and the regression
//! suite (`tests/regression.rs`, which replays the shrunk proptest
//! counterexamples the old suite had pinned).

use std::collections::{BTreeMap, BTreeSet};

use silent_shredder::common::{BlockAddr, Cycles};
use silent_shredder::prelude::*;

/// Cache-hierarchy coherence on `cores` cores: ops are `(op, core,
/// lineno, value)` with `op` 0 = write-line, 1 = read-and-check, 2 = partial
/// store of `value` into byte `value % 64` (read-for-ownership, a dirty
/// fill from memory on a miss, then the full-line write, as the full
/// system issues it), 3 = `invalidate_line` (a dirty copy goes to
/// memory), other = `flush_all`. Panics on any stale read, and when
/// memory lacks the newest value of a line the caches have let go of.
pub fn run_hierarchy_coherence(cores: usize, ops: &[(u8, usize, u64, u8)]) {
    use silent_shredder::cache::{AccessKind, Hierarchy, HierarchyConfig};
    let mut h = Hierarchy::new(&HierarchyConfig {
        cores,
        l1_size: 4 * 64 * 2,
        l2_size: 8 * 64 * 2,
        l3_size: 16 * 64 * 2,
        l4_size: 32 * 64 * 2,
        ways: 2,
    })
    .unwrap();
    // A simple memory backing store; dirty lines land in it in order.
    let mut memory: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    let write_back = |memory: &mut BTreeMap<u64, [u8; 64]>, lines: Vec<(BlockAddr, [u8; 64])>| {
        memory.extend(lines.into_iter().map(|(a, d)| (a.raw(), d)));
    };
    let mut shadow: BTreeMap<u64, [u8; 64]> = BTreeMap::new();
    for &(op, core, lineno, value) in ops {
        let addr = BlockAddr::new(lineno * 64);
        let expected = shadow.get(&addr.raw()).copied().unwrap_or([0; 64]);
        match op {
            0 => {
                let r = h.access(core, AccessKind::WriteLineNoFetch([value; 64]), addr);
                write_back(&mut memory, r.writebacks);
                shadow.insert(addr.raw(), [value; 64]);
            }
            1 | 2 => {
                let kind = if op == 1 {
                    AccessKind::Read
                } else {
                    AccessKind::WritePartial
                };
                let r = h.access(core, kind, addr);
                write_back(&mut memory, r.writebacks);
                let mut data = match r.data {
                    Some(d) => d,
                    None => {
                        let d = memory.get(&addr.raw()).copied().unwrap_or([0; 64]);
                        write_back(&mut memory, h.fill(core, addr, d, op == 2));
                        d
                    }
                };
                assert_eq!(data, expected, "core {core} read stale data");
                if op == 2 {
                    data[usize::from(value) % 64] = value;
                    let w = h.access(core, AccessKind::WriteLineNoFetch(data), addr);
                    write_back(&mut memory, w.writebacks);
                    shadow.insert(addr.raw(), data);
                }
            }
            3 => {
                if let Some((d, true)) = h.invalidate_line(addr) {
                    memory.insert(addr.raw(), d);
                }
                let now = memory.get(&addr.raw()).copied().unwrap_or([0; 64]);
                assert_eq!(
                    now, expected,
                    "invalidated line {lineno} lost its newest value"
                );
            }
            _ => {
                write_back(&mut memory, h.flush_all());
                for (a, d) in &shadow {
                    assert_eq!(memory.get(a), Some(d), "flush lost line {}", a / 64);
                }
            }
        }
    }
}

/// Kernel frame accounting under `(op, slot, arg)` sequences (0 =
/// create process, 1 = alloc `arg + 1` pages, 2 = touch a page of the
/// newest heap, 3 = free the newest heap, other = exit). Panics if a
/// frame is ever lost, double-allocated, or double-mapped.
pub fn run_kernel_frame_conservation(ops: &[(u8, usize, u64)]) {
    use silent_shredder::common::PAGE_SIZE;
    use silent_shredder::os::machine::MockMachine;
    use silent_shredder::os::page_table::Translation;

    let total_frames = 64u64;
    let mut kernel = Kernel::new(
        ZeroStrategy::NonTemporal,
        (0..total_frames)
            .map(silent_shredder::common::PageId::new)
            .collect(),
    );
    let mut machine = MockMachine::new(total_frames);
    let mut procs: Vec<Option<silent_shredder::os::ProcId>> = vec![None; 4];
    let mut heaps: Vec<Vec<(silent_shredder::common::VirtAddr, u64)>> = vec![Vec::new(); 4];

    for &(op, slot, arg) in ops {
        match op {
            0 => {
                if procs[slot].is_none() {
                    procs[slot] = Some(kernel.create_process());
                }
            }
            1 => {
                if let Some(pid) = procs[slot] {
                    if let Ok(va) = kernel.sys_alloc(pid, (arg + 1) * PAGE_SIZE as u64) {
                        heaps[slot].push((va, arg + 1));
                    }
                }
            }
            2 => {
                if let Some(pid) = procs[slot] {
                    if let Some(&(va, pages)) = heaps[slot].last() {
                        let target = va.add((arg % pages) * PAGE_SIZE as u64);
                        // A store fault may legitimately run out of
                        // memory; anything else must map the page.
                        match kernel.handle_fault(&mut machine, 0, pid, target, true, Cycles::ZERO)
                        {
                            Ok(_)
                            | Err(silent_shredder::common::Error::OutOfMemory)
                            | Err(silent_shredder::common::Error::UnmappedVirtual { .. }) => {}
                            Err(e) => panic!("unexpected fault error: {e}"),
                        }
                    }
                }
            }
            3 => {
                if let Some(pid) = procs[slot] {
                    if let Some((va, pages)) = heaps[slot].pop() {
                        kernel
                            .sys_free(pid, va, pages * PAGE_SIZE as u64)
                            .expect("free failed");
                    }
                }
            }
            _ => {
                if let Some(pid) = procs[slot].take() {
                    heaps[slot].clear();
                    kernel.exit_process(pid).expect("exit");
                }
            }
        }

        // Invariants after every step.
        let mut mapped = BTreeSet::new();
        let mut mapped_count = 0u64;
        for (i, pid) in procs.iter().enumerate() {
            let Some(pid) = *pid else { continue };
            for &(heap, pages) in &heaps[i] {
                for k in 0..pages {
                    let va = heap.add(k * PAGE_SIZE as u64);
                    if let Ok(Translation::Ok(pa)) = kernel.translate(pid, va, true) {
                        mapped_count += 1;
                        assert!(mapped.insert(pa.page()), "frame {} mapped twice", pa.page());
                    }
                }
            }
        }
        // Conservation: free + privately mapped + zero page <= total.
        let accounted = kernel.free_frames() as u64 + mapped_count + 1;
        assert!(
            accounted <= total_frames,
            "frames over-accounted: {accounted} > {total_frames}"
        );
    }
}
