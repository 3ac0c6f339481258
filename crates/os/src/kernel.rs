//! The simulated kernel: page faults, shredding, and the syscall surface.
//!
//! This reproduces the Linux discipline the paper describes (§2.3, §5):
//! `malloc` only reserves virtual pages; the first load maps the shared
//! zero page (minor fault); the first write takes a major fault in which
//! the kernel allocates a physical frame, *shreds it* with the configured
//! [`ZeroStrategy`] (the modified `clear_page` of §5), and maps it.

use std::collections::BTreeMap;

use ss_common::{Counter, Cycles, Error, PageId, PhysAddr, Result, VirtAddr, PAGE_SIZE};

use crate::frame_alloc::FrameAllocator;
use crate::machine::MachineOps;
use crate::page_table::{PageTable, Translation};
use crate::pmem::{PmemDirectory, PmemEntry};
use crate::zeroing::{shred_page, ZeroStrategy};

/// A process handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcId(pub u64);

impl std::fmt::Display for ProcId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "pid:{}", self.0)
    }
}

/// Kernel entry/exit and bookkeeping cost of a minor fault (the old
/// configurable default).
const MINOR_FAULT_OVERHEAD: Cycles = Cycles::new(300);

/// Kernel entry/exit and allocation cost of a major fault, *excluding*
/// the zeroing itself, which Fig. 4 measures separately (the old
/// configurable default).
const MAJOR_FAULT_OVERHEAD: Cycles = Cycles::new(800);

/// Kernel-level statistics (drives the motivation figures).
#[derive(Debug, Clone, Default)]
pub struct KernelStats {
    /// Zero-page mappings installed.
    pub minor_faults: Counter,
    /// Frame allocations with shredding.
    pub major_faults: Counter,
    /// Pages shredded (by any strategy).
    pub pages_shredded: Counter,
    /// Cycles spent inside `clear_page` (kernel zeroing time, Fig. 4).
    pub zeroing_cycles: Cycles,
    /// Total cycles spent in fault handling (including zeroing).
    pub fault_cycles: Cycles,
    /// Frames handed to processes.
    pub frames_allocated: Counter,
    /// Frames returned.
    pub frames_freed: Counter,
}

#[derive(Debug, Clone)]
struct Process {
    table: PageTable,
    /// Next never-reserved virtual page number (bump allocation).
    next_vpn: u64,
}

/// The kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    zero_strategy: ZeroStrategy,
    allocator: FrameAllocator,
    zero_page: PageId,
    procs: BTreeMap<u64, Process>,
    next_proc: u64,
    stats: KernelStats,
    pmem: Option<PmemDirectory>,
}

impl Kernel {
    /// Boots a kernel managing `frames` whose `clear_page` is
    /// `zero_strategy`. The first frame becomes the shared zero page.
    ///
    /// # Panics
    ///
    /// Panics if no frame is available for the zero page.
    pub fn new(zero_strategy: ZeroStrategy, frames: Vec<PageId>) -> Self {
        let mut allocator = FrameAllocator::new(frames);
        let zero_page = allocator
            .alloc()
            .expect("kernel needs at least one frame for the zero page")
            .page;
        Kernel {
            zero_strategy,
            allocator,
            zero_page,
            procs: BTreeMap::new(),
            next_proc: 1,
            stats: KernelStats::default(),
            pmem: None,
        }
    }

    /// Enables persistent-memory support: reserves the directory page
    /// (deterministically, the next free frame — reboot with the same
    /// frame list and configuration lands on the same page).
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] when no frame is free.
    pub fn enable_pmem(&mut self) -> Result<PageId> {
        let dir = self.allocator.alloc()?.page;
        self.pmem = Some(PmemDirectory::new(dir));
        Ok(dir)
    }

    /// Post-reboot recovery: reserves the directory page (same position
    /// as [`Kernel::enable_pmem`] produced on the previous boot), reloads
    /// the directory from NVM, and withdraws every persistent region's
    /// frames from the free pool. Returns the number of regions found.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] when no frame is free.
    pub fn recover_pmem<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        now: Cycles,
    ) -> Result<usize> {
        let dir_page = self.allocator.alloc()?.page;
        let dir = PmemDirectory::recover(machine, core, dir_page, now);
        let mut reserved = Vec::new();
        for entry in dir.entries() {
            reserved.extend(entry.frames());
        }
        self.allocator.remove_specific(reserved);
        let count = dir.entries().len();
        self.pmem = Some(dir);
        Ok(count)
    }

    /// The persistent directory, if enabled.
    pub fn pmem(&self) -> Option<&PmemDirectory> {
        self.pmem.as_ref()
    }

    fn pmem_mut(&mut self) -> Result<&mut PmemDirectory> {
        self.pmem.as_mut().ok_or(Error::InvalidConfig {
            detail: "persistent memory not enabled".into(),
        })
    }

    /// Creates a named persistent region (§2.1): a contiguous extent,
    /// shredded, registered crash-safely in the directory, and mapped
    /// eagerly into `pid`. Returns its base virtual address.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] without a contiguous run;
    /// [`Error::InvalidConfig`] for duplicate names or pmem disabled.
    pub fn sys_palloc<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        pid: ProcId,
        name: u64,
        bytes: u64,
        now: Cycles,
    ) -> Result<VirtAddr> {
        self.pmem_mut()?; // fail fast before allocating
        let pages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let first = self.allocator.alloc_contiguous(pages)?;
        // A fresh persistent region reads as zeros: shred every frame.
        let strategy = self.zero_strategy;
        let mut elapsed = Cycles::ZERO;
        for k in 0..pages {
            elapsed += shred_page(
                machine,
                strategy,
                core,
                PageId::new(first.raw() + k),
                now + elapsed,
            )?;
            self.stats.pages_shredded.inc();
        }
        self.stats.zeroing_cycles += elapsed;
        let entry = PmemEntry {
            name,
            first_frame: first,
            pages,
        };
        self.pmem_mut()?
            .register(machine, core, entry, now + elapsed)?;
        self.map_pmem_entry(pid, entry)
    }

    /// Maps an existing persistent region into `pid` (after a reboot or
    /// from another process — the 64-bit name is the capability).
    /// The data is *not* shredded: surviving reboots is the point.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for unknown names or pmem disabled.
    pub fn sys_pattach(&mut self, pid: ProcId, name: u64) -> Result<VirtAddr> {
        let entry = self
            .pmem
            .as_ref()
            .ok_or(Error::InvalidConfig {
                detail: "persistent memory not enabled".into(),
            })?
            .find(name)
            .ok_or(Error::InvalidConfig {
                detail: format!("no persistent region named {name:#x}"),
            })?;
        self.map_pmem_entry(pid, entry)
    }

    /// Destroys a persistent region: shreds its frames (the data must
    /// not outlive the region) and returns them to the pool.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for unknown names or pmem disabled.
    pub fn sys_pfree<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        name: u64,
        now: Cycles,
    ) -> Result<Cycles> {
        let (entry, mut elapsed) = self.pmem_mut()?.unregister(machine, core, name, now)?;
        let strategy = self.zero_strategy;
        for frame in entry.frames() {
            elapsed += shred_page(machine, strategy, core, frame, now + elapsed)?;
            self.stats.pages_shredded.inc();
            self.allocator.free(frame, strategy.is_secure());
            self.stats.frames_freed.inc();
        }
        self.stats.zeroing_cycles += elapsed;
        Ok(elapsed)
    }

    fn map_pmem_entry(&mut self, pid: ProcId, entry: PmemEntry) -> Result<VirtAddr> {
        let p = self.proc_mut(pid)?;
        let vpn = p.next_vpn;
        p.next_vpn += entry.pages + 1;
        p.table.reserve(vpn, entry.pages);
        for k in 0..entry.pages {
            p.table
                .map_persistent(vpn + k, PageId::new(entry.first_frame.raw() + k));
        }
        Ok(VirtAddr::new(vpn * PAGE_SIZE as u64))
    }

    /// Kernel statistics.
    pub fn stats(&self) -> &KernelStats {
        &self.stats
    }

    /// Resets statistics (state kept) between experiment phases.
    pub fn reset_stats(&mut self) {
        self.stats = KernelStats::default();
    }

    /// Free physical frames remaining.
    pub fn free_frames(&self) -> usize {
        self.allocator.free_count()
    }

    /// The shared zero-page frame.
    pub fn zero_page(&self) -> PageId {
        self.zero_page
    }

    /// Creates a process with an empty address space.
    pub fn create_process(&mut self) -> ProcId {
        let id = self.next_proc;
        self.next_proc += 1;
        self.procs.insert(
            id,
            Process {
                table: PageTable::new(self.zero_page),
                next_vpn: 0x10, // skip a small null-guard region
            },
        );
        ProcId(id)
    }

    fn proc_mut(&mut self, pid: ProcId) -> Result<&mut Process> {
        self.procs
            .get_mut(&pid.0)
            .ok_or(Error::NoSuchProcess { id: pid.0 })
    }

    fn proc_ref(&self, pid: ProcId) -> Result<&Process> {
        self.procs
            .get(&pid.0)
            .ok_or(Error::NoSuchProcess { id: pid.0 })
    }

    /// Reserves `bytes` of fresh virtual address space (the kernel half
    /// of `malloc`). No physical memory is touched.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn sys_alloc(&mut self, pid: ProcId, bytes: u64) -> Result<VirtAddr> {
        let pages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let p = self.proc_mut(pid)?;
        let vpn = p.next_vpn;
        // One-page guard gap between allocations.
        p.next_vpn += pages + 1;
        p.table.reserve(vpn, pages);
        Ok(VirtAddr::new(vpn * PAGE_SIZE as u64))
    }

    /// Releases a previously allocated range, returning its frames to the
    /// allocator dirty: the next fault that takes one shreds it.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn sys_free(&mut self, pid: ProcId, va: VirtAddr, bytes: u64) -> Result<()> {
        let pages = bytes.div_ceil(PAGE_SIZE as u64).max(1);
        let p = self.proc_mut(pid)?;
        let frames = p.table.unreserve(va.vpn(), pages);
        self.free_dirty(frames);
        Ok(())
    }

    /// Tears down a process, returning all of its private frames to the
    /// allocator dirty.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn exit_process(&mut self, pid: ProcId) -> Result<()> {
        let p = self
            .procs
            .remove(&pid.0)
            .ok_or(Error::NoSuchProcess { id: pid.0 })?;
        self.free_dirty(p.table.private_frames());
        Ok(())
    }

    fn free_dirty(&mut self, frames: Vec<PageId>) {
        for frame in frames {
            self.allocator.free(frame, false);
            self.stats.frames_freed.inc();
        }
    }

    /// Translates an access without handling faults.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn translate(&self, pid: ProcId, va: VirtAddr, is_write: bool) -> Result<Translation> {
        Ok(self.proc_ref(pid)?.table.translate(va, is_write))
    }

    /// Handles a page fault at `va` and returns the final physical
    /// address plus the cycles spent in the kernel (fault overhead +
    /// shredding). This is where `clear_page` runs (§5).
    ///
    /// # Errors
    ///
    /// [`Error::UnmappedVirtual`] for accesses outside any allocation,
    /// [`Error::OutOfMemory`] when no frame is free, plus shred-path
    /// errors.
    pub fn handle_fault<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        pid: ProcId,
        va: VirtAddr,
        is_write: bool,
        now: Cycles,
    ) -> Result<(PhysAddr, Cycles)> {
        let translation = self.translate(pid, va, is_write)?;
        match translation {
            Translation::Ok(pa) => Ok((pa, Cycles::ZERO)),
            Translation::Invalid => Err(Error::UnmappedVirtual { addr: va }),
            Translation::LoadFault => {
                let p = self.proc_mut(pid)?;
                p.table.map_zero(va.vpn());
                self.stats.minor_faults.inc();
                self.stats.fault_cycles += MINOR_FAULT_OVERHEAD;
                let pa = self.zero_page.base_addr().add(va.page_offset() as u64);
                Ok((pa, MINOR_FAULT_OVERHEAD))
            }
            Translation::StoreFault => {
                let mut elapsed = MAJOR_FAULT_OVERHEAD;
                let taken = self.allocator.alloc()?;
                self.stats.frames_allocated.inc();
                // Shred unless the frame is known clean (first-ever use
                // of fresh NVM, or shredded by a hypervisor grant).
                if taken.needs_shred {
                    let zero_lat =
                        shred_page(machine, self.zero_strategy, core, taken.page, now + elapsed)?;
                    elapsed += zero_lat;
                    self.stats.pages_shredded.inc();
                    self.stats.zeroing_cycles += zero_lat;
                }
                let p = self.proc_mut(pid)?;
                p.table.map_frame(va.vpn(), taken.page);
                self.stats.major_faults.inc();
                self.stats.fault_cycles += elapsed;
                Ok((taken.page.base_addr().add(va.page_offset() as u64), elapsed))
            }
        }
    }

    /// §7.2 user-level bulk initialisation: the process asks the kernel
    /// to zero `pages` pages starting at `va`. Mapped frames are shredded
    /// in place; untouched reservations already read as zero.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle; shred-path errors.
    pub fn sys_shred_range<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        pid: ProcId,
        va: VirtAddr,
        pages: u64,
        now: Cycles,
    ) -> Result<Cycles> {
        let strategy = self.zero_strategy;
        let mut frames = Vec::new();
        {
            let p = self.proc_ref(pid)?;
            for vpn in va.vpn()..va.vpn() + pages {
                if let Some(crate::page_table::Mapping::Frame(page)) = p.table.mapping(vpn) {
                    frames.push(page);
                }
            }
        }
        let mut elapsed = Cycles::ZERO;
        for frame in frames {
            let lat = shred_page(machine, strategy, core, frame, now + elapsed)?;
            elapsed += lat;
            self.stats.pages_shredded.inc();
            self.stats.zeroing_cycles += lat;
        }
        Ok(elapsed)
    }

    /// Takes up to `n` free frames away from this kernel (hypervisor
    /// ballooning). Frames in use by processes are never reclaimed.
    pub fn reclaim_frames(&mut self, n: usize) -> Vec<PageId> {
        self.allocator.reclaim(n)
    }

    /// Marks all free frames dirty, simulating a machine that has been
    /// running long enough for every frame to have hosted data. With this
    /// set, every allocation shreds — the steady state of a loaded server
    /// (§6.1's "highly loaded system" discussion).
    pub fn age_free_frames(&mut self) {
        self.allocator.dirty_all();
    }

    /// Grants additional frames (hypervisor balloon-in). `clean` marks
    /// frames already shredded by the granter.
    pub fn grant_frames(&mut self, frames: impl IntoIterator<Item = PageId>, clean: bool) {
        self.allocator.grant(frames, clean);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MockMachine;

    fn kernel(strategy: ZeroStrategy) -> (Kernel, MockMachine) {
        let frames: Vec<PageId> = (1..32).map(PageId::new).collect();
        (Kernel::new(strategy, frames), MockMachine::new(32))
    }

    #[test]
    fn malloc_touch_fault_cycle() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        let pid = k.create_process();
        let va = k.sys_alloc(pid, 2 * PAGE_SIZE as u64).unwrap();
        // Load first: zero page minor fault.
        assert_eq!(k.translate(pid, va, false).unwrap(), Translation::LoadFault);
        let (pa, _) = k
            .handle_fault(&mut m, 0, pid, va, false, Cycles::ZERO)
            .unwrap();
        assert_eq!(pa.page(), k.zero_page());
        assert_eq!(k.stats().minor_faults.get(), 1);
        // Store: major fault with allocation.
        let (pa2, _) = k
            .handle_fault(&mut m, 0, pid, va, true, Cycles::ZERO)
            .unwrap();
        assert_ne!(pa2.page(), k.zero_page());
        assert_eq!(k.stats().major_faults.get(), 1);
        // Now mapped for both.
        assert!(matches!(
            k.translate(pid, va, true).unwrap(),
            Translation::Ok(_)
        ));
    }

    #[test]
    fn fresh_frames_skip_shredding_but_reuse_shreds() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        let pid = k.create_process();
        let va = k.sys_alloc(pid, PAGE_SIZE as u64).unwrap();
        k.handle_fault(&mut m, 0, pid, va, true, Cycles::ZERO)
            .unwrap();
        assert_eq!(k.stats().pages_shredded.get(), 0, "fresh NVM frame");
        // Free and reallocate: now the frame is dirty.
        k.sys_free(pid, va, PAGE_SIZE as u64).unwrap();
        let va2 = k.sys_alloc(pid, PAGE_SIZE as u64).unwrap();
        k.handle_fault(&mut m, 0, pid, va2, true, Cycles::ZERO)
            .unwrap();
        assert_eq!(k.stats().pages_shredded.get(), 1);
    }

    #[test]
    fn inter_process_isolation_with_shredding() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        let a = k.create_process();
        let va = k.sys_alloc(a, PAGE_SIZE as u64).unwrap();
        let (pa, _) = k
            .handle_fault(&mut m, 0, a, va, true, Cycles::ZERO)
            .unwrap();
        // Process A writes a secret.
        m.write_line_temporal(0, pa.block(), &[0x5E; 64], false, Cycles::ZERO);
        k.exit_process(a).unwrap();
        // Process B reuses the frame.
        let b = k.create_process();
        let vb = k.sys_alloc(b, PAGE_SIZE as u64).unwrap();
        let (pb, _) = k
            .handle_fault(&mut m, 0, b, vb, true, Cycles::ZERO)
            .unwrap();
        assert_eq!(pb.page(), pa.page(), "frame not reused — test is vacuous");
        assert_eq!(m.peek(pb.block()), [0; 64], "secret leaked to process B");
    }

    #[test]
    fn no_zeroing_leaks_between_processes() {
        let (mut k, mut m) = kernel(ZeroStrategy::None);
        let a = k.create_process();
        let va = k.sys_alloc(a, PAGE_SIZE as u64).unwrap();
        let (pa, _) = k
            .handle_fault(&mut m, 0, a, va, true, Cycles::ZERO)
            .unwrap();
        m.write_line_temporal(0, pa.block(), &[0x5E; 64], false, Cycles::ZERO);
        k.exit_process(a).unwrap();
        let b = k.create_process();
        let vb = k.sys_alloc(b, PAGE_SIZE as u64).unwrap();
        let (pb, _) = k
            .handle_fault(&mut m, 0, b, vb, true, Cycles::ZERO)
            .unwrap();
        assert_eq!(
            m.peek(pb.block()),
            [0x5E; 64],
            "leak expected without shredding"
        );
    }

    #[test]
    fn unreserved_access_is_segv() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        let pid = k.create_process();
        let err = k
            .handle_fault(
                &mut m,
                0,
                pid,
                VirtAddr::new(0xDEAD_0000),
                true,
                Cycles::ZERO,
            )
            .unwrap_err();
        assert!(matches!(err, Error::UnmappedVirtual { .. }));
    }

    #[test]
    fn out_of_memory_surfaces() {
        let frames: Vec<PageId> = (1..3).map(PageId::new).collect(); // 1 zero page + 1
        let mut k = Kernel::new(ZeroStrategy::NonTemporal, frames);
        let mut m = MockMachine::new(4);
        let pid = k.create_process();
        let va = k.sys_alloc(pid, 2 * PAGE_SIZE as u64).unwrap();
        k.handle_fault(&mut m, 0, pid, va, true, Cycles::ZERO)
            .unwrap();
        let err = k
            .handle_fault(&mut m, 0, pid, va.add(PAGE_SIZE as u64), true, Cycles::ZERO)
            .unwrap_err();
        assert_eq!(err, Error::OutOfMemory);
    }

    #[test]
    fn shred_range_shreds_mapped_frames_only() {
        let (mut k, mut m) = kernel(ZeroStrategy::ShredCommand);
        let pid = k.create_process();
        let va = k.sys_alloc(pid, 4 * PAGE_SIZE as u64).unwrap();
        // Touch two of four pages.
        k.handle_fault(&mut m, 0, pid, va, true, Cycles::ZERO)
            .unwrap();
        k.handle_fault(&mut m, 0, pid, va.add(PAGE_SIZE as u64), true, Cycles::ZERO)
            .unwrap();
        let before = k.stats().pages_shredded.get();
        k.sys_shred_range(&mut m, 0, pid, va, 4, Cycles::ZERO)
            .unwrap();
        assert_eq!(k.stats().pages_shredded.get(), before + 2);
    }

    #[test]
    fn ballooning_interface() {
        let (mut k, _m) = kernel(ZeroStrategy::NonTemporal);
        let before = k.free_frames();
        let taken = k.reclaim_frames(5);
        assert_eq!(taken.len(), 5);
        assert_eq!(k.free_frames(), before - 5);
        k.grant_frames(taken, true);
        assert_eq!(k.free_frames(), before);
    }

    #[test]
    fn pmem_lifecycle() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        k.enable_pmem().unwrap();
        let pid = k.create_process();
        let va = k
            .sys_palloc(&mut m, 0, pid, 0xCAFE, 3 * PAGE_SIZE as u64, Cycles::ZERO)
            .unwrap();
        // Eagerly mapped and readable.
        assert!(matches!(
            k.translate(pid, va, true).unwrap(),
            Translation::Ok(_)
        ));
        // Region frames survive process exit.
        let entry = k.pmem().unwrap().find(0xCAFE).unwrap();
        k.exit_process(pid).unwrap();
        let free_after_exit = k.free_frames();
        // Another process attaches to the same region.
        let pid2 = k.create_process();
        let va2 = k.sys_pattach(pid2, 0xCAFE).unwrap();
        match k.translate(pid2, va2, false).unwrap() {
            Translation::Ok(pa) => assert_eq!(pa.page(), entry.first_frame),
            other => panic!("unexpected: {other:?}"),
        }
        // Destroying the region shreds and frees its frames.
        k.sys_pfree(&mut m, 0, 0xCAFE, Cycles::ZERO).unwrap();
        assert_eq!(k.free_frames(), free_after_exit + 3);
        assert!(k.sys_pattach(pid2, 0xCAFE).is_err());
    }

    #[test]
    fn pmem_survives_reboot() {
        let frames: Vec<PageId> = (1..32).map(PageId::new).collect();
        let mut machine = MockMachine::new(32);
        let first_frame;
        {
            let mut k = Kernel::new(ZeroStrategy::NonTemporal, frames.clone());
            k.enable_pmem().unwrap();
            let pid = k.create_process();
            k.sys_palloc(&mut machine, 0, pid, 77, 2 * PAGE_SIZE as u64, Cycles::ZERO)
                .unwrap();
            first_frame = k.pmem().unwrap().find(77).unwrap().first_frame;
            // Write application data into the region.
            machine.write_line_temporal(
                0,
                first_frame.block_addr(0),
                &[0xAB; 64],
                false,
                Cycles::ZERO,
            );
        } // "power loss": the kernel's in-memory state is gone.
        let mut k2 = Kernel::new(ZeroStrategy::NonTemporal, frames);
        assert_eq!(k2.recover_pmem(&mut machine, 0, Cycles::ZERO).unwrap(), 1);
        let pid = k2.create_process();
        let va = k2.sys_pattach(pid, 77).unwrap();
        match k2.translate(pid, va, false).unwrap() {
            Translation::Ok(pa) => {
                assert_eq!(pa.page(), first_frame);
                assert_eq!(machine.peek(pa.block()), [0xAB; 64], "data lost");
            }
            other => panic!("unexpected: {other:?}"),
        }
        // The recovered region's frames are not handed out again.
        let pid3 = k2.create_process();
        for _ in 0..20 {
            if let Ok(va) = k2.sys_alloc(pid3, PAGE_SIZE as u64) {
                if let Ok((pa, _)) = k2.handle_fault(&mut machine, 0, pid3, va, true, Cycles::ZERO)
                {
                    assert_ne!(pa.page(), first_frame, "persistent frame reallocated");
                }
            }
        }
    }

    #[test]
    fn pmem_requires_enablement_and_unique_names() {
        let (mut k, mut m) = kernel(ZeroStrategy::NonTemporal);
        let pid = k.create_process();
        assert!(k
            .sys_palloc(&mut m, 0, pid, 1, PAGE_SIZE as u64, Cycles::ZERO)
            .is_err());
        k.enable_pmem().unwrap();
        k.sys_palloc(&mut m, 0, pid, 1, PAGE_SIZE as u64, Cycles::ZERO)
            .unwrap();
        assert!(k
            .sys_palloc(&mut m, 0, pid, 1, PAGE_SIZE as u64, Cycles::ZERO)
            .is_err());
    }

    #[test]
    fn bad_pid_rejected() {
        let (mut k, _m) = kernel(ZeroStrategy::NonTemporal);
        let bogus = ProcId(99);
        assert!(k.sys_alloc(bogus, 1).is_err());
        assert!(k.translate(bogus, VirtAddr::new(0), false).is_err());
        assert!(k.exit_process(bogus).is_err());
    }
}
