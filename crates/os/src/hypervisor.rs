//! Hypervisor-level memory management: VM granting, double shredding and
//! ballooning.
//!
//! Figure 1 of the paper: a VM requests host pages (step 1), the
//! hypervisor zeroes them to prevent inter-VM leaks (step 2); later the
//! guest kernel zeroes the *same* pages again before mapping them into
//! guest processes (steps 3–4). With Silent Shredder both layers issue
//! the same free shred command.

use std::collections::BTreeMap;

use ss_common::{Counter, Cycles, Error, PageId, Result};

use crate::frame_alloc::FrameAllocator;
use crate::kernel::Kernel;
use crate::machine::MachineOps;
use crate::zeroing::{shred_page, ZeroStrategy};

/// A virtual-machine handle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VmId(pub u64);

impl std::fmt::Display for VmId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "vm:{}", self.0)
    }
}

/// Hypervisor statistics.
#[derive(Debug, Clone, Default)]
pub struct HypervisorStats {
    /// Pages granted to VMs.
    pub pages_granted: Counter,
    /// Pages reclaimed by ballooning.
    pub pages_reclaimed: Counter,
    /// Host-level shreds performed (the *first* shred of Fig. 1).
    pub pages_shredded: Counter,
    /// Cycles spent in host-level shredding.
    pub zeroing_cycles: Cycles,
}

/// The hypervisor: a host frame pool plus one guest [`Kernel`] per VM.
#[derive(Debug)]
pub struct Hypervisor {
    host: FrameAllocator,
    strategy: ZeroStrategy,
    guest_strategy: ZeroStrategy,
    vms: BTreeMap<u64, Kernel>,
    next_vm: u64,
    stats: HypervisorStats,
}

impl Hypervisor {
    /// Creates a hypervisor over `frames` with `strategy` for host-level
    /// shredding and `guest_strategy` for the kernels it boots.
    pub fn new(frames: Vec<PageId>, strategy: ZeroStrategy, guest_strategy: ZeroStrategy) -> Self {
        Hypervisor {
            host: FrameAllocator::new(frames),
            strategy,
            guest_strategy,
            vms: BTreeMap::new(),
            next_vm: 1,
            stats: HypervisorStats::default(),
        }
    }

    /// Hypervisor statistics.
    pub fn stats(&self) -> &HypervisorStats {
        &self.stats
    }

    /// Free host frames.
    pub fn free_host_frames(&self) -> usize {
        self.host.free_count()
    }

    fn shred_grant<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        n: usize,
        now: Cycles,
    ) -> Result<(Vec<PageId>, Cycles)> {
        let mut granted = Vec::with_capacity(n);
        let mut elapsed = Cycles::ZERO;
        for _ in 0..n {
            let taken = self.host.alloc()?;
            // Host-level shred: prevents inter-VM leaks (Fig. 1 step 2).
            if taken.needs_shred {
                let lat = shred_page(machine, self.strategy, core, taken.page, now + elapsed)?;
                elapsed += lat;
                self.stats.pages_shredded.inc();
                self.stats.zeroing_cycles += lat;
            }
            granted.push(taken.page);
        }
        self.stats.pages_granted.add(granted.len() as u64);
        Ok((granted, elapsed))
    }

    /// Boots a VM with `frames` host pages (each shredded at the host
    /// level first). Returns the handle and the cycles spent.
    ///
    /// # Errors
    ///
    /// [`Error::OutOfMemory`] when the host pool is exhausted; shred-path
    /// errors.
    pub fn create_vm<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        frames: usize,
        now: Cycles,
    ) -> Result<(VmId, Cycles)> {
        let (granted, elapsed) = self.shred_grant(machine, core, frames, now)?;
        let id = self.next_vm;
        self.next_vm += 1;
        // Frames arrive shredded, but the guest does not trust the host's
        // shred for its own inter-process isolation: its own allocator
        // tracks cleanliness independently (hence `Kernel::new` treating
        // granted frames as fresh/clean only on first use).
        self.vms
            .insert(id, Kernel::new(self.guest_strategy, granted));
        Ok((VmId(id), elapsed))
    }

    /// Mutable access to a VM's guest kernel.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn vm_kernel_mut(&mut self, vm: VmId) -> Result<&mut Kernel> {
        self.vms
            .get_mut(&vm.0)
            .ok_or(Error::NoSuchProcess { id: vm.0 })
    }

    /// Shared access to a VM's guest kernel.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn vm_kernel(&self, vm: VmId) -> Result<&Kernel> {
        self.vms.get(&vm.0).ok_or(Error::NoSuchProcess { id: vm.0 })
    }

    /// Balloons `n` free frames out of `vm` back to the host, shredding
    /// them at the host level (the guest must not see them again, and the
    /// next VM must not see the guest's data). Returns the number of
    /// frames actually reclaimed and the cycles spent.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle; shred-path errors.
    pub fn balloon_reclaim<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        vm: VmId,
        n: usize,
        now: Cycles,
    ) -> Result<(usize, Cycles)> {
        let kernel = self
            .vms
            .get_mut(&vm.0)
            .ok_or(Error::NoSuchProcess { id: vm.0 })?;
        let frames = kernel.reclaim_frames(n);
        let count = frames.len();
        let mut elapsed = Cycles::ZERO;
        for frame in frames {
            let lat = shred_page(machine, self.strategy, core, frame, now + elapsed)?;
            elapsed += lat;
            self.stats.pages_shredded.inc();
            self.stats.zeroing_cycles += lat;
            self.host.free(frame, self.strategy.is_secure());
        }
        self.stats.pages_reclaimed.add(count as u64);
        Ok((count, elapsed))
    }

    /// Grants `n` additional host frames to a running VM (balloon-in).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`], [`Error::OutOfMemory`], shred errors.
    pub fn balloon_grant<M: MachineOps + ?Sized>(
        &mut self,
        machine: &mut M,
        core: usize,
        vm: VmId,
        n: usize,
        now: Cycles,
    ) -> Result<Cycles> {
        if !self.vms.contains_key(&vm.0) {
            return Err(Error::NoSuchProcess { id: vm.0 });
        }
        let (granted, elapsed) = self.shred_grant(machine, core, n, now)?;
        let kernel = self.vms.get_mut(&vm.0).expect("checked above");
        kernel.grant_frames(granted, true);
        Ok(elapsed)
    }

    /// Destroys a VM, returning all its frames to the host pool (dirty —
    /// they will be shredded on the next grant).
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn destroy_vm(&mut self, vm: VmId) -> Result<()> {
        let mut kernel = self
            .vms
            .remove(&vm.0)
            .ok_or(Error::NoSuchProcess { id: vm.0 })?;
        // Reclaim free frames; frames still mapped in guest processes are
        // dead too — tear the processes down implicitly by draining.
        let free = kernel.reclaim_frames(usize::MAX);
        for frame in free {
            self.host.free(frame, false);
        }
        self.host.free(kernel.zero_page(), false);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MockMachine;
    use ss_common::{VirtAddr, PAGE_SIZE};

    fn hyp(strategy: ZeroStrategy) -> (Hypervisor, MockMachine) {
        let frames: Vec<PageId> = (1..64).map(PageId::new).collect();
        (
            Hypervisor::new(frames, strategy, strategy),
            MockMachine::new(64),
        )
    }

    #[test]
    fn vm_lifecycle() {
        let (mut h, mut m) = hyp(ZeroStrategy::NonTemporal);
        let (vm, _) = h.create_vm(&mut m, 0, 16, Cycles::ZERO).unwrap();
        assert!(h.vm_kernel(vm).is_ok());
        assert_eq!(h.free_host_frames(), 63 - 16);
        h.destroy_vm(vm).unwrap();
        assert!(h.vm_kernel(vm).is_err());
        assert!(h.destroy_vm(vm).is_err());
        assert_eq!(h.free_host_frames(), 63);
    }

    #[test]
    fn double_shredding_on_reused_frames() {
        // Fig. 1: the same frame is shredded by the hypervisor on grant
        // AND by the guest kernel on process mapping.
        let (mut h, mut m) = hyp(ZeroStrategy::NonTemporal);
        // First VM dirties its frames.
        let (vm1, _) = h.create_vm(&mut m, 0, 8, Cycles::ZERO).unwrap();
        let k1 = h.vm_kernel_mut(vm1).unwrap();
        let p = k1.create_process();
        let va = k1.sys_alloc(p, PAGE_SIZE as u64).unwrap();
        k1.handle_fault(&mut m, 0, p, va, true, Cycles::ZERO)
            .unwrap();
        k1.exit_process(p).unwrap();
        h.destroy_vm(vm1).unwrap();
        let host_shreds_before = h.stats().pages_shredded.get();
        // Second VM gets the recycled frames: host-level shred happens.
        let (vm2, _) = h.create_vm(&mut m, 0, 8, Cycles::ZERO).unwrap();
        assert!(h.stats().pages_shredded.get() > host_shreds_before);
        // Guest-level shred happens again when the guest reuses a frame
        // internally.
        let k2 = h.vm_kernel_mut(vm2).unwrap();
        let p2 = k2.create_process();
        let va2 = k2.sys_alloc(p2, PAGE_SIZE as u64).unwrap();
        k2.handle_fault(&mut m, 0, p2, va2, true, Cycles::ZERO)
            .unwrap();
        k2.sys_free(p2, va2, PAGE_SIZE as u64).unwrap();
        let guest_shreds_before = k2.stats().pages_shredded.get();
        let va3 = k2.sys_alloc(p2, PAGE_SIZE as u64).unwrap();
        k2.handle_fault(&mut m, 0, p2, va3, true, Cycles::ZERO)
            .unwrap();
        assert_eq!(
            h.vm_kernel(vm2).unwrap().stats().pages_shredded.get(),
            guest_shreds_before + 1
        );
    }

    #[test]
    fn ballooning_round_trip() {
        let (mut h, mut m) = hyp(ZeroStrategy::ShredCommand);
        let (vm, _) = h.create_vm(&mut m, 0, 16, Cycles::ZERO).unwrap();
        let (got, _) = h.balloon_reclaim(&mut m, 0, vm, 4, Cycles::ZERO).unwrap();
        assert_eq!(got, 4);
        assert_eq!(h.stats().pages_reclaimed.get(), 4);
        h.balloon_grant(&mut m, 0, vm, 4, Cycles::ZERO).unwrap();
        // Guest got clean frames back.
        let k = h.vm_kernel(vm).unwrap();
        assert!(k.free_frames() >= 4);
    }

    #[test]
    fn exhausted_host_pool_errors() {
        let (mut h, mut m) = hyp(ZeroStrategy::NonTemporal);
        assert!(matches!(
            h.create_vm(&mut m, 0, 1000, Cycles::ZERO),
            Err(Error::OutOfMemory)
        ));
    }

    #[test]
    fn bad_vm_handle_rejected() {
        let (mut h, mut m) = hyp(ZeroStrategy::NonTemporal);
        let bogus = VmId(42);
        assert!(h.vm_kernel_mut(bogus).is_err());
        assert!(h
            .balloon_reclaim(&mut m, 0, bogus, 1, Cycles::ZERO)
            .is_err());
        assert!(h.balloon_grant(&mut m, 0, bogus, 1, Cycles::ZERO).is_err());
        assert!(h.destroy_vm(bogus).is_err());
        let _ = VirtAddr::new(0);
    }

    #[test]
    fn shred_command_hypervisor_writes_nothing() {
        let (mut h, mut m) = hyp(ZeroStrategy::ShredCommand);
        // Dirty then recycle frames through two VM generations.
        let (vm1, _) = h.create_vm(&mut m, 0, 8, Cycles::ZERO).unwrap();
        let k1 = h.vm_kernel_mut(vm1).unwrap();
        let p = k1.create_process();
        let va = k1.sys_alloc(p, 4 * PAGE_SIZE as u64).unwrap();
        for i in 0..4 {
            k1.handle_fault(
                &mut m,
                0,
                p,
                va.add(i * PAGE_SIZE as u64),
                true,
                Cycles::ZERO,
            )
            .unwrap();
        }
        h.destroy_vm(vm1).unwrap();
        m.zeroing_writes = 0;
        let (_vm2, _) = h.create_vm(&mut m, 0, 8, Cycles::ZERO).unwrap();
        assert_eq!(m.zeroing_writes, 0, "shred command still wrote zeros");
        assert!(h.stats().pages_shredded.get() > 0);
    }
}
