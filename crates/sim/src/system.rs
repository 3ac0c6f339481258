//! The complete simulated machine.

use ss_cache::Hierarchy;
use ss_common::{Cycles, Error, PageId, Result, VirtAddr};
use ss_core::MemoryController;
use ss_cpu::{run_multicore, DataPath, Op, RunSummary};
use ss_os::page_table::Translation;
use ss_os::{Kernel, ProcId, Tlb};

use crate::config::SystemConfig;
use crate::hardware::{strategy_supported, Hardware};

/// Added latency of a TLB miss: the page-table walk, which a few tens of
/// cycles cover when the page tables are cached (the old configurable
/// default).
const TLB_WALK_LATENCY: Cycles = Cycles::new(60);

/// A full system: hardware stack + kernel + per-core process contexts.
#[derive(Debug)]
pub struct System {
    hw: Hardware,
    kernel: Kernel,
    running: Vec<Option<ProcId>>,
    tlbs: Vec<Tlb>,
    config: SystemConfig,
}

impl System {
    /// Boots a system from `config`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] when the kernel's zeroing strategy needs
    /// hardware the controller doesn't provide, or any component config
    /// is invalid.
    pub fn new(config: SystemConfig) -> Result<Self> {
        if !strategy_supported(config.zero_strategy, &config.controller) {
            return Err(Error::InvalidConfig {
                detail: "kernel uses the shred command but the controller has no shredder".into(),
            });
        }
        let hierarchy = Hierarchy::new(&config.hierarchy)?;
        let controller = MemoryController::new(config.controller.clone())?;
        let frames: Vec<PageId> = (0..config.controller.frames()).map(PageId::new).collect();
        let kernel = Kernel::new(config.zero_strategy, frames);
        let cores = config.cores();
        let tlbs = (0..cores).map(|_| Tlb::new()).collect();
        Ok(System {
            hw: Hardware::new(hierarchy, controller),
            kernel,
            running: vec![None; cores],
            tlbs,
            config,
        })
    }

    /// The system configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.config
    }

    /// The kernel (read access for stats).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The hardware stack (read access for stats).
    pub fn hardware(&self) -> &Hardware {
        &self.hw
    }

    /// Mutable hardware access (attack-surface experiments).
    pub fn hardware_mut(&mut self) -> &mut Hardware {
        &mut self.hw
    }

    /// Creates a process and schedules it on `core`.
    ///
    /// # Errors
    ///
    /// [`Error::InvalidConfig`] for an out-of-range core.
    pub fn spawn_process(&mut self, core: usize) -> Result<ProcId> {
        if core >= self.running.len() {
            return Err(Error::InvalidConfig {
                detail: format!("core {core} out of range"),
            });
        }
        let pid = self.kernel.create_process();
        self.running[core] = Some(pid);
        Ok(pid)
    }

    /// Terminates the process on `core`; its frames return dirty.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] when `core` runs no process.
    pub fn exit_process_on(&mut self, core: usize) -> Result<()> {
        let pid = self.running[core]
            .take()
            .ok_or(Error::NoSuchProcess { id: core as u64 })?;
        for tlb in &mut self.tlbs {
            tlb.flush_asid(pid);
        }
        self.kernel.exit_process(pid)
    }

    /// `malloc` for `pid` (reserve only).
    ///
    /// # Errors
    ///
    /// Kernel errors.
    pub fn sys_alloc(&mut self, pid: ProcId, bytes: u64) -> Result<VirtAddr> {
        self.kernel.sys_alloc(pid, bytes)
    }

    /// `free` for `pid`.
    ///
    /// # Errors
    ///
    /// Kernel errors.
    pub fn sys_free(&mut self, pid: ProcId, va: VirtAddr, bytes: u64) -> Result<()> {
        let pages = bytes.div_ceil(ss_common::PAGE_SIZE as u64).max(1);
        for tlb in &mut self.tlbs {
            for vpn in va.vpn()..va.vpn() + pages {
                tlb.shootdown(pid, vpn);
            }
        }
        self.kernel.sys_free(pid, va, bytes)
    }

    /// Per-core TLB statistics.
    pub fn tlb_stats(&self, core: usize) -> &ss_os::TlbStats {
        self.tlbs[core].stats()
    }

    /// §7.2 bulk zero-initialisation syscall.
    ///
    /// # Errors
    ///
    /// Kernel errors.
    pub fn sys_shred_range(
        &mut self,
        core: usize,
        pid: ProcId,
        va: VirtAddr,
        pages: u64,
    ) -> Result<Cycles> {
        self.kernel
            .sys_shred_range(&mut self.hw, core, pid, va, pages, Cycles::ZERO)
    }

    /// Marks every free frame dirty, as if the machine had been running
    /// other workloads since boot. This is the steady-state the paper
    /// evaluates: page *reuse* is what makes shredding frequent.
    pub fn age_free_frames(&mut self) {
        self.kernel.age_free_frames();
    }

    /// Runs one instruction stream per core (index = core). Cores without
    /// a stream idle. Returns the run summary.
    pub fn run<I>(&mut self, streams: Vec<I>, instruction_limit: Option<u64>) -> RunSummary
    where
        I: Iterator<Item = Op>,
    {
        run_multicore(streams, self, instruction_limit)
    }

    /// Flushes every dirty line out of the caches into the controller,
    /// so end-of-phase write accounting includes data still in flight
    /// (the paper's perf-counter measurements see these writes too, as
    /// natural evictions).
    pub fn drain_caches(&mut self) {
        let dirty = self.hw.hierarchy.flush_all();
        for (addr, data) in dirty {
            self.hw
                .controller
                .write_block(addr, &data, false, Cycles::ZERO)
                .expect("drain writeback failed");
        }
    }

    /// Simulates a sudden power loss: all SRAM cache contents vanish
    /// (dirty lines are *not* written back) and the controller handles
    /// the loss per its counter-persistence mode. NVM contents remain —
    /// that is the remanence property.
    ///
    /// # Errors
    ///
    /// Propagates controller flush errors (battery-backed mode).
    pub fn crash(&mut self) -> Result<()> {
        // Discard, don't flush: a crash loses volatile state.
        let _ = self.hw.hierarchy.flush_all();
        self.hw.controller.power_loss()
    }

    /// Resets all statistics (caches, controller, kernel) without
    /// touching state — used to exclude warm-up from measurements.
    pub fn reset_stats(&mut self) {
        self.hw.hierarchy.reset_stats();
        self.hw.controller.reset_stats();
        self.kernel.reset_stats();
    }

    /// Schedules `pid` on `core` (time-shared execution).
    pub(crate) fn set_running(&mut self, core: usize, pid: ProcId) {
        self.running[core] = Some(pid);
    }

    /// Clears the core's process context (time-shared execution).
    pub(crate) fn clear_running(&mut self, core: usize) {
        self.running[core] = None;
    }

    /// Terminates an arbitrary process (time-shared jobs are not pinned
    /// to cores), returning its frames dirty.
    ///
    /// # Errors
    ///
    /// [`Error::NoSuchProcess`] for a bad handle.
    pub fn terminate_process(&mut self, pid: ProcId) -> Result<()> {
        for tlb in &mut self.tlbs {
            tlb.flush_asid(pid);
        }
        for slot in &mut self.running {
            if *slot == Some(pid) {
                *slot = None;
            }
        }
        self.kernel.exit_process(pid)
    }

    /// Creates a process without scheduling it anywhere (time-shared
    /// jobs are scheduled by the quantum loop, not pinned to cores).
    pub fn kernel_create_process(&mut self) -> ProcId {
        self.kernel.create_process()
    }

    fn current_pid(&self, core: usize) -> ProcId {
        self.running[core].expect("no process scheduled on this core")
    }

    /// Translates `va` on `core`, running the fault handler if needed.
    /// Returns the physical address and fault cycles spent.
    fn translate_or_fault(
        &mut self,
        core: usize,
        va: VirtAddr,
        is_write: bool,
        now: Cycles,
    ) -> (ss_common::PhysAddr, Cycles) {
        let pid = self.current_pid(core);
        // TLB first: a hit skips the page-table walk entirely (writes to
        // a TLB-resident page cannot be zero-page-mapped — store faults
        // shoot the stale translation down below).
        let tlb_hit = self.tlbs[core].lookup(pid, va.vpn());
        let walk = if tlb_hit {
            Cycles::ZERO
        } else {
            TLB_WALK_LATENCY
        };
        match self.kernel.translate(pid, va, is_write).expect("valid pid") {
            Translation::Ok(pa) => {
                if !tlb_hit {
                    self.tlbs[core].insert(pid, va.vpn());
                }
                (pa, walk)
            }
            _ => {
                // The mapping is changing: stale translations (e.g. the
                // zero-page mapping being upgraded) must be shot down on
                // every core before the new one is visible.
                for tlb in &mut self.tlbs {
                    tlb.shootdown(pid, va.vpn());
                }
                let (pa, fault_lat) = self
                    .kernel
                    .handle_fault(&mut self.hw, core, pid, va, is_write, now)
                    .unwrap_or_else(|e| panic!("unhandled fault at {va} on core {core}: {e}"));
                self.tlbs[core].insert(pid, va.vpn());
                (pa, walk + fault_lat)
            }
        }
    }

    fn do_load(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles {
        let (pa, fault_lat) = self.translate_or_fault(core, va, false, now);
        let (_data, lat) = self
            .hw
            .read_access(core, pa.block(), now + fault_lat)
            .expect("load failed");
        fault_lat + lat
    }

    fn do_store(&mut self, core: usize, va: VirtAddr, now: Cycles, kind: StoreKind) -> Cycles {
        let (pa, fault_lat) = self.translate_or_fault(core, va, true, now);
        let addr = pa.block();
        let lat = match kind {
            StoreKind::Partial => {
                let off = pa.offset_in_block();
                self.hw
                    .write_partial_access(core, addr, |line| line[off] ^= 0x5A, now + fault_lat)
                    .expect("store failed")
            }
            StoreKind::FullLine => {
                // Deterministic payload derived from the address.
                let val = (pa.raw() >> 6) as u8 ^ 0xC3;
                self.hw
                    .write_line_access(core, addr, &[val; 64], now + fault_lat)
                    .expect("store failed")
            }
            StoreKind::NonTemporal => {
                let val = (pa.raw() >> 6) as u8 ^ 0x3C;
                use ss_os::machine::MachineOps;
                self.hw
                    .write_line_nt(core, addr, &[val; 64], false, now + fault_lat)
            }
        };
        fault_lat + lat
    }
}

#[derive(Debug, Clone, Copy)]
enum StoreKind {
    Partial,
    FullLine,
    NonTemporal,
}

/// The path every core's memory operations take, in both the pinned
/// ([`System::run`]) and the time-shared ([`System::run_timeshared`])
/// loops: TLB, page-fault handler, caches, controller.
impl DataPath for System {
    fn load(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles {
        self.do_load(core, va, now)
    }
    fn store(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles {
        self.do_store(core, va, now, StoreKind::Partial)
    }
    fn store_line(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles {
        self.do_store(core, va, now, StoreKind::FullLine)
    }
    fn store_nt(&mut self, core: usize, va: VirtAddr, now: Cycles) -> Cycles {
        self.do_store(core, va, now, StoreKind::NonTemporal)
    }
    fn fence(&mut self, _core: usize, now: Cycles) -> Cycles {
        self.hw.controller.fence(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ss_cpu::Op;

    fn ops_touch_pages(base: VirtAddr, pages: u64) -> Vec<Op> {
        (0..pages)
            .map(|i| Op::StoreLine(base.add(i * 4096)))
            .collect()
    }

    #[test]
    fn boot_and_run_trivial() {
        let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
        let pid = sys.spawn_process(0).unwrap();
        let buf = sys.sys_alloc(pid, 4096).unwrap();
        let summary = sys.run(
            vec![vec![Op::StoreLine(buf), Op::Load(buf)].into_iter()],
            None,
        );
        assert_eq!(summary.total_instructions(), 2);
        assert_eq!(sys.kernel().stats().major_faults.get(), 1);
    }

    #[test]
    fn incompatible_strategy_rejected() {
        let cfg =
            SystemConfig::small_test(false).with_zero_strategy(ss_os::ZeroStrategy::ShredCommand);
        assert!(System::new(cfg).is_err());
    }

    #[test]
    fn shredder_eliminates_zeroing_writes() {
        // The headline mechanism end-to-end: same workload on baseline vs
        // Silent Shredder; zeroing writes drop to zero.
        let run = |shredder: bool| {
            let mut sys = System::new(SystemConfig::small_test(shredder)).unwrap();
            sys.age_free_frames();
            let pid = sys.spawn_process(0).unwrap();
            let buf = sys.sys_alloc(pid, 32 * 4096).unwrap();
            sys.run(vec![ops_touch_pages(buf, 32).into_iter()], None);
            let stats = &sys.hardware().controller.inspect().stats().mem;
            (
                stats.zeroing_writes.get(),
                sys.kernel().stats().pages_shredded.get(),
            )
        };
        let (baseline_zeroing, baseline_shredded) = run(false);
        let (shredder_zeroing, shredder_shredded) = run(true);
        assert_eq!(baseline_shredded, 32);
        assert_eq!(shredder_shredded, 32);
        assert_eq!(baseline_zeroing, 32 * 64, "NT zeroing writes all lines");
        assert_eq!(shredder_zeroing, 0, "silent shredder writes nothing");
    }

    #[test]
    fn loads_of_fresh_pages_zero_fill() {
        let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
        sys.age_free_frames();
        let pid = sys.spawn_process(0).unwrap();
        let buf = sys.sys_alloc(pid, 8 * 4096).unwrap();
        // Touch pages with a store first (allocates + shreds), then load
        // other lines of the same pages: those must zero-fill.
        let mut ops = Vec::new();
        for p in 0..8u64 {
            ops.push(Op::StoreLine(buf.add(p * 4096)));
            ops.push(Op::Load(buf.add(p * 4096 + 512)));
        }
        sys.run(vec![ops.into_iter()], None);
        let mem = &sys.hardware().controller.inspect().stats().mem;
        assert!(
            mem.zero_fill_reads.get() >= 8,
            "expected zero-filled reads, got {}",
            mem.zero_fill_reads.get()
        );
    }

    #[test]
    fn multicore_processes_are_isolated() {
        let mut sys = System::new(SystemConfig::small_test(true)).unwrap();
        let p0 = sys.spawn_process(0).unwrap();
        let p1 = sys.spawn_process(1).unwrap();
        let b0 = sys.sys_alloc(p0, 4096).unwrap();
        let b1 = sys.sys_alloc(p1, 4096).unwrap();
        let summary = sys.run(
            vec![
                vec![Op::StoreLine(b0), Op::Load(b0)].into_iter(),
                vec![Op::StoreLine(b1), Op::Load(b1)].into_iter(),
            ],
            None,
        );
        assert_eq!(summary.cores.len(), 2);
        assert_eq!(sys.kernel().stats().major_faults.get(), 2);
    }
}
