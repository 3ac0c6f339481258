//! Simulated operating system: the software half of data shredding.
//!
//! The paper's mechanism is a contract between the kernel and the memory
//! controller: *the OS decides when a physical page must be shredded and
//! tells the hardware; the hardware makes it free*. This crate implements
//! the OS side faithfully enough to reproduce the evaluation:
//!
//! * [`frame_alloc`] — physical frame allocator (Linux-style
//!   zero-on-demand, §2.3);
//! * [`page_table`] — per-process page tables with the shared **zero
//!   page** and copy-on-write-of-zero mapping (§2.3);
//! * [`zeroing`] — the `clear_page` strategies compared throughout the
//!   paper: temporal stores, non-temporal stores, DMA-engine zeroing
//!   \[21\], RowClone-style in-memory zeroing \[34\], the Silent Shredder
//!   shred command, and insecure no-zeroing (Table 2, Fig. 5);
//! * [`kernel`] — page-fault handling, `malloc`/`free` syscalls, process
//!   lifecycle (exit shreds the address space), and the §7.2 user-level
//!   bulk-initialisation syscall;
//! * [`hypervisor`] — VM memory granting, double shredding (Fig. 1) and
//!   ballooning (§7.2);
//! * [`machine`] — the [`machine::MachineOps`] trait through which the
//!   kernel drives the hardware (implemented for real by `ss-sim`, and by
//!   a mock here for unit tests).
//!
//! # Examples
//!
//! ```
//! use ss_os::{Kernel, ZeroStrategy, machine::MockMachine};
//! use ss_common::{Cycles, VirtAddr};
//!
//! let mut machine = MockMachine::new(256);
//! let mut kernel = Kernel::new(
//!     ZeroStrategy::ShredCommand,
//!     (1..64).map(ss_common::PageId::new).collect(),
//! );
//!
//! let proc = kernel.create_process();
//! let buf = kernel.sys_alloc(proc, 8192)?;
//! // First store faults and allocates a frame (fresh NVM: no shred yet).
//! kernel.handle_fault(&mut machine, 0, proc, buf, true, Cycles::ZERO)?;
//! // Free and re-allocate: the reused frame is shredded at zero cost.
//! kernel.sys_free(proc, buf, 8192)?;
//! let buf2 = kernel.sys_alloc(proc, 8192)?;
//! kernel.handle_fault(&mut machine, 0, proc, buf2, true, Cycles::ZERO)?;
//! assert_eq!(kernel.stats().pages_shredded.get(), 1);
//! # Ok::<(), ss_common::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod frame_alloc;
pub mod hypervisor;
pub mod kernel;
pub mod machine;
pub mod page_table;
pub mod pmem;
pub mod tlb;
pub mod zeroing;

pub use frame_alloc::FrameAllocator;
pub use hypervisor::{Hypervisor, VmId};
pub use kernel::{Kernel, KernelStats, ProcId};
pub use page_table::{Mapping, PageTable, Translation};
pub use pmem::{PmemDirectory, PmemEntry};
pub use tlb::{Tlb, TlbStats};
pub use zeroing::ZeroStrategy;
