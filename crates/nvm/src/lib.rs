//! Non-volatile memory (PCM-like) device substrate.
//!
//! Models the properties of NVM that motivate the paper (§1, §2.1):
//!
//! * **Slow, power-hungry writes** — reads 75 ns, writes 150 ns (Table 1),
//!   with per-access energy accounting ([`timing`]).
//! * **Limited write endurance** — per-line wear counters and the
//!   most-worn line ([`endurance`]).
//! * **Data remanence** — the array retains its contents across power-off;
//!   [`NvmDevice::cold_scan`] models an attacker physically reading the chip.
//! * **Media errors** — every read goes through a per-line ECC model
//!   ([`ecc`]): wear-out grows weak cells, transients can be injected or
//!   drawn at a configured bit-error rate, and reads come back as
//!   [`LineRead::Clean`] / [`LineRead::Corrected`] or fail loudly with
//!   [`ss_common::Error::UncorrectableEcc`] — never silent garbage
//!   within the detection bound.
//!
//! It also implements the device-level write-reduction techniques the paper
//! discusses as being *defeated by encryption's diffusion* (§1, §8):
//! Data-Comparison Write and Flip-N-Write ([`write_reduction`]), plus
//! Start-Gap wear levelling ([`wear_level`]) as a related-work baseline.
//!
//! # Examples
//!
//! ```
//! use ss_nvm::{NvmConfig, NvmDevice};
//! use ss_common::BlockAddr;
//!
//! let mut nvm = NvmDevice::new(NvmConfig::default());
//! let addr = BlockAddr::new(0x1000);
//! nvm.write_line(addr, &[7u8; 64])?;
//! assert_eq!(nvm.read_line(addr)?.into_data(), [7u8; 64]);
//! // Data survives "power off" — the remanence vulnerability.
//! nvm.power_cycle();
//! assert_eq!(nvm.read_line(addr)?.into_data(), [7u8; 64]);
//! # Ok::<(), ss_common::Error>(())
//! ```

#![forbid(unsafe_code)]

pub mod device;
pub mod ecc;
pub mod endurance;
pub mod timing;
pub mod wear_level;
pub mod write_reduction;

pub use device::{MemoryKind, NvmConfig, NvmDevice, NvmStats};
pub use ecc::{EccConfig, LineRead};
pub use endurance::WearTracker;
pub use timing::{EnergyModel, NvmTiming};
pub use wear_level::StartGap;
pub use write_reduction::{WriteOutcome, WriteScheme};
