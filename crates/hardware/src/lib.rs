//! Hardware catalog, power and energy models for Murakkab.
//!
//! The paper's testbed is two Azure `Standard_ND96amsr_A100_v4` VMs, each
//! with 96 AMD EPYC 7V12 vCPUs and 8 NVIDIA A100-80GB GPUs. This crate
//! models that hardware (and the wider SKU menu Murakkab's scheduler is
//! allowed to choose from — H100, V100, T4, CPU-only shapes, Spot and
//! Harvest variants) as *data*: FLOPS, memory, bandwidth, power curves and
//! prices from public datasheets.
//!
//! Nothing here executes anything. Execution happens in the simulation
//! layers above; this crate answers two questions:
//!
//! 1. *capability*: how fast is device X for a given amount of work, and
//! 2. *power*: how many watts does device X draw at a given utilization,
//!    integrated into watt-hours by [`energy::EnergyIntegrator`] — the quantity
//!    Table 2 of the paper reports.
//!
//! # Examples
//!
//! ```
//! use murakkab_hardware::catalog;
//!
//! let a100 = catalog::a100_80g();
//! assert_eq!(a100.mem_gb, 80.0);
//! let vm = catalog::nd96amsr_a100_v4();
//! assert_eq!(vm.gpu_count, 8);
//! assert_eq!(vm.vcpus, 96);
//! ```

pub mod availability;
pub mod catalog;
pub mod device;
pub mod energy;
pub mod power;
pub mod sku;
pub mod vm;

pub use availability::{AvailabilityEvent, SpotTrace};
pub use device::{Device, DeviceId, DeviceKind, HardwareTarget};
pub use energy::EnergyIntegrator;
pub use power::PowerCurve;
pub use sku::{CpuSku, GpuGeneration, GpuSku};
pub use vm::{VmPricing, VmShape};
