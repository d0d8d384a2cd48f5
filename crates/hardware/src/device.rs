//! Device instances and hardware targets.
//!
//! A [`Device`] is one physical GPU or one pooled CPU bank on a node. Two
//! quantities are tracked separately and deliberately:
//!
//! - **reservation** — scheduling units handed to allocations (placement
//!   accounting; what "8 GPUs for text completion" means);
//! - **activity** — how busy the silicon actually is over time (a
//!   [`murakkab_sim::UtilizationTracker`]). Activity drives the power
//!   model and the utilization curves of Figure 3; a reserved-but-idle GPU
//!   draws idle power, which is exactly the waste the paper measures.
//!
//! A [`HardwareTarget`] is what an *execution profile* is keyed by: "this
//! model on 1 A100", "this tool on 64 CPU cores", "this model on 1 GPU + 32
//! cores". Targets are requests; devices are the physical supply.

use serde::{Deserialize, Serialize};

use murakkab_sim::{define_id, SimError, SimTime, TimeSeries, UtilizationTracker};

use crate::power::PowerCurve;
use crate::sku::{CpuSku, GpuSku};

define_id!(DeviceId, "dev");

/// What kind of silicon a device is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeviceKind {
    /// A single discrete GPU.
    Gpu,
    /// A pooled bank of CPU cores (one per node).
    CpuPool,
}

/// A physical device on a node.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Device {
    /// Unique id within the cluster.
    pub id: DeviceId,
    /// GPU or CPU pool.
    pub kind: DeviceKind,
    /// SKU name (e.g. `"A100-80G"`, `"EPYC-7V12"`).
    pub sku_name: String,
    /// Capacity in scheduling units: 1.0 for a GPU (fractional shares
    /// allowed), number of cores for a CPU pool.
    capacity: f64,
    /// Units currently reserved by allocations.
    reserved: f64,
    /// Power curve for this device.
    power: PowerCurve,
    /// Actual busy-capacity over time (drives power and Figure 3 curves).
    activity: UtilizationTracker,
}

impl Device {
    /// Creates a GPU device from a SKU.
    pub fn gpu(id: DeviceId, sku: &GpuSku) -> Self {
        Device {
            id,
            kind: DeviceKind::Gpu,
            sku_name: sku.name.clone(),
            capacity: 1.0,
            reserved: 0.0,
            power: sku.power_curve(),
            activity: UtilizationTracker::new(format!("{}/{}", sku.name, id), 1.0)
                .expect("a GPU has unit capacity"),
        }
    }

    /// Creates a CPU pool device from a SKU and a core count.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if `cores` is zero.
    pub fn cpu_pool(id: DeviceId, sku: &CpuSku, cores: u32) -> Result<Self, SimError> {
        Ok(Device {
            id,
            kind: DeviceKind::CpuPool,
            sku_name: sku.name.clone(),
            capacity: f64::from(cores),
            reserved: 0.0,
            power: sku.power_curve(),
            activity: UtilizationTracker::new(format!("{}/{}", sku.name, id), f64::from(cores))?,
        })
    }

    /// Total capacity in scheduling units.
    pub fn capacity(&self) -> f64 {
        self.capacity
    }

    /// Units currently reserved by allocations.
    pub fn reserved(&self) -> f64 {
        self.reserved
    }

    /// Units free for new allocations.
    pub fn free(&self) -> f64 {
        (self.capacity - self.reserved).max(0.0)
    }

    /// Reserves `units` for an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] on over-commit (placement must
    /// check [`Device::free`]); nothing changes.
    pub fn reserve(&mut self, units: f64) -> Result<(), SimError> {
        if self.reserved + units > self.capacity + 1e-9 {
            return Err(SimError::InvalidState(format!(
                "{}: reservation over-commit ({} + {units} > {})",
                self.id, self.reserved, self.capacity
            )));
        }
        self.reserved = (self.reserved + units).min(self.capacity);
        Ok(())
    }

    /// Returns `units` from an allocation.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] on underflow; nothing changes.
    pub fn unreserve(&mut self, units: f64) -> Result<(), SimError> {
        if units > self.reserved + 1e-9 {
            return Err(SimError::InvalidState(format!(
                "{}: reservation underflow ({units} > {})",
                self.id, self.reserved
            )));
        }
        self.reserved = (self.reserved - units).max(0.0);
        Ok(())
    }

    /// Marks `units` of real activity starting at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if activity would exceed
    /// capacity or `t` is before the last activity change.
    pub fn activity_start(&mut self, t: SimTime, units: f64) -> Result<(), SimError> {
        self.activity.acquire(t, units)
    }

    /// Ends `units` of real activity at `t`.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] on underflow or if `t` is
    /// before the last activity change.
    pub fn activity_end(&mut self, t: SimTime, units: f64) -> Result<(), SimError> {
        self.activity.release(t, units)
    }

    /// Sets the absolute activity level at `t` (LLM endpoints report their
    /// own utilization level per batching step).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidState`] if `units` exceeds capacity or
    /// `t` is before the last activity change.
    pub fn set_activity_level(&mut self, t: SimTime, units: f64) -> Result<(), SimError> {
        self.activity.set_level(t, units)
    }

    /// Current activity fraction.
    pub fn utilization(&self) -> f64 {
        self.activity.utilization()
    }

    /// The activity series (fraction of capacity over time).
    pub fn util_series(&self) -> &TimeSeries {
        self.activity.series()
    }

    /// Drops the activity points before the last one at or before `t`;
    /// the series still answers for every instant from `t` on (see
    /// [`TimeSeries::trim_before`]).
    pub fn trim_util_before(&mut self, t: SimTime) {
        self.activity.trim_before(t);
    }

    /// The device's power curve.
    pub fn power_curve(&self) -> PowerCurve {
        self.power
    }
}

/// A hardware configuration an agent can be profiled on and scheduled to.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum HardwareTarget {
    /// `count` whole GPUs (fraction allowed via `share` in `(0, 1]`).
    Gpu {
        /// Number of GPUs.
        count: u32,
        /// Fraction of each GPU used (1.0 = exclusive).
        share: f64,
    },
    /// `cores` CPU cores from a node's pool.
    Cpu {
        /// Number of cores.
        cores: u32,
    },
    /// A GPU-plus-CPU hybrid (the paper's third STT configuration).
    Hybrid {
        /// Number of GPUs.
        gpus: u32,
        /// Fraction of each GPU used.
        gpu_share: f64,
        /// Number of CPU cores.
        cores: u32,
    },
}

impl HardwareTarget {
    /// One exclusive GPU.
    pub const ONE_GPU: HardwareTarget = HardwareTarget::Gpu {
        count: 1,
        share: 1.0,
    };

    /// Shorthand for `count` exclusive GPUs.
    pub fn gpus(count: u32) -> Self {
        HardwareTarget::Gpu { count, share: 1.0 }
    }

    /// Shorthand for a CPU-core target.
    pub fn cpu_cores(cores: u32) -> Self {
        HardwareTarget::Cpu { cores }
    }

    /// Number of whole-GPU equivalents this target occupies.
    pub fn gpu_units(&self) -> f64 {
        match *self {
            HardwareTarget::Gpu { count, share } => f64::from(count) * share,
            HardwareTarget::Cpu { .. } => 0.0,
            HardwareTarget::Hybrid {
                gpus, gpu_share, ..
            } => f64::from(gpus) * gpu_share,
        }
    }

    /// Number of CPU cores this target occupies.
    pub fn cpu_cores_used(&self) -> u32 {
        match *self {
            HardwareTarget::Gpu { .. } => 0,
            HardwareTarget::Cpu { cores } => cores,
            HardwareTarget::Hybrid { cores, .. } => cores,
        }
    }

    /// True if the target needs at least one GPU.
    pub fn needs_gpu(&self) -> bool {
        self.gpu_units() > 0.0
    }

    /// A short display string, e.g. `"2xGPU"`, `"64xCPU"`, `"1xGPU+32xCPU"`.
    pub fn short_label(&self) -> String {
        match *self {
            HardwareTarget::Gpu { count, share } if (share - 1.0).abs() < 1e-9 => {
                format!("{count}xGPU")
            }
            HardwareTarget::Gpu { count, share } => format!("{count}x{share:.2}GPU"),
            HardwareTarget::Cpu { cores } => format!("{cores}xCPU"),
            HardwareTarget::Hybrid {
                gpus,
                gpu_share,
                cores,
            } if (gpu_share - 1.0).abs() < 1e-9 => format!("{gpus}xGPU+{cores}xCPU"),
            HardwareTarget::Hybrid {
                gpus,
                gpu_share,
                cores,
            } => format!("{gpus}x{gpu_share:.2}GPU+{cores}xCPU"),
        }
    }
}

impl std::fmt::Display for HardwareTarget {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.short_label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    /// Energy of `d` over `[from, to)`, in one close.
    fn energy_wh(d: &Device, from: SimTime, to: SimTime) -> f64 {
        crate::EnergyIntegrator::new(from).close(d.power_curve(), d.util_series(), to)
    }

    #[test]
    fn reservation_and_activity_are_independent() {
        let sku = catalog::a100_80g();
        let mut d = Device::gpu(DeviceId::from_raw(0), &sku);
        d.reserve(1.0).unwrap();
        assert_eq!(d.free(), 0.0);
        // Reserved but idle: no activity, idle power.
        assert_eq!(d.utilization(), 0.0);
        let wh_idle = energy_wh(&d, SimTime::ZERO, SimTime::from_secs(3600));
        assert!((wh_idle - sku.idle_w).abs() < 1e-6);

        d.activity_start(SimTime::ZERO, 0.7).unwrap();
        assert!((d.utilization() - 0.7).abs() < 1e-9);
        d.activity_end(SimTime::from_secs(1800), 0.7).unwrap();
        d.unreserve(1.0).unwrap();
        assert_eq!(d.free(), 1.0);
    }

    #[test]
    fn activity_errors_leave_the_device_as_it_was() {
        let mut d = Device::gpu(DeviceId::from_raw(7), &catalog::a100_80g());
        d.activity_start(SimTime::from_secs(5), 0.6).unwrap();
        assert!(matches!(
            d.activity_start(SimTime::from_secs(6), 0.6),
            Err(SimError::InvalidState(_))
        ));
        assert!(matches!(
            d.set_activity_level(SimTime::from_secs(4), 0.1),
            Err(SimError::InvalidState(_))
        ));
        assert!(matches!(
            d.activity_end(SimTime::from_secs(7), 0.9),
            Err(SimError::InvalidState(_))
        ));
        assert!((d.utilization() - 0.6).abs() < 1e-12);
        assert_eq!(d.util_series().points().len(), 2);
    }

    #[test]
    fn set_activity_level_is_absolute() {
        let mut d = Device::gpu(DeviceId::from_raw(1), &catalog::a100_80g());
        d.set_activity_level(SimTime::ZERO, 0.4).unwrap();
        d.set_activity_level(SimTime::from_secs(10), 0.9).unwrap();
        d.set_activity_level(SimTime::from_secs(20), 0.0).unwrap();
        assert!(
            (d.util_series()
                .average(SimTime::ZERO, SimTime::from_secs(20))
                - 0.65)
                .abs()
                < 1e-9
        );
    }

    #[test]
    fn cpu_pool_has_core_capacity() {
        let sku = catalog::epyc_7v12();
        let d = Device::cpu_pool(DeviceId::from_raw(1), &sku, 96).unwrap();
        assert_eq!(d.capacity(), 96.0);
        assert_eq!(d.kind, DeviceKind::CpuPool);
    }

    #[test]
    fn zero_core_pool_is_refused() {
        assert!(matches!(
            Device::cpu_pool(DeviceId::from_raw(2), &catalog::epyc_7v12(), 0),
            Err(SimError::InvalidState(_))
        ));
    }

    #[test]
    fn reservation_overcommit_is_refused() {
        let mut d = Device::gpu(DeviceId::from_raw(3), &catalog::a100_80g());
        d.reserve(0.5).unwrap();
        assert!(matches!(d.reserve(0.75), Err(SimError::InvalidState(_))));
        assert_eq!(d.reserved(), 0.5, "the refused reservation changed nothing");
    }

    #[test]
    fn unreserve_underflow_is_refused() {
        let mut d = Device::gpu(DeviceId::from_raw(4), &catalog::a100_80g());
        d.reserve(0.25).unwrap();
        assert!(matches!(d.unreserve(0.5), Err(SimError::InvalidState(_))));
        assert_eq!(d.reserved(), 0.25, "the refused release changed nothing");
    }

    #[test]
    fn busy_energy_exceeds_idle_energy() {
        let sku = catalog::a100_80g();
        let mut idle = Device::gpu(DeviceId::from_raw(5), &sku);
        idle.reserve(1.0).unwrap();
        let mut busy = Device::gpu(DeviceId::from_raw(6), &sku);
        busy.reserve(1.0).unwrap();
        busy.activity_start(SimTime::ZERO, 1.0).unwrap();
        let w = SimTime::from_secs(3600);
        assert!(energy_wh(&busy, SimTime::ZERO, w) > energy_wh(&idle, SimTime::ZERO, w));
        assert!((energy_wh(&busy, SimTime::ZERO, w) - sku.tdp_w).abs() < 1e-6);
    }

    #[test]
    fn target_accounting() {
        let g = HardwareTarget::gpus(2);
        assert_eq!(g.gpu_units(), 2.0);
        assert_eq!(g.cpu_cores_used(), 0);
        assert!(g.needs_gpu());

        let c = HardwareTarget::cpu_cores(64);
        assert_eq!(c.gpu_units(), 0.0);
        assert_eq!(c.cpu_cores_used(), 64);
        assert!(!c.needs_gpu());

        let h = HardwareTarget::Hybrid {
            gpus: 1,
            gpu_share: 0.5,
            cores: 32,
        };
        assert_eq!(h.gpu_units(), 0.5);
        assert_eq!(h.cpu_cores_used(), 32);
    }

    #[test]
    fn target_labels() {
        assert_eq!(HardwareTarget::gpus(2).short_label(), "2xGPU");
        assert_eq!(HardwareTarget::cpu_cores(64).short_label(), "64xCPU");
        assert_eq!(
            HardwareTarget::Hybrid {
                gpus: 1,
                gpu_share: 1.0,
                cores: 32
            }
            .short_label(),
            "1xGPU+32xCPU"
        );
        assert_eq!(
            HardwareTarget::Gpu {
                count: 1,
                share: 0.25
            }
            .short_label(),
            "1x0.25GPU"
        );
    }
}
