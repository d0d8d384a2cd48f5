//! VM shapes and pricing tiers.

use serde::{Deserialize, Serialize};

use crate::sku::{CpuSku, GpuSku};

/// How a VM is billed and how reliably it sticks around.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum VmPricing {
    /// Standard on-demand pricing; never preempted.
    OnDemand,
    /// Spot pricing: cheaper (discount fraction of on-demand) but
    /// preemptible.
    Spot {
        /// Price as a fraction of on-demand (e.g. `0.3` = 70% off).
        discount: f64,
    },
    /// Harvest VM: grows/shrinks with leftover capacity (Ambati et al.,
    /// OSDI'20), billed like spot.
    Harvest {
        /// Price as a fraction of on-demand.
        discount: f64,
        /// Minimum guaranteed core count when shrunk.
        min_cores: u32,
    },
}

impl VmPricing {
    /// Billing multiplier applied to the on-demand hourly price.
    pub fn price_factor(&self) -> f64 {
        match *self {
            VmPricing::OnDemand => 1.0,
            VmPricing::Spot { discount } | VmPricing::Harvest { discount, .. } => discount,
        }
    }

    /// True if the platform may take this VM (or part of it) back.
    pub fn preemptible(&self) -> bool {
        !matches!(self, VmPricing::OnDemand)
    }
}

/// A rentable VM configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VmShape {
    /// Azure-style shape name.
    pub name: String,
    /// CPU SKU of the host.
    pub cpu: CpuSku,
    /// Number of vCPUs exposed.
    pub vcpus: u32,
    /// GPU SKU, if the shape has accelerators.
    pub gpu: Option<GpuSku>,
    /// Number of GPUs.
    pub gpu_count: u32,
    /// On-demand price per hour in dollars (whole VM).
    pub hourly_usd: f64,
    /// Pricing tier.
    pub pricing: VmPricing,
}

impl VmShape {
    /// Effective hourly price under the shape's pricing tier.
    pub fn effective_hourly_usd(&self) -> f64 {
        self.hourly_usd * self.pricing.price_factor()
    }

    /// Returns a copy of this shape converted to spot pricing.
    pub fn as_spot(&self, discount: f64) -> VmShape {
        let mut s = self.clone();
        s.pricing = VmPricing::Spot { discount };
        s.name = format!("{}-spot", self.name);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog;

    #[test]
    fn nd96_shape_matches_paper_testbed() {
        let vm = catalog::nd96amsr_a100_v4();
        assert_eq!(vm.vcpus, 96);
        assert_eq!(vm.gpu_count, 8);
        assert_eq!(vm.gpu.as_ref().unwrap().name, "A100-80G");
        assert_eq!(vm.pricing, VmPricing::OnDemand);
        assert!(!vm.pricing.preemptible());
    }

    #[test]
    fn spot_conversion_discounts_price() {
        let vm = catalog::nd96amsr_a100_v4();
        let spot = vm.as_spot(0.3);
        assert!(spot.pricing.preemptible());
        assert!((spot.effective_hourly_usd() - vm.hourly_usd * 0.3).abs() < 1e-9);
        assert!(spot.name.ends_with("-spot"));
    }

    #[test]
    fn harvest_pricing_factor() {
        let p = VmPricing::Harvest {
            discount: 0.2,
            min_cores: 8,
        };
        assert_eq!(p.price_factor(), 0.2);
        assert!(p.preemptible());
    }
}
