//! The stock hardware catalog.
//!
//! Public-datasheet ratings for the SKUs the paper mentions: the A100-80GB
//! testbed GPUs, the H100 alternative ("GPU generation" lever in Table 1),
//! plus older/cheaper parts the scheduler may pick from, and the Azure VM
//! shapes used in §4.

use crate::sku::{CpuSku, GpuGeneration, GpuSku};
use crate::vm::{VmPricing, VmShape};

/// NVIDIA A100 80GB SXM — the paper's testbed GPU.
pub fn a100_80g() -> GpuSku {
    GpuSku {
        name: "A100-80G".to_string(),
        generation: GpuGeneration::Ampere,
        fp16_tflops: 312.0,
        mem_gb: 80.0,
        mem_bw_gbps: 2039.0,
        interconnect_gbps: 600.0,
        tdp_w: 400.0,
        idle_w: 90.0,
        hourly_usd: 3.67,
    }
}

/// NVIDIA H100 80GB SXM — the "newer generation" lever of Table 1.
pub fn h100_80g() -> GpuSku {
    GpuSku {
        name: "H100-80G".to_string(),
        generation: GpuGeneration::Hopper,
        fp16_tflops: 989.0,
        mem_gb: 80.0,
        mem_bw_gbps: 3350.0,
        interconnect_gbps: 900.0,
        tdp_w: 700.0,
        idle_w: 105.0,
        hourly_usd: 6.98,
    }
}

/// NVIDIA V100 32GB SXM2.
pub fn v100_32g() -> GpuSku {
    GpuSku {
        name: "V100-32G".to_string(),
        generation: GpuGeneration::Volta,
        fp16_tflops: 125.0,
        mem_gb: 32.0,
        mem_bw_gbps: 900.0,
        interconnect_gbps: 300.0,
        tdp_w: 300.0,
        idle_w: 40.0,
        hourly_usd: 1.80,
    }
}

/// NVIDIA T4 — small inference part.
pub fn t4() -> GpuSku {
    GpuSku {
        name: "T4".to_string(),
        generation: GpuGeneration::Turing,
        fp16_tflops: 65.0,
        mem_gb: 16.0,
        mem_bw_gbps: 320.0,
        interconnect_gbps: 32.0,
        tdp_w: 70.0,
        idle_w: 10.0,
        hourly_usd: 0.53,
    }
}

/// On-demand dollar rate of one [`epyc_7v12`] core-hour: the CPU rate
/// every engine bills, readable without building the SKU.
pub const EPYC_7V12_USD_PER_CORE_HOUR: f64 = 0.048;

/// AMD EPYC 7V12 vCPU pool — the ND96amsr host CPU.
///
/// The 200 W pool TDP encodes the paper's "GPU rated 16× higher than the
/// CPU power" statement for an 8×A100 (3200 W) VM.
pub fn epyc_7v12() -> CpuSku {
    CpuSku {
        name: "EPYC-7V12".to_string(),
        base_ghz: 2.45,
        gflops_per_core: 39.2,
        pool_tdp_w: 200.0,
        pool_idle_w: 35.0,
        hourly_usd_per_core: EPYC_7V12_USD_PER_CORE_HOUR,
    }
}

/// `Standard_ND96amsr_A100_v4`: 96 vCPU + 8× A100-80G — the paper's VM.
pub fn nd96amsr_a100_v4() -> VmShape {
    VmShape {
        name: "Standard_ND96amsr_A100_v4".to_string(),
        cpu: epyc_7v12(),
        vcpus: 96,
        gpu: Some(a100_80g()),
        gpu_count: 8,
        hourly_usd: 32.77,
        pricing: VmPricing::OnDemand,
    }
}

/// A hypothetical H100 shape for the GPU-generation lever.
pub fn nd96_h100_v5() -> VmShape {
    VmShape {
        name: "Standard_ND96isr_H100_v5".to_string(),
        cpu: epyc_7v12(),
        vcpus: 96,
        gpu: Some(h100_80g()),
        gpu_count: 8,
        hourly_usd: 60.06,
        pricing: VmPricing::OnDemand,
    }
}

/// A CPU-only compute shape (64 vCPUs).
pub fn cpu_only_f64s() -> VmShape {
    VmShape {
        name: "Standard_F64s_v2".to_string(),
        cpu: epyc_7v12(),
        vcpus: 64,
        gpu: None,
        gpu_count: 0,
        hourly_usd: 2.71,
        pricing: VmPricing::OnDemand,
    }
}

/// All stock GPU SKUs, most capable first.
pub fn all_gpus() -> Vec<GpuSku> {
    vec![h100_80g(), a100_80g(), v100_32g(), t4()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_gpus_sorted_by_capability() {
        let gpus = all_gpus();
        for w in gpus.windows(2) {
            assert!(w[0].fp16_tflops > w[1].fp16_tflops);
        }
    }

    #[test]
    fn gpu_price_tracks_capability() {
        // Within the stock catalog, price per hour rises with TFLOPS.
        let gpus = all_gpus();
        for w in gpus.windows(2) {
            assert!(w[0].fp16_tflops > w[1].fp16_tflops);
            assert!(w[0].hourly_usd > w[1].hourly_usd);
        }
    }

    #[test]
    fn vm_prices_are_positive() {
        for vm in [nd96amsr_a100_v4(), nd96_h100_v5(), cpu_only_f64s()] {
            assert!(vm.hourly_usd > 0.0);
            assert!(vm.effective_hourly_usd() > 0.0);
        }
    }
}
