//! Cluster-manager mechanics on their own: placement, telemetry, spot
//! preemption, autoscaling and workflow-aware rebalancing — the §3.2
//! "Workflow-Aware Cluster Management" machinery without a workflow on
//! top.
//!
//! ```text
//! cargo run --example cluster_ops
//! ```

use murakkab_agents::Capability;
use murakkab_cluster::{
    rebalance::EndpointView, ClusterManager, PlacementPolicy, RebalanceAction, Rebalancer,
};
use murakkab_hardware::{catalog, EnergyScope, HardwareTarget, SpotTrace};
use murakkab_sim::{SimDuration, SimRng, SimTime};

fn main() {
    let t = SimTime::from_secs;

    // A cluster of two on-demand ND96 VMs plus one spot VM.
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    cm.add_node(catalog::nd96amsr_a100_v4());
    cm.add_node(catalog::nd96amsr_a100_v4());
    let spot_node = cm.add_node(catalog::nd96amsr_a100_v4().as_spot(0.3));
    println!("cluster: {:?}\n", cm.stats(t(0)));

    // Deploy an LLM endpoint and a whisper worker.
    let llm = cm
        .allocate(t(0), "nvlm-text", HardwareTarget::gpus(8))
        .expect("fits");
    let whisper = cm
        .allocate(t(0), "whisper", HardwareTarget::ONE_GPU)
        .expect("fits");
    cm.activity_start(t(0), llm, 0.35).expect("live");
    cm.activity_start(t(0), whisper, 0.65).expect("live");

    // A seeded spot-availability trace decides when the spot VM dies.
    let mut rng = SimRng::new(99);
    let trace = SpotTrace::generate(
        &mut rng,
        t(7200),
        SimDuration::from_secs(1800),
        SimDuration::from_secs(600),
    );
    let first_preempt = trace.events()[0].0;
    println!(
        "spot VM preempts at {first_preempt} (uptime over 2h: {})",
        trace.uptime(t(7200))
    );
    let killed = cm.preempt_node(first_preempt, spot_node).expect("was up");
    println!("allocations killed by preemption: {killed:?}");

    // The workflow-aware rebalancer: STT demand is gone, LLM is swamped.
    let mut upcoming = [0usize; Capability::ALL.len()];
    upcoming[Capability::Summarization as usize] = 64;
    let endpoints = vec![
        EndpointView {
            label: "whisper".into(),
            capability: Capability::SpeechToText,
            gpus: 1.0,
            load: 0,
        },
        EndpointView {
            label: "nvlm-text".into(),
            capability: Capability::Summarization,
            gpus: 8.0,
            load: 48,
        },
    ];
    let plan = Rebalancer::default().plan(cm.free_gpu_units(), &upcoming, &endpoints);
    println!("\nrebalancer plan (the paper's Whisper -> Llama example):");
    for action in &plan {
        match action {
            RebalanceAction::ReleaseIdle { label } => println!("  release idle agent {label}"),
            RebalanceAction::ScaleUp { label, add_gpus } => {
                println!("  scale up {label} by {add_gpus} GPU(s)")
            }
            RebalanceAction::Prewarm {
                capability,
                upcoming,
            } => println!("  prewarm {capability:?} for {upcoming} upcoming tasks"),
        }
    }

    // Autoscale a CPU shape to backfill, then settle the energy bill.
    let ready = cm.request_scale_out(first_preempt, catalog::cpu_only_f64s());
    cm.process_provisioning(ready);
    cm.activity_end(t(3600), llm, 0.35).expect("live");
    cm.activity_end(t(3600), whisper, 0.65).expect("live");
    println!(
        "\nGPU energy over the first hour: {:.1} Wh (allocated devices), {:.1} Wh (whole fleet)",
        cm.energy_wh(t(0), t(3600), EnergyScope::GpuOnly)
            .expect("the series hold the whole hour"),
        cm.energy_wh_all(t(0), t(3600), EnergyScope::GpuOnly)
            .expect("the series hold the whole hour"),
    );
    println!(
        "fleet cost for that hour: ${:.2}",
        cm.fleet_cost_usd(SimDuration::from_secs(3600))
    );
}
