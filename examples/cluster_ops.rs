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
use murakkab_hardware::{catalog, HardwareTarget, SpotTrace};
use murakkab_sim::{SimDuration, SimRng, SimTime};

fn main() {
    let t = SimTime::from_secs;

    // A cluster of two on-demand ND96 VMs plus one spot VM, recording
    // its timeline (utilization curves and whole-fleet energy).
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    cm.record_timeline().expect("no activity yet");
    let shape = catalog::nd96amsr_a100_v4();
    cm.add_node(shape.clone()).expect("the shape has cores");
    cm.add_node(shape.clone()).expect("the shape has cores");
    let spot_node = cm
        .add_node(shape.as_spot(0.3))
        .expect("the shape has cores");
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

    // Settle the first hour's energy bill: the allocations' own GPUs,
    // then the timeline's whole fleet, idle GPUs included.
    let hour = t(3600);
    cm.activity_end(hour, llm, 0.35).expect("live");
    cm.activity_end(hour, whisper, 0.65).expect("live");
    let allocated = cm.allocation_energy_wh(llm, hour).expect("live")
        + cm.allocation_energy_wh(whisper, hour).expect("live");
    let timeline = cm
        .close_timeline(hour)
        .expect("the cluster kept its shape")
        .expect("the timeline is recorded");
    let mean_gpu =
        timeline.gpu_util.iter().map(|&(_, pct)| pct).sum::<f64>() / timeline.gpu_util.len() as f64;
    println!(
        "\nGPU energy over the first hour: {allocated:.1} Wh (allocated devices), {:.1} Wh (whole fleet)",
        timeline.energy_fleet_wh,
    );
    println!("mean GPU utilization over that hour: {mean_gpu:.1}%");
    println!(
        "fleet cost for that hour: ${:.2}",
        cm.fleet_cost_usd(SimDuration::from_secs(3600))
    );

    // Autoscale a CPU shape to backfill the lost spot capacity.
    let ready = cm.request_scale_out(first_preempt, catalog::cpu_only_f64s());
    let added = cm.process_provisioning(ready).expect("the shape has cores");
    println!("\nbackfilled {added:?}: {:?}", cm.stats(ready));
}
