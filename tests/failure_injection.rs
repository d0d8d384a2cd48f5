//! Failure injection: spot preemption, degraded capacity, hallucinated
//! agents, and malformed inputs must degrade gracefully — checked errors
//! or reduced capacity, never panics or silent corruption.

use std::collections::BTreeMap;

use murakkab_agents::library::stock_library;
use murakkab_agents::toolcall::{ArgValue, ToolCall};
use murakkab_agents::Capability;
use murakkab_cluster::{ClusterManager, PlacementPolicy};
use murakkab_hardware::{catalog, HardwareTarget, SpotTrace};
use murakkab_llmsim::{Endpoint, Request, TpGroup};
use murakkab_sim::{SimDuration, SimError, SimRng, SimTime};

#[test]
fn preemption_mid_allocation_returns_killed_work_for_rescheduling() {
    let t = SimTime::from_secs;
    let mut cm = ClusterManager::paper_testbed();
    let ep = cm
        .allocate(t(0), "nvlm", HardwareTarget::gpus(8))
        .expect("fits");
    let stt = cm
        .allocate(t(0), "whisper", HardwareTarget::ONE_GPU)
        .expect("fits");
    cm.activity_start(t(0), stt, 0.65).expect("live");

    let victim = cm.allocation(ep).expect("live").node;
    let killed = cm.preempt_node(t(30), victim).expect("node was up");
    assert!(
        killed.contains(&ep),
        "endpoint allocation must be reported dead"
    );

    // Re-placement after preemption succeeds on the surviving node if it
    // fits, and errors (not panics) if it does not.
    let replace = cm.allocate(t(31), "nvlm-replacement", HardwareTarget::gpus(8));
    match replace {
        Ok(_) => {}
        Err(SimError::ResourceExhausted { .. }) => {}
        Err(other) => panic!("unexpected error class: {other}"),
    }

    // Activity on dead allocations is a silent no-op (the device already
    // zeroed), not a crash.
    if killed.contains(&stt) {
        assert!(cm.activity_end(t(32), stt, 0.65).is_err());
    } else {
        cm.activity_end(t(32), stt, 0.65).expect("still live");
    }
}

#[test]
fn workflow_completes_on_degraded_cluster() {
    // Lose one of the two VMs before the workflow starts: everything must
    // still complete on the survivor (slower, not dead). One ND96 node
    // hosts the 8-GPU endpoint, the 2-GPU embedder cannot fit GPUs —
    // so use a single-node runtime where the plan still fits: the
    // cpu-only STT config needs 8 GPUs (text) + 2 (embed) <= 8... it does
    // not fit; instead degrade from 3 nodes to 2.
    let run_on = |label: &str, nodes: usize| {
        murakkab::Scenario::closed_loop(label)
            .seed(42)
            .cluster(catalog::nd96amsr_a100_v4(), nodes)
            .run()
            .expect("run completes")
    };
    let r3 = run_on("3-nodes", 3);
    let r2 = run_on("2-nodes", 2);
    assert_eq!(
        r3.core.tasks_completed, r2.core.tasks_completed,
        "same work either way"
    );
    // Losing a node never helps.
    assert!(r2.core.makespan_s >= r3.core.makespan_s - 1e-9);
}

#[test]
fn spot_trace_driven_preemption_is_replayable() {
    let horizon = SimTime::from_secs(3_600);
    let mk = || {
        let mut rng = SimRng::new(5);
        SpotTrace::generate(
            &mut rng,
            horizon,
            SimDuration::from_secs(900),
            SimDuration::from_secs(300),
        )
    };
    let a = mk();
    let b = mk();
    assert_eq!(a.events(), b.events());

    // Drive the cluster from the trace: each preempt/restore applies
    // cleanly in order.
    let mut cm = ClusterManager::new(PlacementPolicy::BestFit);
    let node = cm
        .add_node(catalog::nd96amsr_a100_v4().as_spot(0.3))
        .expect("the catalog shape has CPU cores");
    for &(at, ev) in a.events() {
        match ev {
            murakkab_hardware::AvailabilityEvent::Preempt => {
                cm.preempt_node(at, node).expect("was up");
            }
            murakkab_hardware::AvailabilityEvent::Restore => {
                cm.restore_node(at, node).expect("was down");
            }
        }
    }
}

#[test]
fn hallucinated_agents_and_arguments_are_caught() {
    let lib = stock_library();
    // Unknown agent name (the LLM made it up).
    assert!(matches!(
        lib.get("TotallyRealModel-9B"),
        Err(SimError::NotFound { .. })
    ));
    // Known agent, hallucinated argument.
    let whisper = lib.get("Whisper").expect("exists");
    let call = ToolCall {
        function: "Transcribe".into(),
        args: BTreeMap::from([
            ("audio".to_string(), ArgValue::String("x.wav".into())),
            ("confidence_boost".to_string(), ArgValue::Float(11.0)),
        ]),
    };
    let err = whisper
        .schema
        .validate(&call)
        .expect_err("must be rejected");
    assert!(err.to_string().contains("unknown argument"));
}

#[test]
fn oversized_llm_requests_are_rejected_not_wedged() {
    let mut ep = Endpoint::new(
        "small",
        murakkab_llmsim::model::llama3_8b(),
        TpGroup::new(catalog::a100_80g(), 1),
        4,
    );
    let too_big = Request::new(1, u32::MAX / 2, 16);
    assert!(matches!(
        ep.on_submit(too_big, SimTime::ZERO),
        Err(SimError::InvalidInput(_))
    ));
    // The endpoint still serves normal requests afterwards.
    ep.on_submit(Request::new(2, 256, 16), SimTime::ZERO)
        .expect("normal request admitted");
    let (done, _) = ep.drain(SimTime::ZERO);
    assert_eq!(done.len(), 1);
}

#[test]
fn workflow_needing_more_than_the_cluster_fails_with_exhaustion() {
    // A single CPU-only VM cannot host the NVLM endpoint at all.
    let err = murakkab::Scenario::closed_loop("too-small")
        .seed(42)
        .cluster(catalog::cpu_only_f64s(), 1)
        .run()
        .expect_err("must fail");
    match err {
        SimError::ResourceExhausted { .. } | SimError::Unsatisfiable(_) => {}
        other => panic!("wrong error class: {other}"),
    }
}

#[test]
fn double_release_and_unknown_ids_error_cleanly() {
    let t = SimTime::from_secs;
    let mut cm = ClusterManager::paper_testbed();
    let a = cm
        .allocate(t(0), "x", HardwareTarget::ONE_GPU)
        .expect("fits");
    cm.release(t(1), a).expect("first release");
    assert!(matches!(
        cm.release(t(2), a),
        Err(SimError::NotFound { .. })
    ));
    assert!(matches!(cm.allocation(a), Err(SimError::NotFound { .. })));
}

/// Checks the Capability enum is exhaustively served by the stock library
/// (a regression guard for library edits breaking decomposition).
#[test]
fn every_capability_has_at_least_one_stock_agent() {
    let lib = stock_library();
    for cap in Capability::ALL {
        assert!(
            lib.candidates(cap).next().is_some(),
            "no stock agent for {cap:?}"
        );
    }
}
