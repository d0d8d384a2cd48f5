//! Multi-region federated serving: the execution layer behind
//! [`Scenario::geo`](crate::scenario::Scenario::geo).
//!
//! A geo scenario runs one open-loop fleet **per region** — each
//! region is its own set of engine cells (on-demand shards plus
//! single-node spot cells), its own admission controller and its own
//! class aggregates — joined by the `murakkab_geo` WAN model. The geo
//! router sits *above* the per-region cell router: each arriving
//! request is assigned a deterministic origin region (a pure function
//! of its id and arrival instant, weighted by each region's diurnal
//! activity curve), the geo policy picks the serving region against
//! the last sync-epoch load snapshot, and the request pays the modeled
//! WAN round-trip plus payload transfer on its latency and TTFT when
//! it is served away from home.
//!
//! Each region is a `Region` stepped by the same `advance_region` as the
//! single-region fleet ([`mod@crate::fleet`]), with inclusive sync-epoch
//! bounds. Regions only interact at sync-epoch boundaries (route
//! snapshots, elastic transitions), so between epochs every region
//! advances on its own engine state alone. Each epoch runs five steps:
//! (1) elastic spot transitions, (2) the load snapshot, (3) geo-routing
//! the epoch's arrivals, (4) stepping every region to the boundary and
//! (5) each region's `region_tick` — the same tick the single-region
//! fleet runs every `rebalance_every_s` (advisory rebalancer per cell,
//! then the steal pass) — plus the spot bill. Geo ticks at
//! `sync_epoch_s` and ignores `rebalance_every_s`. `advance_regions`
//! steps regions concurrently on the
//! [`OpenLoopSpec::threads`](crate::scenario::OpenLoopSpec) region
//! workers — cells within a region step inline — and all merging is in
//! region-index order, so the report is bit-identical at every
//! region-worker count.
//!
//! Capture needs nothing geo-specific: each region records into its
//! own capture shard, merged at settlement like the single-region one.
//!
//! Elastic capacity: each region's spot pool is one whole cell per spot
//! slot, flipped active/inactive at epoch boundaries by the
//! conjunction of a seeded availability trace (alternating renewal
//! process from `murakkab_hardware`) and a *predictive* autoscaler that
//! provisions for the diurnal origin curve `lead_s` ahead of now. The
//! schedule never reads backlog, so spot capacity — and its node-hours
//! bill — is identical across routing policies: policy A/B sweeps are
//! equal-cost by construction. A reclaimed cell migrates its queued
//! workflows to the region's least-loaded active cell and drains its
//! in-flight work in place.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use murakkab_geo::{
    desired_spot_nodes, origin_region, route_region, GeoSpec, RegionLoad, RegionSpec,
};
use murakkab_hardware::SpotTrace;
use murakkab_sim::{SimDuration, SimError, SimRng, SimTime};
use murakkab_traffic::AdmissionStats;

use crate::capture::{CaptureShard, RunCapture};
use crate::fleet::{
    advance_regions, assemble_fleet_report, region_tick, settle_cells, settle_util, CellDone,
    ClassAgg, FleetReport, Region, ReportParams, ServeSetup, StepCtx,
};
use crate::runtime::Runtime;
use crate::scenario::Scenario;

/// One region's slice of a [`GeoReport`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoRegionReport {
    /// Region name.
    pub region: String,
    /// Local-time offset driving its diurnal curve, hours.
    pub utc_offset_h: f64,
    /// Requests that *originated* here (the region's demand).
    pub origin_requests: u64,
    /// Requests the geo router *served* here (admitted or not).
    pub served_requests: u64,
    /// Originated here, served elsewhere.
    pub escaped_out: u64,
    /// Served here, originated elsewhere.
    pub escaped_in: u64,
    /// WAN transfer into/out of this region for its cross-region
    /// serves, GB.
    pub wan_egress_gb: f64,
    /// Dollar cost of that transfer.
    pub wan_egress_usd: f64,
    /// Spot cells activated ahead of the diurnal curve.
    pub spot_activations: u64,
    /// Spot cells reclaimed (trace preemption or scale-down).
    pub spot_reclaims: u64,
    /// Active spot capacity integrated over the run, node-hours.
    pub spot_node_hours: f64,
    /// Queued workflows migrated off reclaimed spot cells.
    pub reclaim_migrated: u64,
    /// The region's own fleet report. Its `offered` counts origins,
    /// while its class rows count work *served* here — an inbound
    /// spillover region can admit more than it originates.
    pub fleet: FleetReport,
}

/// What a federated run measured: per-region fleet reports plus the
/// WAN and elastic-capacity accounting, and a global roll-up.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GeoReport {
    /// Geo-routing policy tag.
    pub policy: String,
    /// Telemetry sync cadence, seconds.
    pub sync_epoch_s: f64,
    /// Per-region breakdowns, in spec order.
    pub regions: Vec<GeoRegionReport>,
    /// Requests served outside their origin region.
    pub cross_region_requests: u64,
    /// Total WAN transfer those requests paid for, GB.
    pub wan_egress_gb: f64,
    /// Dollar cost of that transfer.
    pub wan_egress_usd: f64,
    /// Active spot capacity across regions, node-hours
    /// (policy-independent: the elastic schedule never reads backlog).
    pub spot_node_hours: f64,
    /// Spot reclaims across regions.
    pub spot_reclaims: u64,
    /// Compute dollars (spot billed at its price factor) plus WAN
    /// egress — the figure equal-cost policy comparisons hold fixed.
    pub cost_usd: f64,
    /// The global fleet roll-up: every region's cells and classes
    /// merged in region-index order.
    pub global: FleetReport,
}

impl GeoReport {
    /// One-line summary for harness output.
    pub fn summary_line(&self) -> String {
        format!(
            "geo[{}] {} regions | SLO {:.1}% | goodput {:.1}/min | x-region {} ({:.2} GB WAN) | spot {:.1} nh | ${:.2}",
            self.policy,
            self.regions.len(),
            100.0 * self.global.slo_attainment,
            self.global.goodput_per_min,
            self.cross_region_requests,
            self.wan_egress_gb,
            self.spot_node_hours,
            self.cost_usd,
        )
    }

    /// The worst per-class TTFT p95 across the global roll-up — the
    /// geo bench's figure of merit (a latency-oblivious policy ships
    /// night-side requests across the planet and this is where it
    /// shows).
    pub fn worst_class_ttft_p95_s(&self) -> Option<f64> {
        self.global
            .classes
            .iter()
            .filter_map(|c| c.ttft_p95_s)
            .max_by(f64::total_cmp)
    }
}

/// One spot slot of a region: its availability trace and the index of
/// the single-node cell it drives.
struct SpotSlot {
    trace: SpotTrace,
    cell: usize,
    active: bool,
}

/// A region's geo-only books, kept next to its [`Region`]: the spot
/// slots and the WAN and elastic counters its report carries.
#[derive(Default)]
struct Ledger {
    spot: Vec<SpotSlot>,
    origin_requests: u64,
    served_requests: u64,
    escaped_out: u64,
    escaped_in: u64,
    wan_egress_gb: f64,
    wan_egress_usd: f64,
    spot_activations: u64,
    spot_reclaims: u64,
    spot_node_hours: f64,
    reclaim_migrated: u64,
}

/// Flips a region's spot cells at an epoch boundary: a slot is wanted
/// while the predictive autoscaler asks for at least `slot + 1` nodes
/// *and* its availability trace says the platform has capacity.
/// Transitions are epoch-granular (the modeled control-plane cadence).
/// A reclaim migrates the cell's queued workflows to the region's
/// least-loaded active cell; in-flight work drains in place.
fn elastic_pass(
    rs: &mut Region,
    ledger: &mut Ledger,
    spec: &RegionSpec,
    geo: &GeoSpec,
    now: SimTime,
) {
    let Some(elastic) = &geo.elastic else {
        return;
    };
    let desired = desired_spot_nodes(spec, now.as_secs_f64(), elastic.lead_s, geo.day_s);
    for (s, slot) in ledger.spot.iter_mut().enumerate() {
        // Slot `s` materializes once the autoscaler wants its whole
        // cell's worth of nodes.
        let cell = slot.cell;
        let want = (s + 1) * rs.cells[cell].nodes <= desired && slot.trace.available_at(now);
        if want && !slot.active {
            slot.active = true;
            rs.cells[cell].active = true;
            ledger.spot_activations += 1;
        } else if !want && slot.active {
            slot.active = false;
            rs.cells[cell].active = false;
            ledger.spot_reclaims += 1;
            // Shed the queue before the node disappears: every queued
            // item keeps its (priority, seq), so it drains in exactly
            // the order it would have.
            let mut moved = Vec::new();
            while let Some(item) = rs.cells[cell].queue.pop() {
                moved.push(item);
            }
            if !moved.is_empty() {
                let target = crate::fleet::least_loaded(&rs.cells, 0..rs.cells.len());
                ledger.reclaim_migrated += moved.len() as u64;
                for (prio, seq, idx) in moved {
                    rs.cells[cell].migrated_out += 1;
                    rs.cells[target].queue.push(prio, seq, idx);
                    rs.cells[target].stolen_in += 1;
                    rs.cells[target].note_backlog();
                }
            }
        }
    }
}

/// Executes an open-loop scenario federated across `geo`'s regions,
/// capturing per-request records when `capture` is set. See the
/// [module docs](self) for the epoch protocol.
pub(crate) fn execute_geo(
    runtime: &Runtime,
    scenario: &Scenario,
    geo: &GeoSpec,
    capture: bool,
) -> Result<(GeoReport, Option<RunCapture>), SimError> {
    let (spec, _, _) = scenario.open_loop_parts()?;
    let horizon = SimDuration::from_secs_f64(spec.horizon_s);

    // The arrival stream is the same one the single-region path would
    // generate — geo only decides *where* each request is served.
    let ServeSetup {
        built,
        mut planned,
        classes: table_classes,
        priority_ranks,
    } = runtime.serve_setup(scenario, |prep| {
        let geo_rng = SimRng::new(runtime.seed()).fork("geo");
        let mut routes_by_nodes = BTreeMap::new();
        let mut built = Vec::with_capacity(geo.regions.len());
        for region in &geo.regions {
            let clusters = runtime
                .build_cluster_of(region.nodes)
                .partition(region.shards)?;
            let mut cells = runtime.build_cells(clusters, prep, &mut routes_by_nodes)?;
            // A spot pool smaller than one cell never materializes — the
            // analyzer warns about the idle remainder.
            let mut ledger = Ledger::default();
            if let Some(elastic) = &geo.elastic {
                for s in 0..region.spot_slots() {
                    let mut spot_cells = runtime.build_cells(
                        vec![runtime.build_cluster_of(region.cell_nodes())],
                        prep,
                        &mut routes_by_nodes,
                    )?;
                    let mut cell = spot_cells.pop().expect("one cluster in, one cell out");
                    cell.active = false;
                    cell.cost_scale = elastic.price_factor;
                    let mut trace_rng = geo_rng.fork(&format!("spot-{}-{s}", region.name));
                    // Generate well past the horizon: the drain tail
                    // keeps running after the last arrival.
                    let trace = SpotTrace::generate(
                        &mut trace_rng,
                        SimTime::ZERO + horizon + horizon + horizon,
                        SimDuration::from_secs_f64(elastic.mean_up_s),
                        SimDuration::from_secs_f64(elastic.mean_down_s),
                    );
                    ledger.spot.push(SpotSlot {
                        trace,
                        cell: cells.len(),
                        active: false,
                    });
                    cells.push(cell);
                }
            }
            built.push((cells, ledger));
        }
        let est_routes = built[0].0[0].routes.clone();
        Ok((built, est_routes))
    })?;

    // One shared class table: every region's aggregates line up on the
    // same dense index so the global roll-up is a per-slot merge. A
    // region counts `offered` at origin, so its rows start empty.
    let skeleton: Vec<ClassAgg> = table_classes
        .iter()
        .map(|c| ClassAgg {
            name: c.name.clone(),
            priority: c.priority,
            deadline_s: c.deadline_s,
            ..ClassAgg::default()
        })
        .collect();
    let mut regions: Vec<Region> = Vec::with_capacity(built.len());
    let mut ledgers: Vec<Ledger> = Vec::with_capacity(built.len());
    for (r, (cells, ledger)) in built.into_iter().enumerate() {
        let shard = capture.then(|| CaptureShard::new(r, planned.len()));
        regions.push(Region::new(
            cells,
            &spec.admission,
            skeleton.clone(),
            shard,
        )?);
        ledgers.push(ledger);
    }

    // The fleet-wide in-flight budget splits over the on-demand cells;
    // spot cells get the same per-cell budget as elastic headroom.
    let fixed_cells: usize = geo.regions.iter().map(|r| r.shards).sum();
    let ctx = StepCtx {
        per_cell_inflight: spec.max_inflight.max(1).div_ceil(fixed_cells.max(1)),
        router: spec.router,
        priority_ranks,
        steal_margin: spec.steal_margin,
    };
    let threads = spec.threads.unwrap_or(1).max(1).min(regions.len());
    let epoch = SimDuration::from_secs_f64(geo.sync_epoch_s);

    let mut now = SimTime::ZERO;
    let mut arr_idx = 0usize;
    loop {
        let epoch_end = now + epoch;

        // 1. Elastic spot transitions at the boundary, *before* the
        //    load snapshot — the router sees the capacity the epoch
        //    will actually have.
        for ((rs, ledger), spec) in regions.iter_mut().zip(&mut ledgers).zip(&geo.regions) {
            elastic_pass(rs, ledger, spec, geo, now);
        }

        // 2. The sync snapshot every arrival in this epoch routes
        //    against — stale by up to one epoch, like real WAN
        //    telemetry.
        let loads: Vec<RegionLoad> = regions
            .iter()
            .map(|rs| RegionLoad {
                backlog: rs.cells.iter().map(|c| c.backlog()).sum(),
                active_nodes: rs.cells.iter().filter(|c| c.active).map(|c| c.nodes).sum(),
            })
            .collect();

        // 3. Geo-route every arrival in (now, epoch_end]: fix its
        //    origin, serving region and WAN charge, and hand it to the
        //    serving region's epoch buffer.
        while arr_idx < planned.len() && planned[arr_idx].req.at <= epoch_end {
            let at = planned[arr_idx].req.at;
            let t_s = at.as_secs_f64();
            let origin = origin_region(planned[arr_idx].req.id, t_s, &geo.regions, geo.day_s);
            let serving = route_region(geo.policy, origin, &geo.wan, &loads, geo.spill_margin);
            planned[arr_idx].wan_s = geo.wan.wan_latency_s(origin, serving);
            let class_idx = planned[arr_idx].class_idx;
            ledgers[origin].origin_requests += 1;
            regions[origin].classes[class_idx].offered += 1;
            if serving != origin {
                ledgers[origin].escaped_out += 1;
                ledgers[serving].escaped_in += 1;
                ledgers[serving].wan_egress_gb += geo.wan.transfer_gb_per_request();
                ledgers[serving].wan_egress_usd += geo.wan.egress_usd_per_request();
            }
            ledgers[serving].served_requests += 1;
            regions[serving].arrivals.push((at, arr_idx));
            arr_idx += 1;
        }

        // 4. Every region advances to the boundary independently.
        advance_regions(&mut regions, &planned, &ctx, threads, now, epoch_end)?;

        // 5. Each region's tick (advisory rebalancer, then work
        //    stealing) rides the sync cadence.
        for (rs, ledger) in regions.iter_mut().zip(&mut ledgers) {
            region_tick(rs, &planned, &ctx, epoch_end);
            // The spot bill covers the offered-load horizon only. The
            // drain tail's length depends on where the routing policy
            // put the last requests, so billing it would break the
            // equal-cost contract that makes policy sweeps comparable;
            // the predictive schedule itself is already policy-blind.
            if now.as_secs_f64() < spec.horizon_s {
                ledger.spot_node_hours += ledger
                    .spot
                    .iter()
                    .filter(|s| s.active)
                    .map(|s| rs.cells[s.cell].nodes as f64)
                    .sum::<f64>()
                    * epoch.as_secs_f64()
                    / 3600.0;
            }
        }

        now = epoch_end;
        if arr_idx >= planned.len() {
            let idle = regions.iter().all(|rs| {
                rs.cells
                    .iter()
                    .all(|c| c.engine.peek_time().is_none() && !c.has_work())
            });
            if idle {
                break;
            }
            let stalled = regions.iter().any(|rs| {
                rs.cells.iter().any(|c| c.has_work())
                    && rs.cells.iter().all(|c| c.engine.peek_time().is_none())
            });
            if stalled {
                return Err(SimError::InvalidState(
                    "geo serve loop stalled with workflows pending".into(),
                ));
            }
        }
    }

    // Settlement: every region settles into the *global* makespan
    // window so utilization samples agree — each cell is sampled once,
    // and both its region's report and the global one read it — then
    // each region gets its own fleet report and the global one merges
    // everything in region-index order.
    let mut makespan = SimTime::ZERO;
    let mut settled = Vec::with_capacity(regions.len());
    let mut shards = Vec::new();
    for rs in regions {
        let finished = settle_cells(rs.cells, &mut makespan)?;
        settled.push((finished, rs.ctrl.stats(), rs.classes, rs.steals));
        shards.extend(rs.capture);
    }
    for (finished, ..) in &mut settled {
        settle_util(finished, makespan)?;
    }

    let mut region_reports = Vec::with_capacity(settled.len());
    let mut merged_classes = skeleton;
    let mut all_done: Vec<CellDone> = Vec::new();
    let mut adm_total = AdmissionStats::default();
    let mut steals_total = 0u64;
    for (((finished, admission, classes, steals), ledger), region) in
        settled.into_iter().zip(ledgers).zip(&geo.regions)
    {
        for (slot, agg) in merged_classes.iter_mut().zip(&classes) {
            slot.merge(agg);
        }
        adm_total.admitted += admission.admitted;
        adm_total.rejected_rate += admission.rejected_rate;
        adm_total.rejected_deadline += admission.rejected_deadline;
        adm_total.rejected_queue_full += admission.rejected_queue_full;
        steals_total += steals;
        let fleet = assemble_fleet_report(
            ReportParams::new(
                scenario,
                format!("{}/{}", scenario.label, region.name),
                finished.len(),
                ledger.origin_requests,
                admission,
                steals,
            )?,
            classes,
            &finished,
            makespan,
        );
        region_reports.push(GeoRegionReport {
            region: region.name.clone(),
            utc_offset_h: region.utc_offset_h,
            origin_requests: ledger.origin_requests,
            served_requests: ledger.served_requests,
            escaped_out: ledger.escaped_out,
            escaped_in: ledger.escaped_in,
            wan_egress_gb: ledger.wan_egress_gb,
            wan_egress_usd: ledger.wan_egress_usd,
            spot_activations: ledger.spot_activations,
            spot_reclaims: ledger.spot_reclaims,
            spot_node_hours: ledger.spot_node_hours,
            reclaim_migrated: ledger.reclaim_migrated,
            fleet,
        });
        all_done.extend(finished);
    }

    let global = assemble_fleet_report(
        ReportParams::new(
            scenario,
            scenario.label.clone(),
            all_done.len(),
            planned.len() as u64,
            adm_total,
            steals_total,
        )?,
        merged_classes,
        &all_done,
        makespan,
    );
    let sum = |f: fn(&GeoRegionReport) -> f64| region_reports.iter().map(f).sum::<f64>();
    let wan_usd = sum(|r| r.wan_egress_usd);
    let capture = capture.then(|| crate::capture::settle(&planned, shards));
    let report = GeoReport {
        policy: geo.policy.tag().into(),
        sync_epoch_s: geo.sync_epoch_s,
        cross_region_requests: region_reports.iter().map(|r| r.escaped_in).sum(),
        wan_egress_gb: sum(|r| r.wan_egress_gb),
        wan_egress_usd: wan_usd,
        spot_node_hours: sum(|r| r.spot_node_hours),
        spot_reclaims: region_reports.iter().map(|r| r.spot_reclaims).sum(),
        cost_usd: global.cost_usd + wan_usd,
        global,
        regions: region_reports,
    };
    Ok((report, capture))
}
