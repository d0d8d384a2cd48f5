//! Multi-region federation model: the pure, executor-free layer under
//! the core geo serve loop.
//!
//! A [`GeoSpec`] composes a set of [`RegionSpec`]s (each wrapping one
//! fleet's cluster + cell knobs) with a [`WanModel`] (inter-region RTT
//! matrix, bulk bandwidth and egress pricing — the wide-area analogue
//! of the intra-node interconnect model that prices KV transfer in
//! disaggregated serving), a [`GeoPolicy`] routing requests from their
//! origin region to a serving region, and an optional [`ElasticSpec`]
//! driving spot/preemptible node pools per region.
//!
//! Everything here is deterministic and side-effect free: origin
//! assignment hashes the request id, the diurnal activity curve is a
//! closed-form function of simulated time, and spot availability rides
//! `murakkab_hardware`'s seeded [`SpotTrace`] renewal process. The core
//! crate owns the actual per-region engines; this crate owns the
//! decisions.
//!
//! [`SpotTrace`]: murakkab_hardware::SpotTrace

use serde::{Deserialize, Serialize};

use murakkab_sim::SimError;

/// Activity floor of the diurnal origin curve: a region at local
/// midnight still originates this fraction of its daytime-peak traffic
/// (global products are never fully dark anywhere).
pub const DIURNAL_FLOOR: f64 = 0.15;

/// Seconds of queueing penalty per unit of backlog-per-node that the
/// latency-weighted router trades against WAN RTT.
pub const QUEUE_WEIGHT_S: f64 = 1.0;

/// The wide-area network joining the regions: a symmetric RTT matrix
/// plus a bulk-bandwidth and egress-pricing model for the request and
/// response payloads a cross-region assignment ships.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WanModel {
    /// Round-trip time in milliseconds between region `i` and region
    /// `j`. Must be square (one row per region), symmetric, finite,
    /// non-negative and zero on the diagonal.
    pub rtt_ms: Vec<Vec<f64>>,
    /// Effective inter-region bulk bandwidth in gigabits per second
    /// (shared-path model: one figure for every pair).
    pub bandwidth_gbps: f64,
    /// Egress price in dollars per (decimal) gigabyte, charged on every
    /// byte a cross-region assignment moves in either direction.
    pub egress_usd_per_gb: f64,
    /// Megabytes shipped origin → serving region per cross-region
    /// request (prompt, context, KV prefix).
    pub request_mb: f64,
    /// Megabytes shipped serving → origin region per cross-region
    /// response (tokens, artifacts).
    pub response_mb: f64,
}

impl WanModel {
    /// A uniform mesh: `rtt_ms` between every distinct pair, with
    /// defaults for bandwidth (100 Gb/s), egress ($0.08/GB) and payload
    /// sizes (2 MB up, 1 MB down).
    pub fn uniform(regions: usize, rtt_ms: f64) -> Self {
        let row = |i: usize| {
            (0..regions)
                .map(|j| if i == j { 0.0 } else { rtt_ms })
                .collect()
        };
        WanModel {
            rtt_ms: (0..regions).map(row).collect(),
            bandwidth_gbps: 100.0,
            egress_usd_per_gb: 0.08,
            request_mb: 2.0,
            response_mb: 1.0,
        }
    }

    /// One-way propagation + serialization delay in seconds for routing
    /// a request from `origin` to `serving` and streaming its response
    /// back: the full RTT (request out, first token back) plus the bulk
    /// transfer time of both payloads at the shared bandwidth. Zero for
    /// same-region assignments.
    pub fn wan_latency_s(&self, origin: usize, serving: usize) -> f64 {
        if origin == serving {
            return 0.0;
        }
        self.rtt_s(origin, serving) + self.transfer_s(self.request_mb + self.response_mb)
    }

    /// The RTT matrix entry in seconds.
    pub fn rtt_s(&self, a: usize, b: usize) -> f64 {
        self.rtt_ms[a][b] / 1000.0
    }

    /// Bulk transfer time of `mb` megabytes at the shared bandwidth.
    pub fn transfer_s(&self, mb: f64) -> f64 {
        if self.bandwidth_gbps <= 0.0 {
            return 0.0;
        }
        // MB → megabits → seconds at gigabits/second.
        mb * 8.0 / (self.bandwidth_gbps * 1000.0)
    }

    /// Decimal gigabytes a single cross-region assignment moves.
    pub fn transfer_gb_per_request(&self) -> f64 {
        (self.request_mb + self.response_mb) / 1000.0
    }

    /// Egress dollars a single cross-region assignment costs.
    pub fn egress_usd_per_request(&self) -> f64 {
        self.transfer_gb_per_request() * self.egress_usd_per_gb
    }

    /// Every structural problem with this WAN model for a topology of
    /// `regions` regions, as `(path, message)` pairs (empty = valid).
    pub fn problems(&self, regions: usize) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut push = |path: &str, msg: String| out.push((path.to_string(), msg));
        if self.rtt_ms.len() != regions {
            push(
                "wan.rtt_ms",
                format!("{} rows for {regions} regions", self.rtt_ms.len()),
            );
            return out;
        }
        for (i, row) in self.rtt_ms.iter().enumerate() {
            if row.len() != regions {
                push(
                    "wan.rtt_ms",
                    format!("row {i} has {} entries for {regions} regions", row.len()),
                );
                return out;
            }
        }
        for i in 0..regions {
            for j in 0..regions {
                let v = self.rtt_ms[i][j];
                if !v.is_finite() {
                    push("wan.rtt_ms", format!("rtt[{i}][{j}] = {v} is not finite"));
                } else if v < 0.0 {
                    push("wan.rtt_ms", format!("rtt[{i}][{j}] = {v} is negative"));
                } else if i == j && v != 0.0 {
                    push("wan.rtt_ms", format!("rtt[{i}][{i}] = {v} on the diagonal"));
                } else if j > i && self.rtt_ms[j][i] != v {
                    push(
                        "wan.rtt_ms",
                        format!(
                            "asymmetric: rtt[{i}][{j}] = {v} but rtt[{j}][{i}] = {}",
                            self.rtt_ms[j][i]
                        ),
                    );
                }
            }
        }
        if !self.bandwidth_gbps.is_finite() || self.bandwidth_gbps <= 0.0 {
            push(
                "wan.bandwidth_gbps",
                format!("{} must be finite and positive", self.bandwidth_gbps),
            );
        }
        for (path, v) in [
            ("wan.egress_usd_per_gb", self.egress_usd_per_gb),
            ("wan.request_mb", self.request_mb),
            ("wan.response_mb", self.response_mb),
        ] {
            if !v.is_finite() || v < 0.0 {
                push(path, format!("{v} must be finite and non-negative"));
            }
        }
        out
    }
}

/// One region of the federation: a slice of the scenario's cluster
/// shape run as its own fleet of cells, plus the knobs the geo layer
/// needs (where it sits in the day, how much traffic originates there,
/// how much spot capacity it may flex).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegionSpec {
    /// Region name, e.g. `"us-east"`. Must be unique within the spec.
    pub name: String,
    /// On-demand (always-on) nodes of the scenario's VM shape.
    pub nodes: usize,
    /// Engine cells the on-demand nodes are partitioned into.
    pub shards: usize,
    /// Spot/preemptible nodes this region may flex up to, run as
    /// [`spot_slots`](Self::spot_slots) whole cells that the elastic
    /// controller activates ahead of the local diurnal peak and the
    /// availability trace may reclaim.
    pub spot_nodes: usize,
    /// Local-time offset from the simulation clock in hours: the
    /// region's diurnal activity peaks mid-local-day.
    pub utc_offset_h: f64,
    /// Relative share of global arrivals originating here (normalized
    /// across regions; must be positive and finite).
    pub arrival_weight: f64,
}

impl RegionSpec {
    /// A region with `nodes` on-demand nodes in `shards` cells, unit
    /// arrival weight, no spot pool, at UTC.
    pub fn new(name: &str, nodes: usize, shards: usize) -> Self {
        RegionSpec {
            name: name.into(),
            nodes,
            shards,
            spot_nodes: 0,
            utc_offset_h: 0.0,
            arrival_weight: 1.0,
        }
    }

    /// Sets the local-time offset in hours.
    #[must_use]
    pub fn utc_offset_h(mut self, h: f64) -> Self {
        self.utc_offset_h = h;
        self
    }

    /// Sets the origin arrival weight.
    #[must_use]
    pub fn arrival_weight(mut self, w: f64) -> Self {
        self.arrival_weight = w;
        self
    }

    /// Sets the spot-node pool size.
    #[must_use]
    pub fn spot_nodes(mut self, n: usize) -> Self {
        self.spot_nodes = n;
        self
    }

    /// Nodes per engine cell: the on-demand nodes split over the shards
    /// (at least one). A spot slot is a whole cell of this size.
    pub fn cell_nodes(&self) -> usize {
        (self.nodes / self.shards.max(1)).max(1)
    }

    /// Spot cells the pool materializes under an elastic spec: whole
    /// cells only (a fractional cell cannot host the agent set), so a
    /// remainder of [`spot_nodes`](Self::spot_nodes) stays idle.
    pub fn spot_slots(&self) -> usize {
        self.spot_nodes / self.cell_nodes()
    }
}

/// How the geo layer picks a serving region for each arriving request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum GeoPolicy {
    /// Always serve in the origin region (zero WAN latency, oblivious
    /// to load — the baseline every other policy is measured against).
    NearestRegion,
    /// Score every region by modeled WAN latency plus a queueing
    /// penalty proportional to its backlog-per-node, and pick the
    /// minimum: latency-aware *and* load-aware.
    LatencyWeighted,
    /// Serve wherever backlog-per-node is lowest right now — chases
    /// idle (night-side) capacity around the planet, ignoring WAN cost.
    FollowTheSun,
    /// Serve at home until the origin's backlog-per-node exceeds the
    /// spill margin, then overflow to the least-loaded other region
    /// (WAN RTT breaks ties).
    Spillover,
}

impl GeoPolicy {
    /// Every policy, in a fixed order (bench sweeps iterate this).
    pub const ALL: [GeoPolicy; 4] = [
        GeoPolicy::NearestRegion,
        GeoPolicy::LatencyWeighted,
        GeoPolicy::FollowTheSun,
        GeoPolicy::Spillover,
    ];

    /// Stable lowercase tag for reports and bench artifacts.
    pub fn tag(self) -> &'static str {
        match self {
            GeoPolicy::NearestRegion => "nearest-region",
            GeoPolicy::LatencyWeighted => "latency-weighted",
            GeoPolicy::FollowTheSun => "follow-the-sun",
            GeoPolicy::Spillover => "spillover",
        }
    }
}

/// Elastic spot-capacity knobs shared by every region's spot pool.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ElasticSpec {
    /// Mean up-time of a spot node before the platform reclaims it, in
    /// seconds (the availability trace's exponential up-interval mean).
    pub mean_up_s: f64,
    /// Mean outage after a reclaim before equivalent capacity returns.
    pub mean_down_s: f64,
    /// Predictive lead: the autoscaler provisions for the diurnal curve
    /// this many seconds ahead of now instead of reacting to backlog.
    pub lead_s: f64,
    /// Spot price as a fraction of the on-demand rate (reporting knob;
    /// spot node-hours are billed at `on_demand × this`).
    pub price_factor: f64,
}

impl Default for ElasticSpec {
    fn default() -> Self {
        ElasticSpec {
            mean_up_s: 2_400.0,
            mean_down_s: 600.0,
            lead_s: 300.0,
            price_factor: 0.35,
        }
    }
}

/// The full federation spec a `Scenario` embeds: regions, the WAN
/// joining them, the routing policy above the cell routers, and the
/// elastic-capacity model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeoSpec {
    /// The regions. Non-empty; names unique.
    pub regions: Vec<RegionSpec>,
    /// The WAN model joining them.
    pub wan: WanModel,
    /// Geo-routing policy.
    pub policy: GeoPolicy,
    /// Cadence at which regions exchange telemetry and the geo router
    /// refreshes its load snapshot; arrivals between syncs route on the
    /// last snapshot (stale by up to one epoch — the modeled WAN
    /// telemetry delay).
    pub sync_epoch_s: f64,
    /// Length of the modeled day driving the diurnal origin curve, in
    /// seconds. Short horizons use a compressed day so a bench sweep
    /// still sees the sun move.
    pub day_s: f64,
    /// Backlog-per-node threshold beyond which the spillover policy
    /// overflows away from the origin region.
    pub spill_margin: f64,
    /// Elastic spot-capacity model; `None` pins every region to its
    /// on-demand nodes.
    pub elastic: Option<ElasticSpec>,
}

impl GeoSpec {
    /// A spec over `regions` with a uniform 80 ms WAN mesh, 60 s sync
    /// epochs, a 24 h day and the latency-weighted policy.
    pub fn new(regions: Vec<RegionSpec>) -> Self {
        let n = regions.len();
        GeoSpec {
            regions,
            wan: WanModel::uniform(n, 80.0),
            policy: GeoPolicy::LatencyWeighted,
            sync_epoch_s: 60.0,
            day_s: 86_400.0,
            spill_margin: 4.0,
            elastic: None,
        }
    }

    /// The canonical three-region follow-the-sun topology (Americas /
    /// Europe / Asia, 8 h apart, measured RTT-ish mesh), `nodes` +
    /// `spot` nodes per region in `shards` cells.
    pub fn three_region(nodes: usize, shards: usize, spot: usize) -> Self {
        let mk = |name: &str, offset: f64| {
            RegionSpec::new(name, nodes, shards)
                .utc_offset_h(offset)
                .spot_nodes(spot)
        };
        let mut spec = GeoSpec::new(vec![
            mk("us-east", 0.0),
            mk("eu-west", 8.0),
            mk("ap-south", 16.0),
        ]);
        spec.wan.rtt_ms = vec![
            vec![0.0, 80.0, 220.0],
            vec![80.0, 0.0, 140.0],
            vec![220.0, 140.0, 0.0],
        ];
        if spot > 0 {
            spec.elastic = Some(ElasticSpec::default());
        }
        spec
    }

    /// Sets the geo-routing policy.
    #[must_use]
    pub fn policy(mut self, policy: GeoPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Sets the modeled day length (compressed days make short-horizon
    /// benches see a full diurnal cycle).
    #[must_use]
    pub fn day_s(mut self, s: f64) -> Self {
        self.day_s = s;
        self
    }

    /// Sets the telemetry sync cadence.
    #[must_use]
    pub fn sync_epoch_s(mut self, s: f64) -> Self {
        self.sync_epoch_s = s;
        self
    }

    /// Sets the elastic spot-capacity model.
    #[must_use]
    pub fn elastic(mut self, spec: ElasticSpec) -> Self {
        self.elastic = Some(spec);
        self
    }

    /// Total on-demand nodes across regions.
    pub fn total_nodes(&self) -> usize {
        self.regions.iter().map(|r| r.nodes).sum()
    }

    /// Every structural problem with this spec, as `(path, message)`
    /// pairs (empty = valid). The core analyzer maps these onto typed
    /// diagnostics; [`GeoSpec::validate`] fails on the first.
    pub fn problems(&self) -> Vec<(String, String)> {
        let mut out = Vec::new();
        let mut push = |path: String, msg: String| out.push((path, msg));
        if self.regions.is_empty() {
            push("geo.regions".into(), "no regions declared".into());
            return out;
        }
        for (i, r) in self.regions.iter().enumerate() {
            let path = |field: &str| format!("geo.regions[{i}].{field}");
            if r.name.is_empty() {
                push(path("name"), "empty region name".into());
            }
            if self.regions[..i].iter().any(|o| o.name == r.name) {
                push(path("name"), format!("duplicate region name {:?}", r.name));
            }
            if r.nodes == 0 {
                push(path("nodes"), "region has no on-demand nodes".into());
            }
            if r.shards == 0 || r.shards > r.nodes.max(1) {
                push(
                    path("shards"),
                    format!("{} cells over {} nodes", r.shards, r.nodes),
                );
            }
            if !r.arrival_weight.is_finite() || r.arrival_weight <= 0.0 {
                push(
                    path("arrival_weight"),
                    format!("{} must be finite and positive", r.arrival_weight),
                );
            }
            if !r.utc_offset_h.is_finite() {
                push(path("utc_offset_h"), "offset is not finite".into());
            }
        }
        for (path, msg) in self.wan.problems(self.regions.len()) {
            push(format!("geo.{path}"), msg);
        }
        for (path, v) in [
            ("geo.sync_epoch_s", self.sync_epoch_s),
            ("geo.day_s", self.day_s),
        ] {
            if !v.is_finite() || v <= 0.0 {
                push(path.into(), format!("{v} must be finite and positive"));
            }
        }
        if !self.spill_margin.is_finite() || self.spill_margin < 0.0 {
            push(
                "geo.spill_margin".into(),
                format!("{} must be finite and non-negative", self.spill_margin),
            );
        }
        if let Some(e) = &self.elastic {
            for (path, v) in [
                ("geo.elastic.mean_up_s", e.mean_up_s),
                ("geo.elastic.mean_down_s", e.mean_down_s),
            ] {
                if !v.is_finite() || v <= 0.0 {
                    push(path.into(), format!("{v} must be finite and positive"));
                }
            }
            if !e.lead_s.is_finite() || e.lead_s < 0.0 {
                push(
                    "geo.elastic.lead_s".into(),
                    format!("{} must be finite and non-negative", e.lead_s),
                );
            }
            if !e.price_factor.is_finite() || !(0.0..=1.0).contains(&e.price_factor) {
                push(
                    "geo.elastic.price_factor".into(),
                    format!("{} must be in [0, 1]", e.price_factor),
                );
            }
        }
        out
    }

    /// Fails with [`SimError::InvalidInput`] on the first structural
    /// problem.
    ///
    /// # Errors
    ///
    /// The first entry of [`GeoSpec::problems`], rendered as
    /// `path: message`.
    pub fn validate(&self) -> Result<(), SimError> {
        match self.problems().into_iter().next() {
            None => Ok(()),
            Some((path, msg)) => Err(SimError::InvalidInput(format!("{path}: {msg}"))),
        }
    }
}

/// Local diurnal activity of a region at simulated instant `t_s`:
/// `sin²(π · local-day-fraction)` — 0 at local midnight, 1 at local
/// noon — mirroring the traffic crate's diurnal arrival-rate shape.
pub fn diurnal_factor(t_s: f64, utc_offset_h: f64, day_s: f64) -> f64 {
    let frac = t_s / day_s + utc_offset_h / 24.0;
    (std::f64::consts::PI * frac).sin().powi(2)
}

/// A region's unnormalized origin weight at `t_s`: its static arrival
/// weight scaled by the floored diurnal activity of its local time.
pub fn origin_weight(region: &RegionSpec, t_s: f64, day_s: f64) -> f64 {
    region.arrival_weight
        * (DIURNAL_FLOOR + (1.0 - DIURNAL_FLOOR) * diurnal_factor(t_s, region.utc_offset_h, day_s))
}

/// Deterministically assigns an origin region to request `req_id`
/// arriving at `t_s`: a Fibonacci-style hash of the id (decorrelated
/// from the cell router's multiplier) maps to a unit float, then a
/// weighted draw over the regions' time-of-day origin weights. Works
/// identically for generated and replayed arrival streams — origin is
/// a pure function of `(id, t)`, which is what lets a captured
/// single-region trace replay counterfactually across regions.
pub fn origin_region(req_id: u64, t_s: f64, regions: &[RegionSpec], day_s: f64) -> usize {
    debug_assert!(!regions.is_empty());
    let h = (req_id ^ 0x5851_F42D_4C95_7F2D).wrapping_mul(0xD1B5_4A32_D192_ED03);
    let unit = (h >> 11) as f64 / (1u64 << 53) as f64;
    let total: f64 = regions.iter().map(|r| origin_weight(r, t_s, day_s)).sum();
    let mut acc = 0.0;
    for (i, r) in regions.iter().enumerate() {
        acc += origin_weight(r, t_s, day_s);
        if unit * total < acc {
            return i;
        }
    }
    regions.len() - 1
}

/// One region's load snapshot at the last sync epoch: what the geo
/// router sees (stale by up to one epoch, like real WAN telemetry).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegionLoad {
    /// Queued + in-flight workflows across the region's cells.
    pub backlog: usize,
    /// Active nodes (on-demand plus live spot) — the normalizer that
    /// makes backlog comparable across differently-sized regions.
    pub active_nodes: usize,
}

impl RegionLoad {
    /// Backlog per active node (`INFINITY` for a fully-reclaimed
    /// region, so routing never picks a region with zero capacity).
    pub fn pressure(&self) -> f64 {
        if self.active_nodes == 0 {
            f64::INFINITY
        } else {
            self.backlog as f64 / self.active_nodes as f64
        }
    }
}

/// Picks the serving region for a request originating in `origin`
/// under `policy`, given the last sync snapshot. Deterministic: ties
/// break to the lowest region index via strict-less comparisons.
pub fn route_region(
    policy: GeoPolicy,
    origin: usize,
    wan: &WanModel,
    loads: &[RegionLoad],
    spill_margin: f64,
) -> usize {
    debug_assert!(origin < loads.len());
    let argmin = |score: &dyn Fn(usize) -> f64| {
        let mut best = 0usize;
        for i in 1..loads.len() {
            if score(i).total_cmp(&score(best)).is_lt() {
                best = i;
            }
        }
        best
    };
    match policy {
        GeoPolicy::NearestRegion => origin,
        GeoPolicy::LatencyWeighted => {
            argmin(&|i: usize| wan.wan_latency_s(origin, i) + loads[i].pressure() * QUEUE_WEIGHT_S)
        }
        GeoPolicy::FollowTheSun => {
            // Pure pressure chase; RTT from the origin breaks exact
            // pressure ties so the choice is still stable and sane.
            argmin(&|i: usize| loads[i].pressure() + wan.rtt_s(origin, i) * 1e-9)
        }
        GeoPolicy::Spillover => {
            if loads[origin].pressure() <= spill_margin {
                return origin;
            }
            argmin(&|i: usize| loads[i].pressure() + wan.rtt_s(origin, i) * 1e-9)
        }
    }
}

/// Spot nodes a region should have active to be provisioned ahead of
/// its diurnal curve: the pool scaled by the floored activity factor at
/// `t_s + lead_s`, rounded half-up. Purely predictive — no backlog
/// term — so capacity (and therefore cost) is identical across routing
/// policies, which is what makes policy A/B comparisons equal-cost.
pub fn desired_spot_nodes(region: &RegionSpec, t_s: f64, lead_s: f64, day_s: f64) -> usize {
    if region.spot_nodes == 0 {
        return 0;
    }
    let f = DIURNAL_FLOOR
        + (1.0 - DIURNAL_FLOOR) * diurnal_factor(t_s + lead_s, region.utc_offset_h, day_s);
    ((region.spot_nodes as f64 * f) + 0.5).floor() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn three() -> GeoSpec {
        GeoSpec::three_region(2, 2, 1)
    }

    #[test]
    fn three_region_spec_is_valid() {
        assert_eq!(three().problems(), Vec::new());
        three().validate().unwrap();
    }

    #[test]
    fn empty_regions_rejected() {
        let spec = GeoSpec::new(Vec::new());
        let probs = spec.problems();
        assert_eq!(probs.len(), 1);
        assert_eq!(probs[0].0, "geo.regions");
        assert!(spec.validate().is_err());
    }

    #[test]
    fn asymmetric_and_nan_rtt_rejected() {
        let mut spec = three();
        spec.wan.rtt_ms[0][1] = 99.0; // [1][0] stays 80.0
        assert!(spec
            .problems()
            .iter()
            .any(|(p, m)| p == "geo.wan.rtt_ms" && m.contains("asymmetric")));
        let mut spec = three();
        spec.wan.rtt_ms[2][1] = f64::NAN;
        spec.wan.rtt_ms[1][2] = f64::NAN;
        assert!(spec
            .problems()
            .iter()
            .any(|(p, m)| p == "geo.wan.rtt_ms" && m.contains("not finite")));
    }

    #[test]
    fn bad_region_knobs_rejected() {
        let mut spec = three();
        spec.regions[1].nodes = 0;
        assert!(spec.problems().iter().any(|(p, _)| p.contains("nodes")));
        let mut spec = three();
        spec.regions[0].arrival_weight = -1.0;
        assert!(spec.validate().is_err());
        let mut spec = three();
        spec.regions[2].name = spec.regions[0].name.clone();
        assert!(spec.problems().iter().any(|(_, m)| m.contains("duplicate")));
    }

    #[test]
    fn wan_latency_is_symmetric_zero_at_home() {
        let spec = three();
        assert_eq!(spec.wan.wan_latency_s(1, 1), 0.0);
        let ab = spec.wan.wan_latency_s(0, 2);
        let ba = spec.wan.wan_latency_s(2, 0);
        assert!(ab > 0.2 && (ab - ba).abs() < 1e-12);
    }

    #[test]
    fn diurnal_factor_peaks_mid_day_and_wraps() {
        let day = 86_400.0;
        // Offset 12 h => local noon at t = 0? frac = 0.5 => sin²(π/2)=1.
        assert!((diurnal_factor(0.0, 12.0, day) - 1.0).abs() < 1e-12);
        assert!(diurnal_factor(0.0, 0.0, day) < 1e-12);
        // Periodic in one day.
        let a = diurnal_factor(10_000.0, 5.0, day);
        let b = diurnal_factor(10_000.0 + day, 5.0, day);
        assert!((a - b).abs() < 1e-9);
    }

    #[test]
    fn origins_follow_the_sun() {
        let spec = three();
        // When us-east (offset 0) is at local noon (t = day/2), it
        // should originate the plurality of requests.
        let day = spec.day_s;
        let mut counts = [0usize; 3];
        for id in 0..3000u64 {
            counts[origin_region(id, day / 2.0, &spec.regions, day)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[0] > counts[2], "{counts:?}");
        // A third of a day later the sun (and the plurality) moved to
        // the next region along the offset ring: ap-south peaks at
        // `t/day ≡ 0.5 - 16/24 (mod 1)`.
        let mut counts = [0usize; 3];
        for id in 0..3000u64 {
            counts[origin_region(id, day / 2.0 + day / 3.0, &spec.regions, day)] += 1;
        }
        assert!(counts[2] > counts[0] && counts[2] > counts[1], "{counts:?}");
    }

    #[test]
    fn routing_policies_behave() {
        let spec = three();
        let idle = RegionLoad {
            backlog: 0,
            active_nodes: 2,
        };
        let hot = RegionLoad {
            backlog: 40,
            active_nodes: 2,
        };
        // Nearest always stays home, even when home is melting.
        assert_eq!(
            route_region(
                GeoPolicy::NearestRegion,
                0,
                &spec.wan,
                &[hot, idle, idle],
                4.0
            ),
            0
        );
        // Latency-weighted escapes a melting home region, and among the
        // idle alternatives pays the smaller RTT (eu-west at 80 ms, not
        // ap-south at 220 ms).
        assert_eq!(
            route_region(
                GeoPolicy::LatencyWeighted,
                0,
                &spec.wan,
                &[hot, idle, idle],
                4.0
            ),
            1,
            "nearer idle region wins over farther idle region"
        );
        // ...but does not pay 80 ms to dodge a sub-RTT queue.
        let warm = RegionLoad {
            backlog: 1,
            active_nodes: 20,
        };
        assert_eq!(
            route_region(
                GeoPolicy::LatencyWeighted,
                0,
                &spec.wan,
                &[warm, idle, idle],
                4.0
            ),
            0
        );
        // Follow-the-sun chases the idlest region outright, even for
        // that same trivial home queue.
        assert_eq!(
            route_region(
                GeoPolicy::FollowTheSun,
                0,
                &spec.wan,
                &[warm, idle, idle],
                4.0
            ),
            1
        );
        // Spillover stays home under the margin, overflows past it.
        assert_eq!(
            route_region(GeoPolicy::Spillover, 0, &spec.wan, &[warm, idle, idle], 4.0),
            0
        );
        assert_eq!(
            route_region(GeoPolicy::Spillover, 0, &spec.wan, &[hot, idle, idle], 4.0),
            1
        );
        // A fully-reclaimed region is never chosen by the load-aware
        // policies.
        let dead = RegionLoad {
            backlog: 0,
            active_nodes: 0,
        };
        for policy in [GeoPolicy::LatencyWeighted, GeoPolicy::FollowTheSun] {
            assert_ne!(
                route_region(policy, 0, &spec.wan, &[hot, dead, idle], 4.0),
                1,
                "{policy:?} picked a zero-capacity region"
            );
        }
    }

    #[test]
    fn predictive_spot_scales_with_the_local_day() {
        let r = RegionSpec::new("r", 2, 2).spot_nodes(4);
        let day = 86_400.0;
        // Local noon: full pool. Local midnight: floored pool.
        let noon = desired_spot_nodes(&r, day / 2.0, 0.0, day);
        let midnight = desired_spot_nodes(&r, 0.0, 0.0, day);
        assert_eq!(noon, 4);
        assert!(midnight <= 1, "floored to {midnight}");
        // A lead looks ahead: just before noon with a lead reaching
        // noon equals the noon answer.
        assert_eq!(desired_spot_nodes(&r, day / 2.0 - 600.0, 600.0, day), noon);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = three().policy(GeoPolicy::Spillover).day_s(3_600.0);
        let json = serde_json::to_string(&spec).unwrap();
        let back: GeoSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(spec, back);
    }
}
