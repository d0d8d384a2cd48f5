//! A test-side copy of every device's whole utilization series, for the
//! oracles that read a series after the fact.

// Each test crate reads the fields its own oracle needs.
#![allow(dead_code)]

use murakkab_cluster::ClusterManager;
use murakkab_hardware::{DeviceKind, PowerCurve};
use murakkab_sim::SimTime;

/// One device's whole series, as its device recorded it.
#[derive(Debug, Clone)]
pub struct DeviceCopy {
    pub kind: DeviceKind,
    pub capacity: f64,
    pub power: PowerCurve,
    pub points: Vec<(SimTime, f64)>,
}

impl DeviceCopy {
    /// The value at instant `t`, as `TimeSeries::value_at` reads it.
    pub fn value_at(&self, t: SimTime) -> f64 {
        match self.points.binary_search_by(|&(pt, _)| pt.cmp(&t)) {
            Ok(i) => self.points[i].1,
            Err(0) => 0.0,
            Err(i) => self.points[i - 1].1,
        }
    }
}

/// Every device of a cluster, indexed by device id (node then device
/// order, each node's GPUs before its CPU pool).
///
/// The cluster drops the change points its readers are past, so
/// [`sync`](Self::sync) must run after every cluster call. Nothing is
/// lost then: a call records at one instant at or after the frontier,
/// a fold keeps each device's last point at or before the frontier, and
/// only the last point of a series can still change (a record at its
/// instant overwrites it).
#[derive(Debug, Clone, Default)]
pub struct SeriesCopy {
    pub devices: Vec<DeviceCopy>,
}

impl SeriesCopy {
    /// Appends what each device recorded since the last sync.
    pub fn sync(&mut self, cm: &ClusterManager) {
        let devices = cm
            .nodes()
            .iter()
            .flat_map(|n| n.gpus.iter().chain(std::iter::once(&n.cpu)));
        for (i, d) in devices.enumerate() {
            assert_eq!(d.id.raw() as usize, i, "device ids follow node order");
            if i == self.devices.len() {
                self.devices.push(DeviceCopy {
                    kind: d.kind,
                    capacity: d.capacity(),
                    power: d.power_curve(),
                    points: Vec::new(),
                });
            }
            let copy = &mut self.devices[i].points;
            for &(t, v) in d.util_series().points() {
                match copy.last_mut() {
                    Some(last) if t < last.0 => {}
                    Some(last) if t == last.0 => last.1 = v,
                    _ => copy.push((t, v)),
                }
            }
        }
    }

    /// The devices of `kind`, in node then device order.
    pub fn of_kind(&self, kind: DeviceKind) -> impl Iterator<Item = &DeviceCopy> {
        self.devices.iter().filter(move |d| d.kind == kind)
    }
}
