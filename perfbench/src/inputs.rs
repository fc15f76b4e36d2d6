//! Workload definitions and their seeded inputs.
//!
//! Every input comes from the repository's synthetic generator (a
//! floor plan with uniform movement). The same seed always gives the
//! same inputs.

use inflow_service::{SubKind, SubSpec};
use inflow_tracking::{ObjectTrackingTable, OttRow, RawReading};
use inflow_uncertainty::{IndoorContext, UrConfig};
use inflow_workload::{generate_synthetic, SyntheticConfig, Workload};
use std::sync::Arc;

/// Top-k size of every query and subscription.
pub const K: usize = 10;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    ServeSnapshot,
    ServeWindow,
}

impl Name {
    pub const ALL: [Name; 2] = [Name::ServeSnapshot, Name::ServeWindow];

    pub fn parse(s: &str) -> Option<Name> {
        Name::ALL.into_iter().find(|n| n.as_str() == s)
    }

    pub fn as_str(self) -> &'static str {
        match self {
            Name::ServeSnapshot => "serve-snapshot",
            Name::ServeWindow => "serve-window",
        }
    }
}

/// Sizes of one workload. `smoke` shrinks them for the unit tests.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    pub name: Name,
    pub objects: usize,
    /// Simulated duration, seconds.
    pub duration: f64,
    /// Readings per publish.
    pub publish: usize,
    /// One read (a snapshot and an interval one-shot query) after this
    /// many publishes.
    pub read_every: usize,
    /// Length of the interval of each read, seconds.
    pub read_window: f64,
    /// Snapshot + interval join query pairs of the traced run.
    pub join_pairs: usize,
    /// The traced run replays the deltas of each object whose id is a
    /// multiple of this through the per-object primitives ...
    pub sample_every: usize,
    /// ... the window-wide kinds only on every this-many-th delta.
    pub heavy_every: usize,
}

impl Shape {
    pub fn of(name: Name, smoke: bool) -> Shape {
        let s = match name {
            Name::ServeSnapshot => Shape {
                name,
                objects: 300,
                duration: 2400.0,
                publish: 128,
                read_every: 50,
                read_window: 10.0,
                join_pairs: 6,
                sample_every: 100,
                heavy_every: 25,
            },
            Name::ServeWindow => Shape {
                name,
                objects: 96,
                duration: 60.0,
                publish: 16,
                read_every: 2,
                read_window: 10.0,
                join_pairs: 6,
                sample_every: 5,
                heavy_every: 1,
            },
        };
        if !smoke {
            return s;
        }
        Shape {
            objects: (s.objects / 10).max(8),
            duration: (s.duration / 6.0).min(600.0),
            read_every: 3,
            join_pairs: 1,
            sample_every: 4,
            ..s
        }
    }

    /// The continuous subscriptions of the workload.
    pub fn subscriptions(&self) -> Vec<SubSpec> {
        let end = self.duration;
        let kinds = match self.name {
            Name::ServeSnapshot => {
                vec![SubKind::Snapshot { t: end }, SubKind::Distrib { t: end, kq: 2, kmax: 32 }]
            }
            Name::ServeWindow => vec![
                SubKind::Interval { ts: 0.0, te: end },
                SubKind::LongVisit { ts: 0.0, te: end, d: end / 8.0 },
            ],
        };
        kinds
            .into_iter()
            .map(|kind| SubSpec { kind, k: K, epsilon: 0.0, pois: Vec::new() })
            .collect()
    }
}

/// One workload's generated inputs.
pub struct Inputs {
    pub ctx: Arc<IndoorContext>,
    /// The generator's merged tracking rows.
    pub rows: Vec<OttRow>,
    pub vmax: f64,
    /// The raw reading stream a reader gateway would publish: each
    /// record's endpoints, in time order.
    pub stream: Vec<RawReading>,
}

impl Inputs {
    pub fn generate(shape: &Shape, seed: u64) -> Inputs {
        Inputs::from_workload(generate_synthetic(&SyntheticConfig {
            num_objects: shape.objects,
            duration: shape.duration,
            seed,
            ..SyntheticConfig::default()
        }))
    }

    /// A generated workload's rows and the reading stream they came
    /// from.
    pub fn from_workload(w: Workload) -> Inputs {
        let rows: Vec<OttRow> = w
            .ott
            .records()
            .iter()
            .map(|r| OttRow { object: r.object, device: r.device, ts: r.ts, te: r.te })
            .collect();
        let mut stream: Vec<RawReading> = Vec::with_capacity(rows.len() * 2);
        for r in &rows {
            stream.push(RawReading { object: r.object, device: r.device, t: r.ts });
            if r.te > r.ts {
                stream.push(RawReading { object: r.object, device: r.device, t: r.te });
            }
        }
        stream.sort_by(|a, b| a.t.total_cmp(&b.t).then_with(|| a.object.cmp(&b.object)));
        Inputs { ctx: w.ctx, rows, vmax: w.vmax, stream }
    }

    pub fn ur_config(&self) -> UrConfig {
        UrConfig { vmax: self.vmax, ..UrConfig::default() }
    }

    /// A fresh tracking table over the generator's rows.
    pub fn ott(&self) -> ObjectTrackingTable {
        ObjectTrackingTable::from_rows(self.rows.clone()).expect("generated rows form a table")
    }
}
