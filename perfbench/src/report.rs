//! Metric tables, operation accounting and the result line.
//!
//! The end-to-end and per-layer tables here are the single statement of
//! which metrics the benchmark reports; `BENCHMARK.json` at the
//! repository root must list the same names and units (a unit test
//! checks it).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: `(name, unit)`. Printed by every untraced run.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ingest_rps", "1/s"),
    ("fresh_p50_ms", "ms"),
    ("fresh_p90_ms", "ms"),
    ("oneshot_mean_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics: `(name, unit)`. Printed by every traced run. The
/// layer is the name's prefix; `README.md` in this directory maps each
/// one to the end-to-end metric and workload it should move.
pub const PER_LAYER: [(&str, &str); 54] = [
    ("service.publish_p50_us", "us"),
    ("service.barrier_p50_us", "us"),
    ("service.bytes_per_reading", "B"),
    ("stage.queue_p50_us", "us"),
    ("stage.queue_p99_us", "us"),
    ("stage.wal_p50_us", "us"),
    ("stage.wal_p99_us", "us"),
    ("stage.apply_p50_us", "us"),
    ("stage.apply_p99_us", "us"),
    ("stage.engine_queue_p50_us", "us"),
    ("stage.engine_queue_p99_us", "us"),
    ("stage.recompute_p50_us", "us"),
    ("stage.recompute_p99_us", "us"),
    ("stage.notify_p50_us", "us"),
    ("stage.notify_p99_us", "us"),
    ("serve.shard_queue_depth_p99", "msgs"),
    ("serve.recomputes_per_publish", "count"),
    ("serve.notify_ratio", "ratio"),
    ("serve.delta_objects_mean", "count"),
    ("store.compactions", "count"),
    ("store.segments_sealed", "count"),
    ("store.scrub_passes", "count"),
    ("tracking.ingest_us_per_reading", "us"),
    ("tracking.wal_bytes_per_reading", "B"),
    ("tracking.ingest_spike_ms", "ms"),
    ("tracking.artree_build_ms", "ms"),
    ("delta.rows_per_object", "count"),
    ("delta.bytes_per_publish", "B"),
    ("engine.ott_build_us", "us"),
    ("core.contrib_snapshot_us", "us"),
    ("core.contrib_distrib_us", "us"),
    ("core.contrib_interval_us", "us"),
    ("core.contrib_longvisit_us", "us"),
    ("core.rank_us", "us"),
    ("uncertainty.snapshot_ur_us", "us"),
    ("uncertainty.interval_ur_us", "us"),
    ("uncertainty.interval_segments", "count"),
    ("geometry.presence_us", "us"),
    ("geometry.probes_per_presence", "count"),
    ("geometry.probes_per_delta", "count"),
    ("join.snapshot_presence_per_query", "count"),
    ("join.interval_presence_per_query", "count"),
    ("join.prune_ratio", "ratio"),
    ("join.rtree_nodes_per_query", "count"),
    ("trace.overhead_pct", "%"),
    ("trace.spans", "count"),
    ("self.service_ms", "ms"),
    ("self.tracking_ms", "ms"),
    ("self.delta_ms", "ms"),
    ("self.engine_ms", "ms"),
    ("self.core_ms", "ms"),
    ("self.uncertainty_ms", "ms"),
    ("self.geometry_ms", "ms"),
    ("self.join_ms", "ms"),
];

/// Attempted and failed operations. Every subscribe, publish, barrier,
/// query and correctness check is one attempt; an error, a refusal, a
/// timeout or a wrong answer is one failure. Nothing is retried.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// Wrong answers among the failures.
    pub wrong: u64,
}

impl Ops {
    /// Accounts one operation; `None` when it failed.
    pub fn run<T, E: std::fmt::Display>(&mut self, what: &str, r: Result<T, E>) -> Option<T> {
        self.attempted += 1;
        match r {
            Ok(v) => Some(v),
            Err(e) => {
                self.failed += 1;
                eprintln!("perfbench: {what} failed: {e}");
                None
            }
        }
    }

    /// Accounts one correctness check; `false` (and a wrong answer) when
    /// it did not hold.
    pub fn check(&mut self, what: &str, r: Result<(), String>) -> bool {
        self.attempted += 1;
        match r {
            Ok(()) => true,
            Err(e) => {
                self.failed += 1;
                self.wrong += 1;
                eprintln!("perfbench: check {what} failed: {e}");
                false
            }
        }
    }

    /// Outputs are correct when nothing failed and at least one
    /// operation ran.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

/// Named metric values of one run.
#[derive(Debug, Default)]
pub struct Metrics(pub BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The result line: every metric of `table`, in table order. A
    /// metric the run did not produce makes the line incorrect rather
    /// than silently missing.
    pub fn result_line(&self, table: &[(&str, &str)], ops: &Ops) -> (String, bool) {
        let mut complete = true;
        let mut body = String::new();
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = match self.get(name) {
                Some(v) if v.is_finite() => v,
                _ => {
                    eprintln!("perfbench: metric {name} was not measured");
                    complete = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(body, "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let correct = complete && ops.correct();
        let line = format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            ops.attempted.max(1),
            ops.failed
        );
        (line, correct)
    }
}

/// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation between order
/// statistics; NaN for an empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_interpolates() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn result_line_marks_missing_metric_incorrect() {
        let mut m = Metrics::default();
        let mut ops = Ops::default();
        ops.run::<(), String>("op", Ok(()));
        m.set("setup_s", 0.5);
        let (_, ok) = m.result_line(&[("setup_s", "s")], &ops);
        assert!(ok);
        let (line, ok) = m.result_line(&[("setup_s", "s"), ("absent", "ms")], &ops);
        assert!(!ok);
        assert!(line.starts_with("{\"correct\": false"));
    }

    #[test]
    fn ops_count_failures_and_wrong_answers() {
        let mut ops = Ops::default();
        assert!(ops.run::<u8, String>("a", Ok(1)).is_some());
        assert!(ops.run::<u8, String>("b", Err("refused".into())).is_none());
        assert!(!ops.check("c", Err("mismatch".into())));
        assert_eq!((ops.attempted, ops.failed, ops.wrong), (3, 2, 1));
        assert!(!ops.correct());
    }
}
