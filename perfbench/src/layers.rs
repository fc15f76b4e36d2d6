//! The traced run: per-layer work counts and times.
//!
//! Server stages come from the server's own `METRICS` snapshot. The
//! tracking, delta, core, uncertainty and geometry layers are replayed
//! through their public functions with spans around each call: the
//! stream is split per shard the way the router splits it and ingested
//! through `IngestStore` with the server's store options, each publish
//! rebuilds the per-object row sets a shard ships, and a sample of
//! objects gets every delta recomputed for all four subscription kinds.

use crate::compare;
use crate::inputs::{Inputs, Shape};
use crate::report::{mean, median, ratio, Metrics, Ops};
use crate::serve;
use crate::spans::Spans;
use inflow_core::{
    object_interval_flows, object_snapshot_flows, rank_topk, DistribState, DwellState,
    FlowAnalytics, IntervalQuery, QueryStats, SnapshotQuery,
};
use inflow_geometry::Region;
use inflow_indoor::PoiId;
use inflow_obs::Json;
use inflow_rtree::RTree;
use inflow_service::protocol::encode_publish;
use inflow_tracking::{
    ArTree, IngestStore, ObjectId, ObjectState, ObjectTrackingTable, OnlineTracker, OttRow,
    RawReading, StdFs, StoreOptions,
};
use inflow_uncertainty::UrEngine;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::path::Path;
use std::time::Instant;

/// Shards of the server (`ServeConfig::new` default), and so of the
/// tracking replay.
const SHARDS: usize = 2;

// ───────────────────────── service and server stages ─────────────────────

/// Quantile `q` of a `METRICS` histogram, interpolated linearly inside
/// the log₂ bucket that holds it (the snapshot's own `p50`/`p99` are
/// bucket bounds, too coarse to compare runs).
fn histogram_quantile(h: &Json, q: f64) -> f64 {
    let Some(buckets) = h.get("buckets").and_then(Json::as_arr) else { return 0.0 };
    let parsed: Vec<(f64, f64, f64)> = buckets
        .iter()
        .filter_map(|b| {
            Some((b.get("lo")?.as_f64()?, b.get("hi")?.as_f64()?, b.get("n")?.as_f64()?))
        })
        .collect();
    let total: f64 = parsed.iter().map(|b| b.2).sum();
    if total == 0.0 {
        return 0.0;
    }
    let rank = q * total;
    let mut seen = 0.0;
    for (lo, hi, n) in parsed {
        if seen + n >= rank {
            return lo + (hi - lo) * ((rank - seen) / n).clamp(0.0, 1.0);
        }
        seen += n;
    }
    0.0
}

fn server_metrics(json: &str, publishes: usize, m: &mut Metrics) -> Result<(), String> {
    let doc = Json::parse(json).map_err(|e| format!("METRICS is not JSON: {e:?}"))?;
    let counter = |name: &str| -> f64 {
        doc.get("counters").and_then(|c| c.get(name)).and_then(Json::as_f64).unwrap_or(0.0)
    };
    let hists: HashMap<&str, &Json> = doc
        .get("histograms")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter_map(|h| Some((h.get("name")?.as_str()?, h)))
        .collect();
    let q = |name: &str, q: f64| hists.get(name).map_or(0.0, |h| histogram_quantile(h, q));
    let stages: [(&str, &'static str, &'static str); 6] = [
        ("stage_queue", "stage.queue_p50_us", "stage.queue_p99_us"),
        ("stage_wal", "stage.wal_p50_us", "stage.wal_p99_us"),
        ("stage_apply", "stage.apply_p50_us", "stage.apply_p99_us"),
        ("stage_engine_queue", "stage.engine_queue_p50_us", "stage.engine_queue_p99_us"),
        ("stage_recompute", "stage.recompute_p50_us", "stage.recompute_p99_us"),
        ("stage_notify", "stage.notify_p50_us", "stage.notify_p99_us"),
    ];
    for (hist, p50, p99) in stages {
        if !hists.contains_key(hist) {
            return Err(format!("METRICS has no {hist} histogram"));
        }
        m.set(p50, q(hist, 0.5) / 1e3);
        m.set(p99, q(hist, 0.99) / 1e3);
    }
    m.set("serve.shard_queue_depth_p99", q("shard_queue_depth", 0.99));
    m.set("serve.recomputes_per_publish", ratio(counter("serve_recomputes"), publishes as f64));
    let sent = counter("serve_notifications");
    m.set("serve.notify_ratio", ratio(sent, sent + counter("serve_notifications_suppressed")));
    m.set(
        "serve.delta_objects_mean",
        ratio(counter("serve_delta_objects"), counter("serve_deltas_emitted")),
    );
    m.set("store.compactions", counter("store_compactions"));
    m.set("store.segments_sealed", counter("segments_sealed"));
    m.set("store.scrub_passes", counter("scrub_passes"));
    Ok(())
}

/// Serving passes over the stream, alternating tracing off and
/// on until `seconds` have passed and each side ran at least once. The
/// last traced pass supplies the server's stage metrics and the
/// subscription check.
pub fn service(
    inputs: &Inputs,
    shape: &Shape,
    seconds: f64,
    work: &Path,
    ops: &mut Ops,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let subs = shape.subscriptions();
    let (mut rps_off, mut rps_on) = (Vec::new(), Vec::new());
    let (mut publish_us, mut barrier_us) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    loop {
        let traced = rps_off.len() > rps_on.len();
        let Some((mut live, _)) = serve::start(inputs, &subs, traced, work, ops) else { return };
        let pass = if traced {
            let root = spans.enter("service.pass");
            let pass = serve::drive(&mut live, inputs, shape, ops, Some(spans));
            spans.exit(root);
            pass
        } else {
            serve::drive(&mut live, inputs, shape, ops, None)
        };
        if !pass.complete {
            serve::stop(live);
            return;
        }
        let rps = pass.readings as f64 / pass.ingest_s;
        let done = traced && t_run.elapsed().as_secs_f64() >= seconds;
        if traced {
            rps_on.push(rps);
            publish_us.extend(pass.publish_us);
            barrier_us.extend(pass.barrier_us);
            if done {
                if let Some(json) = ops.run("metrics", live.client.metrics_json()) {
                    let parsed = server_metrics(&json, pass.publishes, m);
                    ops.check("METRICS snapshot", parsed);
                }
                serve::check(&mut live, ops);
            }
        } else {
            rps_off.push(rps);
        }
        serve::stop(live);
        if done {
            break;
        }
    }
    let stream = &inputs.stream;
    let bytes: usize = stream.chunks(shape.publish).map(|b| encode_publish(b).len()).sum();
    m.set("service.publish_p50_us", median(&publish_us));
    m.set("service.barrier_p50_us", median(&barrier_us));
    m.set("service.bytes_per_reading", ratio(bytes as f64, stream.len() as f64));
    let (off, on) = (median(&rps_off), median(&rps_on));
    m.set("trace.overhead_pct", (off - on) / off * 100.0);
}

// ───────────────────────── tracking and the delta path ───────────────────

/// One shard of the tracking replay: the store plus the per-object
/// closed-row mirror a shard keeps to assemble its deltas.
struct ReplayShard {
    store: IngestStore<StdFs>,
    mirror: HashMap<ObjectId, Vec<OttRow>>,
    cursor: usize,
}

impl ReplayShard {
    fn sync(&mut self) {
        let closed = self.store.tracker().closed();
        for row in &closed[self.cursor..] {
            self.mirror.entry(row.object).or_default().push(*row);
        }
        self.cursor = closed.len();
    }

    /// The object's complete row set, as a shard ships it per delta.
    fn rows_of(&self, object: ObjectId) -> Vec<OttRow> {
        let mut rows = self.mirror.get(&object).cloned().unwrap_or_default();
        rows.extend(self.store.tracker().open_run_row(object));
        rows
    }
}

/// The server's store options (`ServeConfig::new` defaults).
fn server_store_options() -> StoreOptions {
    StoreOptions {
        snapshot_every: Some(1024),
        sync_each_reading: false,
        compact_every: Some(4096),
        scrub_every: Some(1024),
        ..StoreOptions::default()
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .filter_map(Result::ok)
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Per-object incremental state and measurements of the sampled
/// objects' replay.
#[derive(Default)]
struct Sampled {
    dwell: HashMap<ObjectId, DwellState>,
    distrib_contrib: HashMap<ObjectId, Vec<(PoiId, f64)>>,
    /// Deltas seen per sampled object.
    seen: HashMap<ObjectId, usize>,
    ott_build_us: Vec<f64>,
    /// Per subscription kind: call times (µs) and grid probes.
    contrib_us: [Vec<f64>; 4],
    contrib_probes: [u64; 4],
    snapshot_ur_us: Vec<f64>,
    interval_ur_us: Vec<f64>,
    interval_segments: Vec<f64>,
    presence_us: Vec<f64>,
    presence_probes: u64,
}

/// Everything the sampled delta replay needs from the workload.
struct DeltaCtx<'a> {
    engine: &'a UrEngine,
    rp: &'a RTree<PoiId>,
    end: f64,
    /// Window-wide work (interval and long-visit contributions, region
    /// and presence timings) runs on every this-many-th delta of an
    /// object; the snapshot kinds run on all of them.
    heavy_every: usize,
}

/// Runs one contribution call inside a span, recording its time and
/// grid probes under `kind`.
fn contrib<T>(s: &mut Sampled, spans: &mut Spans, kind: usize, f: impl FnOnce() -> T) -> T {
    const NAMES: [&str; 4] = [
        "core.contrib_snapshot",
        "core.contrib_distrib",
        "core.contrib_interval",
        "core.contrib_longvisit",
    ];
    let probes0 = inflow_geometry::integration_probes();
    let (v, secs) = spans.time(NAMES[kind], f);
    s.contrib_probes[kind] += inflow_geometry::integration_probes() - probes0;
    s.contrib_us[kind].push(secs * 1e6);
    v
}

/// Replays one object delta through the engine's per-object primitives
/// (all four subscription kinds), then times the uncertainty region and
/// presence work of the object's current state in isolation.
fn replay_delta(
    cx: &DeltaCtx,
    object: ObjectId,
    rows: Vec<OttRow>,
    distrib: &mut DistribState,
    s: &mut Sampled,
    spans: &mut Spans,
) -> Result<(), String> {
    let end = cx.end;
    let seen = s.seen.entry(object).or_insert(0);
    let heavy = seen.is_multiple_of(cx.heavy_every);
    *seen += 1;
    let root = spans.enter("delta.object");
    let (ott, secs) = spans.time("engine.ott_build", || ObjectTrackingTable::from_rows(rows));
    let ott = ott.map_err(|e| format!("shipped rows do not form a table: {e}"))?;
    s.ott_build_us.push(secs * 1e6);
    contrib(s, spans, 0, || object_snapshot_flows(cx.engine, &ott, object, end, cx.rp));
    let new = contrib(s, spans, 1, || object_snapshot_flows(cx.engine, &ott, object, end, cx.rp));
    let old = s.distrib_contrib.remove(&object).unwrap_or_default();
    distrib.update(object, &old, &new);
    s.distrib_contrib.insert(object, new);
    if !heavy {
        spans.exit(root);
        return Ok(());
    }
    contrib(s, spans, 2, || object_interval_flows(cx.engine, &ott, object, 0.0, end, cx.rp));
    let mut dwell = s.dwell.remove(&object).unwrap_or_default();
    contrib(s, spans, 3, || dwell.recompute(cx.engine, &ott, object, 0.0, end, cx.rp));
    s.dwell.insert(object, dwell);

    // The object's current snapshot region (middle of its last record)
    // and its interval region over the whole window.
    let last = ott.object_records(object).last().map(|&id| *ott.record(id));
    if let Some(last) = last {
        let t = 0.5 * (last.ts + last.te);
        if let Some(state @ ObjectState::Active { .. }) = ott.state_at(object, t) {
            let (ur, secs) =
                spans.time("uncertainty.snapshot_ur", || cx.engine.snapshot_ur(&ott, state, t));
            s.snapshot_ur_us.push(secs * 1e6);
            presence(cx, &ur, s, spans);
        }
    }
    let (ur, secs) =
        spans.time("uncertainty.interval_ur", || cx.engine.interval_ur(&ott, object, 0.0, end));
    s.interval_ur_us.push(secs * 1e6);
    if let Some(ur) = ur {
        s.interval_segments.push(ur.segment_count() as f64);
        presence(cx, &ur, s, spans);
    }
    spans.exit(root);
    Ok(())
}

/// Times each presence integration of `ur` against the POIs its MBR hits.
fn presence(
    cx: &DeltaCtx,
    ur: &inflow_uncertainty::UncertaintyRegion,
    s: &mut Sampled,
    spans: &mut Spans,
) {
    if ur.is_empty() {
        return;
    }
    let plan = cx.engine.context().plan();
    for &poi in cx.rp.query_intersecting(&ur.mbr()) {
        let probes0 = inflow_geometry::integration_probes();
        let (_, secs) = spans.time("geometry.presence", || cx.engine.presence(ur, plan.poi(poi)));
        s.presence_probes += inflow_geometry::integration_probes() - probes0;
        s.presence_us.push(secs * 1e6);
    }
}

/// The tracking replay with the delta path riding along. Objects whose
/// id is a multiple of `sample_every` get their deltas replayed through
/// the per-object primitives.
pub fn tracking_and_delta(
    inputs: &Inputs,
    shape: &Shape,
    work: &Path,
    ops: &mut Ops,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let stream = &inputs.stream;
    let dir = work.join(format!("tracking-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut shards = Vec::new();
    for i in 0..SHARDS {
        let opened = IngestStore::open(
            StdFs,
            &dir.join(format!("shard-{i}")),
            OnlineTracker::new(60.0),
            server_store_options(),
        );
        let Some((store, _)) = ops.run("open store", opened) else { return };
        shards.push(ReplayShard { store, mirror: HashMap::new(), cursor: 0 });
    }

    let engine = UrEngine::new(inputs.ctx.clone(), inputs.ur_config());
    let plan = inputs.ctx.plan();
    let pois: Vec<PoiId> = plan.pois().iter().map(|p| p.id).collect();
    let rp = RTree::bulk_load(pois.iter().map(|&p| (plan.poi(p).mbr(), p)).collect());
    let cx =
        DeltaCtx { engine: &engine, rp: &rp, end: shape.duration, heavy_every: shape.heavy_every };
    let mut distrib = DistribState::new(2, 32);
    let mut sampled = Sampled::default();

    let (mut ingest_s, mut spike_s) = (0.0f64, 0.0f64);
    let (mut delta_rows, mut delta_objects, mut publishes) = (0usize, 0usize, 0usize);
    for batch in stream.chunks(shape.publish) {
        let mut slices: Vec<Vec<RawReading>> = vec![Vec::new(); SHARDS];
        for r in batch {
            slices[r.object.0 as usize % SHARDS].push(*r);
        }
        for (shard, slice) in shards.iter_mut().zip(slices) {
            if slice.is_empty() {
                continue;
            }
            let span = spans.enter("tracking.ingest_slice");
            let mut touched: Vec<ObjectId> = Vec::new();
            for r in slice {
                let t0 = Instant::now();
                let res = shard.store.ingest_with(r, &mut |a| touched.push(a.object));
                let secs = t0.elapsed().as_secs_f64();
                if ops.run("store ingest", res).is_none() {
                    spans.exit(span);
                    return;
                }
                ingest_s += secs;
                spike_s = spike_s.max(secs);
            }
            shard.sync();
            spans.exit(span);
            let mut seen = HashSet::new();
            for object in touched {
                if !seen.insert(object) {
                    continue;
                }
                let rows = shard.rows_of(object);
                delta_rows += rows.len();
                delta_objects += 1;
                if (object.0 as usize).is_multiple_of(shape.sample_every) {
                    let replayed =
                        replay_delta(&cx, object, rows, &mut distrib, &mut sampled, spans);
                    if !ops.check("delta rows", replayed) {
                        return;
                    }
                }
            }
        }
        publishes += 1;
    }
    let n = stream.len() as f64;
    m.set("tracking.ingest_us_per_reading", ingest_s / n * 1e6);
    m.set("tracking.ingest_spike_ms", spike_s * 1e3);
    m.set("tracking.wal_bytes_per_reading", dir_bytes(&dir) as f64 / n);
    drop(shards);
    let _ = std::fs::remove_dir_all(&dir);

    m.set("delta.rows_per_object", ratio(delta_rows as f64, delta_objects as f64));
    let row_bytes = std::mem::size_of::<OttRow>() as f64;
    m.set("delta.bytes_per_publish", ratio(delta_rows as f64 * row_bytes, publishes as f64));
    m.set("engine.ott_build_us", mean(&sampled.ott_build_us));
    let names = [
        "core.contrib_snapshot_us",
        "core.contrib_distrib_us",
        "core.contrib_interval_us",
        "core.contrib_longvisit_us",
    ];
    for (name, xs) in names.into_iter().zip(&sampled.contrib_us) {
        m.set(name, mean(xs));
    }
    m.set("uncertainty.snapshot_ur_us", mean(&sampled.snapshot_ur_us));
    m.set("uncertainty.interval_ur_us", mean(&sampled.interval_ur_us));
    m.set("uncertainty.interval_segments", mean(&sampled.interval_segments));
    m.set("geometry.presence_us", mean(&sampled.presence_us));
    m.set(
        "geometry.probes_per_presence",
        ratio(sampled.presence_probes as f64, sampled.presence_us.len() as f64),
    );
    let probes_per_delta = sampled
        .contrib_probes
        .iter()
        .zip(&sampled.contrib_us)
        .map(|(&p, calls)| ratio(p as f64, calls.len() as f64))
        .sum();
    m.set("geometry.probes_per_delta", probes_per_delta);
    rank(inputs, &engine, &rp, &pois, shape, spans, m);
}

/// `core.rank`: the refresh a subscription runs after each delta, on
/// the final rows — the snapshot fold in ascending object order plus
/// `rank_topk`, and the distribution score refold of one publish's
/// worth of objects plus `rank_topk`.
fn rank(
    inputs: &Inputs,
    engine: &UrEngine,
    rp: &RTree<PoiId>,
    pois: &[PoiId],
    shape: &Shape,
    spans: &mut Spans,
    m: &mut Metrics,
) {
    let ott = inputs.ott();
    let t = 0.5 * shape.duration;
    let mut contrib: BTreeMap<ObjectId, Vec<(PoiId, f64)>> = BTreeMap::new();
    let mut distrib = DistribState::new(2, 32);
    for object in ott.objects() {
        let c = object_snapshot_flows(engine, &ott, object, t, rp);
        distrib.update(object, &[], &c);
        contrib.insert(object, c);
    }
    let objects: Vec<ObjectId> = contrib.keys().copied().collect();
    let per_refresh = shape.publish.min(objects.len()).max(1);
    let mut us = Vec::new();
    for round in 0..64 {
        let ((), secs) = spans.time("core.rank", || {
            let mut flows: HashMap<PoiId, f64> = pois.iter().map(|&p| (p, 0.0)).collect();
            for c in contrib.values() {
                for &(p, presence) in c {
                    if let Some(f) = flows.get_mut(&p) {
                        *f += presence;
                    }
                }
            }
            std::hint::black_box(rank_topk(flows.into_iter().collect(), crate::inputs::K));
            for i in 0..per_refresh {
                let o = objects[(round * per_refresh + i) % objects.len()];
                let c = &contrib[&o];
                distrib.update(o, c, c);
            }
            std::hint::black_box(rank_topk(distrib.scores(pois), crate::inputs::K));
        });
        us.push(secs * 1e6);
    }
    m.set("core.rank_us", median(&us));
}

// ───────────────────────── batch read path ───────────────────────────────

/// Accumulated join statistics of a set of queries.
#[derive(Debug, Default)]
pub struct JoinStats {
    pub snapshot: QueryStats,
    pub interval: QueryStats,
    pub snapshot_queries: usize,
    pub interval_queries: usize,
}

impl JoinStats {
    pub fn add_snapshot(&mut self, s: &QueryStats) {
        self.snapshot.merge(s);
        self.snapshot_queries += 1;
    }

    pub fn add_interval(&mut self, s: &QueryStats) {
        self.interval.merge(s);
        self.interval_queries += 1;
    }

    pub fn report(&self, m: &mut Metrics) {
        let (s, i) = (&self.snapshot, &self.interval);
        let sq = self.snapshot_queries as f64;
        let iq = self.interval_queries as f64;
        m.set("join.snapshot_presence_per_query", ratio(s.presence_evaluations as f64, sq));
        m.set("join.interval_presence_per_query", ratio(i.presence_evaluations as f64, iq));
        let pruned = (s.pois_pruned + i.pois_pruned) as f64;
        let resolved = (s.exact_flows_resolved + i.exact_flows_resolved) as f64;
        m.set("join.prune_ratio", ratio(pruned, pruned + resolved));
        m.set(
            "join.rtree_nodes_per_query",
            ratio((s.rtree_nodes_visited + i.rtree_nodes_visited) as f64, sq + iq),
        );
    }
}

/// Snapshot and interval query pairs at distinct times spread over the
/// stream, each over its own 60 % of the POIs.
fn query_pairs(fa: &FlowAnalytics, shape: &Shape) -> Vec<(SnapshotQuery, IntervalQuery)> {
    let all = fa.engine().context().plan().pois();
    let take = (all.len() * 60 / 100).max(1);
    let total = shape.join_pairs as f64;
    (0..shape.join_pairs)
        .map(|g| {
            let mut ids: Vec<PoiId> =
                (0..take).map(|j| all[(j * 13 + g * 7 + 3) % all.len()].id).collect();
            ids.sort_unstable();
            ids.dedup();
            let t = shape.duration * (0.1 + 0.8 * (g as f64 + 0.5) / total);
            let ts = (t - shape.read_window).max(0.0);
            (
                SnapshotQuery::new(t, ids.clone(), crate::inputs::K),
                IntervalQuery::new(ts, t, ids, crate::inputs::K),
            )
        })
        .collect()
}

/// A ranked top-k answer.
type Ranked = [(PoiId, f64)];

/// Join-versus-iterative check of one query pair.
fn check_pair(
    fa: &FlowAnalytics,
    (sq, iq): &(SnapshotQuery, IntervalQuery),
    join: (&Ranked, &Ranked),
    ops: &mut Ops,
) {
    let snap = fa.snapshot_topk_iterative(sq);
    let int = fa.interval_topk_iterative(iq);
    ops.check(&format!("snapshot join at t={}", sq.t), compare::same_topk(&snap.ranked, join.0));
    ops.check(
        &format!("interval join over [{}, {}]", iq.ts, iq.te),
        compare::same_topk(&int.ranked, join.1),
    );
}

/// The join layer on a serving workload's own tracking table, plus the
/// AR-tree build time.
pub fn join(inputs: &Inputs, shape: &Shape, ops: &mut Ops, spans: &mut Spans, m: &mut Metrics) {
    let mut build_ms = Vec::new();
    for _ in 0..3 {
        let ott = inputs.ott();
        let (tree, secs) = spans.time("tracking.artree_build", || ArTree::build(&ott));
        std::hint::black_box(tree);
        build_ms.push(secs * 1e3);
    }
    m.set("tracking.artree_build_ms", median(&build_ms));
    let fa = FlowAnalytics::new(inputs.ctx.clone(), inputs.ott(), inputs.ur_config());
    let mut stats = JoinStats::default();
    for (i, pair) in query_pairs(&fa, shape).iter().enumerate() {
        let (snap, _) = spans.time("join.snapshot_query", || fa.snapshot_topk_join(&pair.0));
        let (int, _) = spans.time("join.interval_query", || fa.interval_topk_join(&pair.1));
        stats.add_snapshot(&snap.stats);
        stats.add_interval(&int.stats);
        if i < 2 {
            check_pair(&fa, pair, (&snap.ranked, &int.ranked), ops);
        }
    }
    stats.report(m);
}

/// Self time per layer from the recorded spans, then the span dump.
pub fn finish_spans(spans: &Spans, path: &Path, m: &mut Metrics) {
    let by_layer = spans.self_ms_by_layer();
    let layers: [(&str, &'static str); 8] = [
        ("service", "self.service_ms"),
        ("tracking", "self.tracking_ms"),
        ("delta", "self.delta_ms"),
        ("engine", "self.engine_ms"),
        ("core", "self.core_ms"),
        ("uncertainty", "self.uncertainty_ms"),
        ("geometry", "self.geometry_ms"),
        ("join", "self.join_ms"),
    ];
    for (layer, name) in layers {
        m.set(name, by_layer.get(layer).copied().unwrap_or(0.0));
    }
    m.set("trace.spans", spans.len() as f64);
    if let Err(e) = spans.write_jsonl(path) {
        eprintln!("perfbench: writing {}: {e}", path.display());
    }
}
