//! The serving workloads: one client on one connection drives an
//! in-process server in a closed loop — publish a batch, wait for the
//! barrier ack — with a read (a snapshot and an interval one-shot
//! query at the stream's current time) every few publishes.

use crate::compare;
use crate::inputs::{Inputs, Shape, K};
use crate::report::Ops;
use crate::spans::Spans;
use inflow_service::{Client, ServeConfig, Server, ServerHandle, SubKind, SubSpec};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// A started server with its subscriptions registered.
pub struct Live {
    handle: ServerHandle,
    pub client: Client,
    dir: PathBuf,
    subs: Vec<(u64, SubSpec)>,
}

/// What the timed loop of one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    pub readings: usize,
    pub publishes: usize,
    /// Seconds inside publish + barrier.
    pub ingest_s: f64,
    /// Publish start to barrier ack, ms, one per publish in stream order.
    pub fresh_ms: Vec<f64>,
    pub publish_us: Vec<f64>,
    pub barrier_us: Vec<f64>,
    /// One read (snapshot plus interval one-shot query), ms, one per
    /// read in stream order.
    pub read_ms: Vec<f64>,
    /// Whether every operation of the loop succeeded.
    pub complete: bool,
}

fn store_dir(work: &Path) -> PathBuf {
    static PASS: AtomicUsize = AtomicUsize::new(0);
    work.join(format!("serve-{}-{}", std::process::id(), PASS.fetch_add(1, Ordering::Relaxed)))
}

/// Starts a server (shipped defaults, tracing as asked), subscribes and
/// waits for the first barrier. Returns the live server and the set-up
/// time in seconds.
pub fn start(
    inputs: &Inputs,
    subs: &[SubSpec],
    trace: bool,
    work: &Path,
    ops: &mut Ops,
) -> Option<(Live, f64)> {
    let dir = store_dir(work);
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ServeConfig { trace, ur: inputs.ur_config(), ..ServeConfig::new(dir.clone()) };
    let t0 = Instant::now();
    let handle = ops.run("server start", Server::start(inputs.ctx.clone(), cfg))?;
    let Some(client) = ops.run("connect", Client::connect(handle.addr())) else {
        handle.shutdown();
        handle.wait();
        return None;
    };
    let mut live = Live { handle, client, dir, subs: Vec::new() };
    for spec in subs {
        match ops.run("subscribe", live.client.subscribe(spec)) {
            Some(id) => live.subs.push((id, spec.clone())),
            None => {
                stop(live);
                return None;
            }
        }
    }
    if ops.run("barrier", live.client.barrier()).is_none() {
        stop(live);
        return None;
    }
    let setup_s = t0.elapsed().as_secs_f64();
    live.client.take_updates();
    Some((live, setup_s))
}

/// Shuts the server down, waits for every thread and removes its store.
pub fn stop(mut live: Live) {
    if live.client.shutdown_server().is_err() {
        live.handle.shutdown();
    }
    drop(live.client);
    live.handle.wait();
    let _ = std::fs::remove_dir_all(&live.dir);
}

fn read_specs(now: f64, window: f64) -> [SubSpec; 2] {
    let spec = |kind| SubSpec { kind, k: K, epsilon: 0.0, pois: Vec::new() };
    [
        spec(SubKind::Snapshot { t: now }),
        spec(SubKind::Interval { ts: (now - window).max(0.0), te: now }),
    ]
}

/// The timed closed loop over the whole stream. Stops at the first
/// failed operation.
pub fn drive(
    live: &mut Live,
    inputs: &Inputs,
    shape: &Shape,
    ops: &mut Ops,
    mut spans: Option<&mut Spans>,
) -> Pass {
    let mut pass = Pass::default();
    for batch in inputs.stream.chunks(shape.publish) {
        let span = spans.as_deref_mut().map(|s| s.enter("service.publish"));
        let t0 = Instant::now();
        let published = ops.run("publish", live.client.publish(batch)).is_some();
        let t1 = Instant::now();
        if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
            s.exit(span);
        }
        if !published {
            return pass;
        }
        let span = spans.as_deref_mut().map(|s| s.enter("service.barrier"));
        let synced = ops.run("barrier", live.client.barrier()).is_some();
        let t2 = Instant::now();
        if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
            s.exit(span);
        }
        if !synced {
            return pass;
        }
        pass.ingest_s += (t2 - t0).as_secs_f64();
        pass.fresh_ms.push((t2 - t0).as_secs_f64() * 1e3);
        pass.publish_us.push((t1 - t0).as_secs_f64() * 1e6);
        pass.barrier_us.push((t2 - t1).as_secs_f64() * 1e6);
        pass.readings += batch.len();
        pass.publishes += 1;
        // Pushed updates are not measured; drop them so they do not pile up.
        live.client.take_updates();

        if pass.publishes % shape.read_every == 0 {
            let now = batch.last().map_or(0.0, |r| r.t);
            let [snap, int] = read_specs(now, shape.read_window);
            let span = spans.as_deref_mut().map(|s| s.enter("service.query"));
            // The millisecond-scale snapshot query runs three times back
            // to back and counts its fastest run, so that one slow thread
            // wake-up does not set it.
            let mut snap_ms = f64::INFINITY;
            for _ in 0..3 {
                let t0 = Instant::now();
                if ops.run("one-shot query", live.client.query(&snap)).is_none() {
                    return pass;
                }
                snap_ms = snap_ms.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            let t0 = Instant::now();
            let answered = ops.run("one-shot query", live.client.query(&int)).is_some();
            let int_ms = t0.elapsed().as_secs_f64() * 1e3;
            if let (Some(s), Some(span)) = (spans.as_deref_mut(), span) {
                s.exit(span);
            }
            if !answered {
                return pass;
            }
            pass.read_ms.push(snap_ms + int_ms);
        }
    }
    pass.complete = true;
    pass
}

/// Untimed check: every subscription's materialized answer equals a
/// one-shot query of the same spec, bit for bit.
pub fn check(live: &mut Live, ops: &mut Ops) -> bool {
    let mut ok = true;
    let subs = live.subs.clone();
    for (id, spec) in &subs {
        let Some(current) = ops.run("current", live.client.current(*id)) else {
            return false;
        };
        let Some(batch) = ops.run("one-shot query", live.client.query(spec)) else {
            return false;
        };
        ok &= ops.check(
            &format!("subscription {:?} equals one-shot", spec.kind),
            compare::identical(&batch, &current),
        );
    }
    ok
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{Name, Shape};
    use inflow_workload::{generate_cph, CphConfig};

    /// Serving must answer bit for bit what a one-shot query answers on
    /// skewed airport data too. It does not today: the subscription sums
    /// presences in ascending object id, the one-shot query in the order
    /// `ArTree::point_query` returns candidates, and the sums differ in
    /// the last bits. This test fails until the program is fixed.
    #[test]
    fn serving_equals_one_shot_on_airport_data() {
        let w = generate_cph(&CphConfig {
            num_passengers: 15,
            duration: 600.0,
            seed: 7,
            ..CphConfig::default()
        });
        let inputs = Inputs::from_workload(w);
        let shape = Shape::of(Name::ServeSnapshot, true);
        let subs: Vec<SubSpec> =
            [SubKind::Snapshot { t: 300.0 }, SubKind::Interval { ts: -900.0, te: 300.0 }]
                .into_iter()
                .map(|kind| SubSpec { kind, k: K, epsilon: 0.0, pois: Vec::new() })
                .collect();
        let work = std::env::temp_dir().join(format!("perfbench-airport-{}", std::process::id()));
        let mut ops = Ops::default();
        let (mut live, _) = start(&inputs, &subs, true, &work, &mut ops).expect("server starts");
        let pass = drive(&mut live, &inputs, &shape, &mut ops, None);
        let held = pass.complete && check(&mut live, &mut ops);
        stop(live);
        let _ = std::fs::remove_dir_all(&work);
        assert!(held, "{} of {} operations failed", ops.failed, ops.attempted);
    }
}
