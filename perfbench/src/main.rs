//! `perfbench`: the end-to-end and per-layer benchmark of inflow.
//!
//! ```text
//! perfbench --workload <serve-snapshot|serve-window> --seed <n>
//!           --seconds <s> --trace <0|1> [--smoke]
//! ```
//!
//! Inputs come from `--seed`; the timed section runs for `--seconds`;
//! untimed correctness checks follow it. With `--trace 0` the last line
//! of standard output is one JSON object carrying every end-to-end
//! metric, with `--trace 1` every per-layer metric. The exit code is 0
//! only when every operation succeeded and every check held. Server
//! stores, span dumps and other scratch files go under `.bench_work/`
//! in the working directory.

mod compare;
mod inputs;
mod layers;
mod report;
mod serve;
mod spans;

use inputs::{Inputs, Name, Shape};
use report::{mean, median, quantile, Metrics, Ops, END_TO_END, PER_LAYER};
use spans::Spans;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up samples per serving run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

/// Whether another pass as long as the last one fits: it may overrun
/// `--seconds` by at most half its length.
fn another(t_run: Instant, last: f64, seconds: f64) -> bool {
    t_run.elapsed().as_secs_f64() + 0.5 * last <= seconds
}

#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Name,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub work: PathBuf,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace, mut smoke) =
        (None, None, None, None, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Name::parse(&v).ok_or(format!("unknown workload {v}"))?);
            }
            "--seed" => seed = Some(value()?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
        smoke,
        work: PathBuf::from(".bench_work"),
    })
}

/// One run's outcome: its metrics and operation accounting.
pub struct Outcome {
    pub metrics: Metrics,
    pub ops: Ops,
}

pub fn run(args: &Args) -> Outcome {
    let shape = Shape::of(args.workload, args.smoke);
    let t0 = Instant::now();
    let inputs = Inputs::generate(&shape, args.seed);
    eprintln!(
        "perfbench: {} seed {}: {} readings, {} rows, generated in {:.2} s",
        args.workload.as_str(),
        args.seed,
        inputs.stream.len(),
        inputs.rows.len(),
        t0.elapsed().as_secs_f64()
    );
    let mut out = Outcome { metrics: Metrics::default(), ops: Ops::default() };
    if let Err(e) = std::fs::create_dir_all(&args.work) {
        out.ops.run::<(), _>("create work directory", Err(e));
        return out;
    }
    match args.trace {
        false => serve_timed(&inputs, &shape, args, &mut out),
        true => traced(&inputs, &shape, args, &mut out),
    }
    out
}

/// The serving workloads, untraced: fresh servers, each driven over
/// the whole stream, until `--seconds` have passed; then the
/// subscription check on the last one. Every publish and every read
/// happens at the same point of the stream in every pass, so each one
/// counts its fastest pass: the host's interference differs from pass
/// to pass, the work does not.
fn serve_timed(inputs: &Inputs, shape: &Shape, args: &Args, out: &mut Outcome) {
    let subs = shape.subscriptions();
    let ops = &mut out.ops;
    let mut setups = Vec::new();
    let (mut fresh, mut reads) = (Vec::new(), Vec::new());
    let mut peak_rss_mb = f64::NAN;
    let t_run = Instant::now();
    loop {
        let t_pass = Instant::now();
        let Some((mut live, setup_s)) = serve::start(inputs, &subs, false, &args.work, ops) else {
            return;
        };
        setups.push(setup_s);
        let pass = serve::drive(&mut live, inputs, shape, ops, None);
        if !pass.complete {
            serve::stop(live);
            return;
        }
        eprintln!(
            "perfbench: pass {}: {:.0} readings/s, fresh p50 {:.3} ms, read mean {:.2} ms",
            fresh.len() + 1,
            pass.readings as f64 / pass.ingest_s,
            median(&pass.fresh_ms),
            mean(&pass.read_ms)
        );
        fresh.push(pass.fresh_ms);
        reads.push(pass.read_ms);
        if peak_rss_mb.is_nan() {
            // After one pass: later passes only add allocator growth
            // from restarting servers, which depends on how many fit.
            peak_rss_mb = report::peak_rss_mb();
        }
        let last = (args.smoke && fresh.len() >= 2)
            || !another(t_run, t_pass.elapsed().as_secs_f64(), args.seconds);
        if last {
            serve::check(&mut live, ops);
        }
        serve::stop(live);
        if last {
            break;
        }
    }
    while setups.len() < SETUP_SAMPLES {
        let Some((live, setup_s)) = serve::start(inputs, &subs, false, &args.work, ops) else {
            return;
        };
        setups.push(setup_s);
        serve::stop(live);
    }
    let (fresh, reads) = (fastest(&fresh), fastest(&reads));
    let m = &mut out.metrics;
    m.set("setup_s", median(&setups));
    m.set("ingest_rps", inputs.stream.len() as f64 / (fresh.iter().sum::<f64>() / 1e3));
    m.set("fresh_p50_ms", median(&fresh));
    m.set("fresh_p90_ms", quantile(&fresh, 0.9));
    m.set("oneshot_mean_ms", mean(&reads));
    m.set("peak_rss_mb", peak_rss_mb);
}

/// The fastest of each operation's repetitions: `reps[r][i]` is the
/// latency of operation `i` in repetition `r`. Repetitions only add the
/// host's interference to the same work, so the minimum is its cost.
fn fastest(reps: &[Vec<f64>]) -> Vec<f64> {
    let n = reps.iter().map(Vec::len).min().unwrap_or(0);
    (0..n).map(|i| reps.iter().map(|r| r[i]).fold(f64::INFINITY, f64::min)).collect()
}

/// The traced run: every layer, on the workload's own inputs.
fn traced(inputs: &Inputs, shape: &Shape, args: &Args, out: &mut Outcome) {
    let mut spans = Spans::new();
    let (ops, m) = (&mut out.ops, &mut out.metrics);
    layers::service(inputs, shape, args.seconds, &args.work, ops, &mut spans, m);
    layers::tracking_and_delta(inputs, shape, &args.work, ops, &mut spans, m);
    layers::join(inputs, shape, ops, &mut spans, m);
    let dump = args.work.join(format!("spans-{}-seed{}.jsonl", args.workload.as_str(), args.seed));
    layers::finish_spans(&spans, &dump, m);
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let outcome = run(&args);
    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let (line, correct) = outcome.metrics.result_line(table, &outcome.ops);
    println!("{line}");
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    type Table = &'static [(&'static str, &'static str)];

    /// Every workload at smoke size, untraced and traced; `test` keeps
    /// concurrently running tests in separate work directories.
    fn smoke_runs(test: &str) -> Vec<(Args, Table, Outcome)> {
        let work = std::env::temp_dir().join(format!("perfbench-{test}-{}", std::process::id()));
        let mut runs = Vec::new();
        for workload in Name::ALL {
            for (trace, table) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
                let args = Args {
                    workload,
                    seed: 7,
                    seconds: 1.0,
                    trace,
                    smoke: true,
                    work: work.clone(),
                };
                let outcome = run(&args);
                runs.push((args, table, outcome));
            }
        }
        let _ = std::fs::remove_dir_all(&work);
        runs
    }

    #[test]
    fn smoke_runs_print_every_metric() {
        for (args, table, outcome) in smoke_runs("metrics") {
            let (line, _) = outcome.metrics.result_line(table, &outcome.ops);
            for (name, unit) in table {
                let v = outcome.metrics.get(name).unwrap_or(f64::NAN);
                assert!(v.is_finite(), "{:?}: {name} = {v}", args.workload);
                assert!(line.contains(&format!("\"{name}\": {{\"value\": ")), "{name} missing");
                assert!(line.contains(&format!("\"unit\": \"{unit}\"")), "{unit} missing");
            }
        }
    }

    #[test]
    fn smoke_runs_are_correct() {
        for (args, _, outcome) in smoke_runs("checks") {
            let ops = &outcome.ops;
            assert!(
                ops.correct(),
                "{:?} trace={}: {} of {} operations failed, {} wrong answers",
                args.workload,
                args.trace,
                ops.failed,
                ops.attempted,
                ops.wrong
            );
        }
    }

    #[test]
    fn args_parse_and_reject() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload serve-window --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Name::ServeWindow, 3, 10.0, true));
        assert!(parse("--workload nope --seed 1").is_err());
        assert!(parse("--workload serve-window").is_err());
        assert!(parse("--workload serve-window --seed 1 --trace 2").is_err());
    }

    /// `BENCHMARK.json` names exactly the metrics and workloads this
    /// program reports.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = inflow_obs::Json::parse(&text).expect("BENCHMARK.json is JSON");
        let names = |key: &str| -> Vec<(String, Option<String>)> {
            doc.get(key)
                .and_then(inflow_obs::Json::as_arr)
                .expect(key)
                .iter()
                .map(|e| {
                    let name = e.get("name").and_then(inflow_obs::Json::as_str).unwrap();
                    let unit = e.get("unit").and_then(inflow_obs::Json::as_str);
                    (name.to_string(), unit.map(String::from))
                })
                .collect()
        };
        let table = |t: &[(&str, &str)]| -> Vec<(String, Option<String>)> {
            t.iter().map(|(n, u)| (n.to_string(), Some(u.to_string()))).collect()
        };
        assert_eq!(names("end_to_end"), table(&END_TO_END));
        assert_eq!(names("per_layer"), table(&PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|(n, _)| n).collect();
        let ours: Vec<String> = Name::ALL.iter().map(|n| n.as_str().to_string()).collect();
        assert_eq!(workloads, ours);
    }

    #[test]
    fn inputs_follow_the_seed() {
        let shape = Shape::of(Name::ServeWindow, true);
        let a = Inputs::generate(&shape, 11);
        let b = Inputs::generate(&shape, 11);
        let c = Inputs::generate(&shape, 12);
        assert_eq!(a.stream, b.stream);
        assert_ne!(a.stream, c.stream);
    }
}
