//! End-to-end and per-layer benchmark for hyperroute.
//!
//! ```text
//! perfbench --workload paper_dense|sparse_navigate|sweep_service \
//!           --seed N --seconds S --trace 0|1
//! perfbench worker      # grid worker protocol on stdio (spawned by itself)
//! ```
//!
//! A run sets the workload up, then repeats passes over its inputs until
//! `--seconds` have elapsed, checking every output. `--trace 0` prints the
//! end-to-end metrics (medians over passes); `--trace 1` alternates
//! untraced and traced passes, records spans around every call into the
//! library, writes them to `perfbench/out/`, and prints the per-layer
//! metrics. The last line of standard output is the JSON result.

mod layers;
mod measure;
mod scenarios;
mod service;
mod trace;

use measure::Gate;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};
use trace::{Trace, Tracer};

/// Per-layer metric values by name.
pub type Layers = BTreeMap<String, f64>;

/// What one pass over a workload's inputs measured.
pub struct PassStats {
    pub wall_s: f64,
    /// Points simulated from cold, and the host seconds they took.
    pub cold_points: usize,
    pub cold_s: f64,
    /// Points answered from the report cache, and the seconds they took.
    pub hit_points: usize,
    pub hit_s: f64,
    /// Packets generated by the points actually simulated.
    pub packets: u64,
    /// Digest of the pass's reports; equal across passes of one seed.
    pub digest: u64,
    /// Peak resident memory during the pass, workers included.
    pub rss_mb: f64,
}

pub trait Workload {
    /// Parse and validate the inputs (and start whatever serves them);
    /// timed as `setup_s`.
    fn setup(&mut self, trace: Trace) -> Result<(), String>;

    /// Set-ups timed before each pass.
    fn setups_per_pass(&self) -> usize {
        1
    }

    /// One pass over the inputs; checks go to `gate` and stay outside
    /// the timed parts.
    fn pass(&mut self, trace: Trace, gate: &mut Gate) -> Result<PassStats, String>;

    /// Per-layer metrics from the traced passes (plus any probes run once
    /// at the end).
    fn layers(&mut self, tracer: &Arc<Tracer>, gate: &mut Gate) -> Layers;

    /// Stop anything the workload started.
    fn finish(&mut self) {}
}

/// Every pass count below this is extended past `--seconds`.
const MIN_PASSES: usize = 3;

const END_TO_END: [(&str, &str); 6] = [
    ("wall_s", "s"),
    ("packets_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cold_points_per_s", "1/s"),
    ("hit_points_per_s", "1/s"),
];

/// Every per-layer metric with its unit, in output order. A workload that
/// does not exercise a layer reports it as 0.
fn per_layer_metrics() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = Vec::new();
    let mut add = |name: &str, unit| out.push((name.to_string(), unit));
    add("scenario.parse_us", "us");
    for tag in scenarios::TAGS {
        add(&format!("topology.build_s.{tag}"), "s");
        add(&format!("engine.run_s.{tag}"), "s");
        add(&format!("engine.events.{tag}"), "count");
        add(&format!("engine.events_per_packet.{tag}"), "ratio");
        add(&format!("engine.ns_per_event.{tag}"), "ns");
        add(&format!("engine.ns_per_hop.{tag}"), "ns");
    }
    add("engine.self_share", "ratio");
    add("observe.overhead_ratio", "ratio");
    add("report.serialize_us", "us");
    add("report.parse_us", "us");
    add("report.bytes", "bytes");
    add("grid.hash_us", "us");
    add("grid.cache.get_us", "us");
    add("grid.cache.put_us", "us");
    add("grid.cache.hits", "count");
    add("grid.cache.misses", "count");
    add("grid.cache.inserts", "count");
    for phase in ["cold", "resubmit", "overlap"] {
        add(&format!("grid.cache.hit_ratio.{phase}"), "ratio");
    }
    add("grid.slice.partition_us", "us");
    add("grid.slice.merge_us", "us");
    add("grid.dispatch.busy_s", "s");
    add("grid.dispatch.slices.cold", "count");
    add("grid.dispatch.slices.resubmit", "count");
    add("grid.dispatch.overhead_us_per_point", "us");
    add("grid.pool.spawns", "count");
    add("grid.pool.reuses", "count");
    add("grid.service.submit_us", "us");
    add("grid.service.wait_s.cold", "s");
    add("grid.service.wait_s.resubmit", "s");
    add("grid.service.results_us_per_point", "us");
    add("trace.overhead_ratio", "ratio");
    out
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let value = |flag: &str| -> Result<&str, String> {
        let at = args
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        args.get(at + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let number = |flag: &str| -> Result<f64, String> {
        value(flag)?
            .parse::<f64>()
            .map_err(|e| format!("{flag}: {e}"))
    };
    Ok(Args {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?
            .parse()
            .map_err(|e| format!("--seed: {e}"))?,
        seconds: number("--seconds")?,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

fn workload(name: &str, seed: u64) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        "paper_dense" => Box::new(scenarios::ScenarioWorkload::paper_dense(seed)),
        "sparse_navigate" => Box::new(scenarios::ScenarioWorkload::sparse_navigate(seed)),
        "sweep_service" => {
            let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
            let worker_cmd = vec![exe.to_string_lossy().into_owned(), "worker".to_string()];
            Box::new(service::ServiceWorkload::new(seed, worker_cmd))
        }
        other => return Err(format!("unknown workload {other}")),
    })
}

/// A finite number in JSON (non-finite values never leave the benchmark).
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

fn run(args: &Args) -> Result<(), String> {
    let mut w = workload(&args.workload, args.seed)?;
    let tracer = Arc::new(Tracer::new());
    let mut gate = Gate::default();
    let (mut setups, mut plain, mut traced) =
        (Vec::new(), Vec::<PassStats>::new(), Vec::<PassStats>::new());
    let budget = Duration::from_secs_f64(args.seconds.max(0.0));
    // One checked but unmeasured pass first, so allocator pools, page
    // tables and caches are warm before anything is timed.
    w.setup(Trace::OFF)?;
    let warm_digest = w.pass(Trace::OFF, &mut gate)?.digest;
    let started = Instant::now();
    let mut i = 0usize;
    loop {
        let tracing = args.trace && i % 2 == 1;
        let trace = if tracing {
            Trace(Some(&tracer))
        } else {
            Trace::OFF
        };
        for _ in 0..w.setups_per_pass() {
            let t0 = Instant::now();
            w.setup(trace)?;
            setups.push(t0.elapsed().as_secs_f64());
        }
        measure::reset_peak_rss();
        let stats = w.pass(trace, &mut gate)?;
        gate.op(if stats.digest == warm_digest {
            Ok(())
        } else {
            Err(format!(
                "report digest {:016x} differs from the first pass's {warm_digest:016x}",
                stats.digest
            ))
        });
        if tracing { &mut traced } else { &mut plain }.push(stats);
        i += 1;
        let enough = plain.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && started.elapsed() >= budget {
            break;
        }
    }

    let per = |f: fn(&PassStats) -> f64| -> Vec<f64> { plain.iter().map(f).collect() };
    let walls = per(|p| p.wall_s);
    let mut metrics: Vec<(String, f64, &str)> = Vec::new();
    if args.trace {
        let mut layers = w.layers(&tracer, &mut gate);
        let traced_walls: Vec<f64> = traced.iter().map(|p| p.wall_s).collect();
        layers.insert(
            "trace.overhead_ratio".into(),
            measure::median(&traced_walls) / measure::median(&walls),
        );
        let self_times = tracer.self_times();
        let engine: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name.starts_with("engine."))
            .map(|s| self_times[&s.id])
            .sum();
        layers.insert(
            "engine.self_share".into(),
            engine / traced_walls.iter().sum::<f64>(),
        );
        let path = PathBuf::from("perfbench/out")
            .join(format!("spans-{}-seed{}.ndjson", args.workload, args.seed));
        tracer
            .write_ndjson(&path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans {} ({} spans)", path.display(), tracer.spans().len());
        for (name, unit) in per_layer_metrics() {
            let value = layers.remove(&name).unwrap_or(0.0);
            metrics.push((name, value, unit));
        }
        if let Some(extra) = layers.keys().next() {
            return Err(format!(
                "per-layer metric {extra} is not in the metric list"
            ));
        }
    } else {
        let rate = |points: fn(&PassStats) -> f64, secs: fn(&PassStats) -> f64| -> f64 {
            let rates: Vec<f64> = plain.iter().map(|p| points(p) / secs(p)).collect();
            measure::median(&rates)
        };
        let values = [
            measure::median(&walls),
            rate(|p| p.packets as f64, |p| p.wall_s),
            measure::median(&setups),
            measure::median(&per(|p| p.rss_mb)),
            rate(|p| p.cold_points as f64, |p| p.cold_s),
            rate(|p| p.hit_points as f64, |p| p.hit_s),
        ];
        for ((name, unit), value) in END_TO_END.iter().zip(values) {
            metrics.push((name.to_string(), value, unit));
        }
        let samples: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
        println!("wall_s samples {}", samples.join(" "));
        match measure::tail(&walls) {
            Some((pct, v)) => println!(
                "wall_s median {} s, p{pct} {} s, n {}",
                number(measure::median(&walls)),
                number(v),
                walls.len()
            ),
            None => println!(
                "wall_s median {} s, n {} (too few passes for a tail percentile)",
                number(measure::median(&walls)),
                walls.len()
            ),
        }
    }
    w.finish();

    for message in gate.messages() {
        eprintln!("check failed: {message}");
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "workload {} seed {} passes {} traced {} setups {} nproc {nproc}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        setups.len()
    );
    println!("digest {} {warm_digest:016x}", args.workload);
    println!(
        "failed_ratio {} ratio",
        number(gate.failed as f64 / gate.attempted.max(1) as f64)
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        gate.failed == 0,
        gate.attempted,
        gate.failed,
        body.join(", ")
    );
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("worker") {
        let (stdin, stdout) = (std::io::stdin(), std::io::stdout());
        return match hyperroute_grid::run_worker(stdin.lock(), stdout.lock()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench worker: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let result = parse_args(&argv).and_then(|args| run(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
