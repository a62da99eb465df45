//! The `hyperroute-grid` CLI: sharded sweep campaigns and the
//! scenario-corpus regression gate.
//!
//! ```text
//! hyperroute-grid worker
//!     Serve the stdio worker protocol (spawned by the subprocess
//!     backend; also usable behind ssh for remote workers).
//!
//! hyperroute-grid run --sweep FILE [--backend threads|subprocess]
//!     [--workers N] [--slice-len N] [--checkpoint DIR]
//!     [--timeout-secs N] [--out FILE]
//!     Execute a JSON sweep file, checkpointing and resuming through
//!     DIR, and write the row-major report array as JSON.
//!
//! hyperroute-grid serve [--backend threads|subprocess] [--workers N]
//!     [--slice-len N] [--queue N] [--cache-dir DIR] [--cache-capacity N]
//!     Run the persistent sweep service over stdio NDJSON: campaign
//!     submit / status / stream-results requests in, replies out (see
//!     `hyperroute_grid::service`). Subprocess workers stay warm
//!     between campaigns; reports are served from the content-addressed
//!     cache (on disk under `--cache-dir`, else an in-memory LRU of
//!     `--cache-capacity` reports). Bridge to a unix socket with any
//!     stream relay, e.g. `socat UNIX-LISTEN:grid.sock,fork
//!     EXEC:"hyperroute-grid serve"`.
//!
//! hyperroute-grid run-corpus [--scenarios DIR] [--baselines DIR]
//!     [--workers N] [--update] [--cache-dir DIR] [--require-all-hits]
//!     [--via-service]
//!     Run every scenario in DIR (default `scenarios/`) and diff the
//!     reports against DIR/baselines; exit 1 on any difference.
//!     `--cache-dir` serves repeats from a disk report cache;
//!     `--require-all-hits` fails any scenario that had to simulate
//!     (the cache-differential arm's second pass); `--via-service`
//!     routes every scenario through a sweep service campaign.
//!
//! hyperroute-grid validate-corpus [--scenarios DIR] [--fix]
//!     Round-trip every scenario file through `Scenario::from_json` /
//!     `to_json`; exit 1 on files that parse but are not bit-exactly
//!     canonical (hand-edited drift). `--fix` rewrites them instead.
//! ```
//!
//! Every subcommand rejects arguments it does not know with the usage
//! text and exit status 2, so a misspelt flag cannot silently switch a
//! gate off.

use hyperroute_core::scenario::Sweep;
use hyperroute_grid::{
    run_corpus_with, run_worker, serve, validate_corpus, Campaign, CorpusOptions, DiskCache,
    ExecBackend, MemoryCache, ProgressBackend, ProgressUpdate, ReportCache, ServiceConfig,
    SubprocessBackend, SweepService, ThreadPoolBackend,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    std::process::exit(dispatch(&args));
}

fn dispatch(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("worker") => cmd_worker(&args[1..]),
        Some("run") => cmd_run(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("run-corpus") => cmd_run_corpus(&args[1..]),
        Some("validate-corpus") => cmd_validate_corpus(&args[1..]),
        Some(other) => usage(&format!("unknown subcommand `{other}`")),
        None => usage("missing subcommand"),
    }
}

fn usage(problem: &str) -> i32 {
    eprintln!("hyperroute-grid: {problem}");
    eprintln!(
        "usage:\n  hyperroute-grid worker\n  hyperroute-grid run --sweep FILE \
         [--backend threads|subprocess] [--workers N] [--slice-len N] \
         [--checkpoint DIR] [--timeout-secs N] [--out FILE]\n  \
         hyperroute-grid serve [--backend threads|subprocess] [--workers N] \
         [--slice-len N] [--queue N] [--cache-dir DIR] [--cache-capacity N]\n  \
         hyperroute-grid run-corpus [--scenarios DIR] [--baselines DIR] \
         [--workers N] [--update] [--cache-dir DIR] [--require-all-hits] \
         [--via-service]\n  \
         hyperroute-grid validate-corpus [--scenarios DIR] [--fix]"
    );
    2
}

/// A subcommand's parsed command line: `--flag value` pairs and bare
/// `--switch`es, each checked against the flags the subcommand declares.
struct Flags<'a> {
    values: Vec<(&'a str, &'a str)>,
    switches: Vec<&'a str>,
}

impl<'a> Flags<'a> {
    /// Parse `args` against the declared value flags and switches; any
    /// other argument is an error.
    fn parse(args: &'a [String], values: &[&str], switches: &[&str]) -> Result<Flags<'a>, String> {
        let mut flags = Flags {
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut iter = args.iter().map(String::as_str);
        while let Some(arg) = iter.next() {
            if values.contains(&arg) {
                let value = iter.next().ok_or_else(|| format!("{arg} needs a value"))?;
                flags.values.push((arg, value));
            } else if switches.contains(&arg) {
                flags.switches.push(arg);
            } else {
                return Err(format!("unknown argument `{arg}`"));
            }
        }
        Ok(flags)
    }

    /// The flag's value (the last one, if given more than once).
    fn value(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .rev()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn switch(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }

    fn parsed<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.value(flag) {
            None => Ok(default),
            Some(text) => text
                .parse()
                .map_err(|_| format!("{flag}: cannot parse `{text}`")),
        }
    }
}

fn cmd_worker(args: &[String]) -> i32 {
    if let Err(e) = Flags::parse(args, &[], &[]) {
        return usage(&e);
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    match run_worker(stdin.lock(), stdout.lock()) {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("hyperroute-grid worker: {e}");
            1
        }
    }
}

fn cmd_run(args: &[String]) -> i32 {
    let flags = match Flags::parse(
        args,
        &[
            "--sweep",
            "--backend",
            "--workers",
            "--slice-len",
            "--checkpoint",
            "--timeout-secs",
            "--out",
        ],
        &[],
    ) {
        Ok(flags) => flags,
        Err(e) => return usage(&e),
    };
    match try_run(&flags) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("hyperroute-grid run: {message}");
            1
        }
    }
}

fn try_run(flags: &Flags) -> Result<(), String> {
    let sweep_path = flags.value("--sweep").ok_or("--sweep FILE is required")?;
    let workers: usize = flags.parsed("--workers", 0)?;
    let slice_len: usize = flags.parsed("--slice-len", 1)?;
    if slice_len == 0 {
        return Err("--slice-len must be positive".into());
    }
    let timeout_secs: u64 = flags.parsed("--timeout-secs", 600)?;
    let backend_name = flags.value("--backend").unwrap_or("threads");

    let text = std::fs::read_to_string(sweep_path).map_err(|e| format!("{sweep_path}: {e}"))?;
    let sweep: Sweep = serde_json::from_str(&text)
        .map_err(|e| format!("{sweep_path}: sweep does not parse: {e}"))?;

    let mut campaign = Campaign::new(sweep, slice_len);
    if let Some(dir) = flags.value("--checkpoint") {
        campaign = campaign.with_checkpoint(PathBuf::from(dir));
    }

    let backend: Box<dyn ExecBackend> = match backend_name {
        "threads" => Box::new(ThreadPoolBackend::new(workers)),
        "subprocess" => Box::new(
            SubprocessBackend::self_workers(workers)
                .map_err(|e| e.to_string())?
                .with_timeout(Duration::from_secs(timeout_secs)),
        ),
        other => return Err(format!("--backend: unknown backend `{other}`")),
    };

    // One progress line per finished slice, on stderr so stdout stays
    // clean report JSON.
    let progress = |u: &ProgressUpdate| {
        eprintln!(
            "hyperroute-grid run: {}/{} slices, {} points, {:.1} points/s",
            u.done, u.total, u.points, u.points_per_sec
        );
    };
    let started = std::time::Instant::now();
    let reports = campaign
        .run(&ProgressBackend::new(backend.as_ref(), &progress))
        .map_err(|e| e.to_string())?;
    let mut rendered = serde_json::to_string_pretty(&reports).expect("reports always serialise");
    rendered.push('\n');
    match flags.value("--out") {
        Some(path) => std::fs::write(path, rendered).map_err(|e| format!("{path}: {e}",))?,
        None => print!("{rendered}"),
    }
    eprintln!(
        "hyperroute-grid run: {} grid points on the {backend_name} backend in {:.1}s",
        reports.len(),
        started.elapsed().as_secs_f64()
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> i32 {
    let flags = match Flags::parse(
        args,
        &[
            "--backend",
            "--workers",
            "--slice-len",
            "--queue",
            "--cache-dir",
            "--cache-capacity",
        ],
        &[],
    ) {
        Ok(flags) => flags,
        Err(e) => return usage(&e),
    };
    match try_serve(&flags) {
        Ok(()) => 0,
        Err(message) => {
            eprintln!("hyperroute-grid serve: {message}");
            1
        }
    }
}

fn try_serve(flags: &Flags) -> Result<(), String> {
    let workers: usize = flags.parsed("--workers", 0)?;
    let slice_len: usize = flags.parsed("--slice-len", 1)?;
    if slice_len == 0 {
        return Err("--slice-len must be positive".into());
    }
    let queue_capacity: usize = flags.parsed("--queue", 16)?;
    let worker_cmd = match flags.value("--backend").unwrap_or("threads") {
        "threads" => None,
        "subprocess" => {
            let me = std::env::current_exe()
                .map_err(|e| format!("cannot locate own binary for workers: {e}"))?;
            Some(vec![me.display().to_string(), "worker".to_string()])
        }
        other => return Err(format!("--backend: unknown backend `{other}`")),
    };
    let cache: Arc<dyn ReportCache> = match flags.value("--cache-dir") {
        Some(dir) => Arc::new(DiskCache::open(PathBuf::from(dir)).map_err(|e| e.to_string())?),
        None => {
            let capacity: usize = flags.parsed("--cache-capacity", 4096)?;
            Arc::new(MemoryCache::new(capacity.max(1)))
        }
    };

    let config = ServiceConfig {
        slice_len,
        workers,
        worker_cmd,
        queue_capacity,
    };
    let service = SweepService::new(config, cache);
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve(&service, stdin.lock(), stdout.lock()).map_err(|e| format!("service io: {e}"))?;

    let stats = service.cache_stats();
    let (spawns, reuses) = (service.pool().spawns(), service.pool().reuses());
    service.shutdown();
    eprintln!(
        "hyperroute-grid serve: cache {} hits / {} misses / {} inserts; \
         workers {spawns} spawned / {reuses} reused",
        stats.hits, stats.misses, stats.inserts,
    );
    Ok(())
}

fn cmd_run_corpus(args: &[String]) -> i32 {
    let flags = match Flags::parse(
        args,
        &["--scenarios", "--baselines", "--workers", "--cache-dir"],
        &["--update", "--require-all-hits", "--via-service"],
    ) {
        Ok(flags) => flags,
        Err(e) => return usage(&e),
    };
    let scenarios = flags.value("--scenarios").unwrap_or("scenarios");
    let baselines = match flags.value("--baselines") {
        Some(dir) => dir.to_string(),
        None => format!("{scenarios}/baselines"),
    };
    let workers = match flags.parsed("--workers", 0usize) {
        Ok(w) => w,
        Err(e) => return usage(&e),
    };
    let cache: Option<Arc<dyn ReportCache>> = match flags.value("--cache-dir") {
        Some(dir) => match DiskCache::open(PathBuf::from(dir)) {
            Ok(c) => Some(Arc::new(c)),
            Err(e) => {
                eprintln!("hyperroute-grid run-corpus: {e}");
                return 1;
            }
        },
        None => None,
    };
    let opts = CorpusOptions {
        cache,
        require_all_hits: flags.switch("--require-all-hits"),
        via_service: flags.switch("--via-service"),
    };

    match run_corpus_with(
        scenarios.as_ref(),
        baselines.as_ref(),
        workers,
        flags.switch("--update"),
        &opts,
    ) {
        Ok(outcome) => {
            print!("{}", outcome.summary());
            let slowest = outcome.slowest(5);
            if !slowest.is_empty() {
                println!("slowest {}:", slowest.len());
                for (name, secs) in slowest {
                    println!("  {secs:8.3}s  {name}");
                }
            }
            if outcome.passed() {
                println!("corpus: {} scenarios ok", outcome.entries.len());
                0
            } else {
                println!("corpus: FAILED");
                1
            }
        }
        Err(e) => {
            eprintln!("hyperroute-grid run-corpus: {e}");
            1
        }
    }
}

fn cmd_validate_corpus(args: &[String]) -> i32 {
    let flags = match Flags::parse(args, &["--scenarios"], &["--fix"]) {
        Ok(flags) => flags,
        Err(e) => return usage(&e),
    };
    let scenarios = flags.value("--scenarios").unwrap_or("scenarios");
    match validate_corpus(scenarios.as_ref(), flags.switch("--fix")) {
        Ok(outcome) => {
            print!("{}", outcome.summary());
            if outcome.passed() {
                println!(
                    "validate-corpus: {} scenario files canonical",
                    outcome.entries.len()
                );
                0
            } else {
                println!("validate-corpus: FAILED");
                1
            }
        }
        Err(e) => {
            eprintln!("hyperroute-grid validate-corpus: {e}");
            1
        }
    }
}
