//! End-to-end tests of the sharded execution engine.
//!
//! The load-bearing guarantees proved here:
//!
//! * **Differential**: thread-pool and subprocess backends, at any worker
//!   count and slice length, produce a `Vec<Report>` *byte-identical*
//!   (compared as serialised JSON, which is also what `Report`'s
//!   `PartialEq` compares) to in-process `Sweep::run`.
//! * **Kill and resume**: a campaign aborted mid-flight resumes from its
//!   disk report cache recomputing only the unfinished slices.
//! * **Fault handling**: a crashed worker's slice is retried on a fresh
//!   process; an unresponsive worker times out and, once the retry
//!   budget is spent, fails the campaign instead of hanging it.
//! * **Sweep edge cases**: empty axes and single-point grids behave
//!   identically across every execution path.

use hyperroute_core::scenario::{Axis, Report, Scenario, Sweep, SweepParam, Topology};
use hyperroute_grid::{
    partition, Campaign, CampaignState, DiskCache, ExecBackend, GridError, GridSlice, MemoryCache,
    ReportCache, ServiceConfig, ServiceReply, ServiceRequest, SliceResult, SubprocessBackend,
    SweepService, ThreadPoolBackend, WorkerPool, WorkerReply, PROTOCOL_VERSION,
};
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Path of the real worker binary Cargo built for this test run.
fn grid_bin() -> String {
    env!("CARGO_BIN_EXE_hyperroute-grid").to_string()
}

fn temp_dir(tag: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = std::env::temp_dir().join(format!(
        "hyperroute-grid-it-{tag}-{}-{}",
        std::process::id(),
        SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn hypercube_sweep() -> Sweep {
    let base = Scenario::builder(Topology::Hypercube { dim: 3 })
        .lambda(0.8)
        .p(0.5)
        .horizon(80.0)
        .warmup(20.0)
        .seed(41)
        .build()
        .unwrap();
    Sweep::new(
        base,
        vec![
            Axis::new(SweepParam::Lambda, vec![0.5, 1.0, 1.5]),
            Axis::new(SweepParam::P, vec![0.25, 0.75]),
        ],
    )
}

fn butterfly_sweep() -> Sweep {
    let base = Scenario::builder(Topology::Butterfly { dim: 3 })
        .lambda(0.6)
        .horizon(80.0)
        .warmup(20.0)
        .seed(17)
        .build()
        .unwrap();
    Sweep::new(
        base,
        vec![Axis::new(SweepParam::Lambda, vec![0.4, 0.8, 1.2])],
    )
}

/// The fifth topology through the same machinery: a Dim axis on a ring
/// sweeps its node count.
fn ring_sweep() -> Sweep {
    let base = Scenario::builder(Topology::Ring {
        nodes: 8,
        bidirectional: true,
    })
    .lambda(0.12)
    .horizon(80.0)
    .warmup(20.0)
    .seed(53)
    .build()
    .unwrap();
    Sweep::new(
        base,
        vec![
            Axis::new(SweepParam::Dim, vec![8.0, 12.0]),
            Axis::new(SweepParam::Lambda, vec![0.08, 0.16]),
        ],
    )
}

/// Byte-level report comparison: JSON text equality is stricter than any
/// tolerance and exactly what the corpus gate stores.
fn as_json(reports: &[Report]) -> String {
    serde_json::to_string(&reports.to_vec()).unwrap()
}

#[test]
fn thread_pool_byte_identical_to_sweep_run_for_1_2_8_workers() {
    for sweep in [hypercube_sweep(), butterfly_sweep(), ring_sweep()] {
        let direct = sweep.run(1).unwrap();
        for workers in [1, 2, 8] {
            for slice_len in [1, 4] {
                let got = Campaign::new(sweep.clone(), slice_len)
                    .run(&ThreadPoolBackend::new(workers))
                    .unwrap();
                assert_eq!(got, direct, "workers={workers} slice_len={slice_len}");
                assert_eq!(
                    as_json(&got),
                    as_json(&direct),
                    "JSON bytes differ at workers={workers} slice_len={slice_len}"
                );
            }
        }
    }
}

#[test]
fn subprocess_byte_identical_to_sweep_run_for_1_2_8_workers() {
    let sweep = hypercube_sweep();
    let direct = sweep.run(1).unwrap();
    for workers in [1, 2, 8] {
        let backend = SubprocessBackend::new(vec![grid_bin(), "worker".into()], workers);
        let got = Campaign::new(sweep.clone(), 2).run(&backend).unwrap();
        assert_eq!(got, direct, "workers={workers}");
        assert_eq!(as_json(&got), as_json(&direct), "workers={workers}");
    }
}

#[test]
fn subprocess_byte_identical_for_ring_sweep() {
    // The new topology crosses the process boundary (scenario JSON in,
    // report JSON out) bit-exactly, like the paper's topologies.
    let sweep = ring_sweep();
    let direct = sweep.run(1).unwrap();
    let backend = SubprocessBackend::new(vec![grid_bin(), "worker".into()], 2);
    let got = Campaign::new(sweep, 2).run(&backend).unwrap();
    assert_eq!(got, direct);
    assert_eq!(as_json(&got), as_json(&direct));
}

/// Backend adapter that delivers `limit` results and then reports the
/// process as dead — the observable behaviour of a kill arriving between
/// two slices' cache inserts.
struct AbortAfter<B> {
    inner: B,
    limit: usize,
}

impl<B: ExecBackend> ExecBackend for AbortAfter<B> {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        let mut delivered = 0usize;
        self.inner.execute(jobs, &mut |result| {
            if delivered == self.limit {
                return Err(GridError::Merge("simulated kill".into()));
            }
            on_result(result)?;
            delivered += 1;
            Ok(())
        })
    }
}

/// Backend adapter counting how many slices the campaign actually hands
/// to the executor.
struct Counting<'a, B> {
    inner: B,
    executed: &'a AtomicUsize,
}

impl<B: ExecBackend> ExecBackend for Counting<'_, B> {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        self.executed.fetch_add(jobs.len(), Ordering::Relaxed);
        self.inner.execute(jobs, on_result)
    }
}

#[test]
fn kill_and_resume_recomputes_only_unfinished_slices() {
    let sweep = hypercube_sweep(); // 6 points → 6 slices at slice_len 1
    let direct = sweep.run(1).unwrap();
    let dir = temp_dir("kill-resume");
    let campaign = Campaign::new(sweep, 1);

    // Phase 1: die after 2 delivered slices.
    let cache = DiskCache::open(&dir).unwrap();
    let err = campaign
        .run_cached(
            &AbortAfter {
                inner: ThreadPoolBackend::new(1),
                limit: 2,
            },
            &cache,
        )
        .unwrap_err();
    assert!(matches!(err, GridError::Merge(_)));
    assert_eq!(
        cache.stats().inserts,
        2,
        "exactly the delivered slices persist"
    );

    // Phase 2: resume with a fresh handle, as a restarted process would —
    // only the 4 unfinished slices may execute.
    let executed = AtomicUsize::new(0);
    let got = campaign
        .run_cached(
            &Counting {
                inner: ThreadPoolBackend::new(2),
                executed: &executed,
            },
            &DiskCache::open(&dir).unwrap(),
        )
        .unwrap();
    assert_eq!(executed.load(Ordering::Relaxed), 4);
    assert_eq!(got, direct);
    assert_eq!(as_json(&got), as_json(&direct));

    // Phase 3: a fully cached campaign recomputes nothing, even on the
    // subprocess backend.
    let executed = AtomicUsize::new(0);
    let again = campaign
        .run_cached(
            &Counting {
                inner: SubprocessBackend::new(vec![grid_bin(), "worker".into()], 2),
                executed: &executed,
            },
            &DiskCache::open(&dir).unwrap(),
        )
        .unwrap();
    assert_eq!(executed.load(Ordering::Relaxed), 0);
    assert_eq!(again, direct);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A stub worker that answers the `Hello` handshake, so that whatever
/// `then` does happens after a slice was sent.
fn handshaking_stub(then: &str) -> String {
    let hello = serde_json::to_string(&WorkerReply::HelloOk {
        version: PROTOCOL_VERSION,
    })
    .unwrap();
    format!("read line; echo '{hello}'; {then}")
}

#[test]
fn crashed_worker_slice_is_retried_on_a_fresh_process() {
    // First spawn: complete the handshake, accept one slice, record it
    // in the marker and exit without replying (a crash mid-slice). Every
    // later spawn: the real worker. Without retries the campaign reports
    // the crash; with them it still produces byte-identical output.
    let dir = temp_dir("flaky");
    let marker = dir.join("crashed-once");
    let crash = handshaking_stub(&format!(
        r#"read line; printf '%s\n' "$line" > {m}; exit 0"#,
        m = marker.display()
    ));
    let script = format!(
        "if [ ! -e {m} ]; then : > {m}; {crash}; fi; exec {bin} worker",
        m = marker.display(),
        bin = grid_bin()
    );
    let cmd = vec!["sh".to_string(), "-c".to_string(), script];
    let sweep = hypercube_sweep();

    let err = Campaign::new(sweep.clone(), 3)
        .run(&SubprocessBackend::new(cmd.clone(), 1).with_max_retries(0))
        .unwrap_err();
    let GridError::SliceLost {
        attempts,
        last_error,
        ..
    } = err
    else {
        panic!("expected SliceLost, got {err:?}");
    };
    assert_eq!(attempts, 1);
    assert_eq!(last_error, "worker exited before replying");

    std::fs::remove_file(&marker).unwrap();
    let direct = sweep.run(1).unwrap();
    let backend = SubprocessBackend::new(cmd, 1).with_max_retries(2);
    let got = Campaign::new(sweep, 3).run(&backend).unwrap();
    let accepted = std::fs::read_to_string(&marker).unwrap();
    assert!(
        accepted.starts_with("{\"Slice\":"),
        "the flaky worker must crash holding a slice, got {accepted:?}"
    );
    assert_eq!(got, direct);
    assert_eq!(as_json(&got), as_json(&direct));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn unresponsive_worker_times_out_and_exhausts_retries() {
    // A worker that completes the handshake, then swallows jobs forever:
    // every attempt times out on the slice, and after the retry budget
    // the campaign aborts with SliceLost instead of hanging.
    let sweep = Sweep::new(
        Scenario::builder(Topology::Hypercube { dim: 3 })
            .horizon(40.0)
            .warmup(10.0)
            .build()
            .unwrap(),
        vec![Axis::new(SweepParam::Lambda, vec![0.5])],
    );
    let stub = handshaking_stub("cat > /dev/null");
    let backend = SubprocessBackend::new(vec!["sh".into(), "-c".into(), stub], 1)
        .with_timeout(Duration::from_millis(500))
        .with_max_retries(1);
    let err = Campaign::new(sweep, 1).run(&backend).unwrap_err();
    let GridError::SliceLost {
        slice,
        attempts,
        last_error,
    } = err
    else {
        panic!("expected SliceLost, got {err:?}");
    };
    assert_eq!(slice, 0);
    assert_eq!(attempts, 2, "one original attempt + one retry");
    assert_eq!(last_error, "no reply or heartbeat within 0.5s");
}

#[test]
fn a_parked_worker_that_died_costs_no_retry() {
    // The stub answers `Hello`, pipes one `Slice` line into a real worker
    // and exits with it, so the process its thread parks after the first
    // campaign is already dead. The second campaign's checkout ping must
    // discard it and spawn a fresh one without spending a retry: with a
    // budget of zero, a retry would fail the campaign.
    let stub = handshaking_stub(&format!(
        r#"read line; printf '%s\n' "$line" | {bin} worker"#,
        bin = grid_bin()
    ));
    let pool = Arc::new(WorkerPool::new());
    let backend = SubprocessBackend::new(vec!["sh".into(), "-c".into(), stub], 1)
        .with_max_retries(0)
        .with_pool(Arc::clone(&pool));
    let base = hypercube_sweep().base;
    for (campaign, lambda) in [0.5, 1.1].into_iter().enumerate() {
        let sweep = Sweep::new(
            base.clone(),
            vec![Axis::new(SweepParam::Lambda, vec![lambda])],
        );
        let direct = sweep.run(1).unwrap();
        let got = Campaign::new(sweep, 1).run(&backend).unwrap();
        assert_eq!(as_json(&got), as_json(&direct), "campaign {campaign}");
        assert_eq!(
            pool.idle_workers(),
            1,
            "the stub is parked after campaign {campaign}"
        );
    }
    assert_eq!((pool.spawns(), pool.reuses()), (2, 0));
}

// ---------------------------------------------------------------------
// Sweep edge cases under the new backends.
// ---------------------------------------------------------------------

#[test]
fn empty_axis_yields_empty_grid_on_every_path() {
    let base = hypercube_sweep().base;
    let sweep = Sweep::new(
        base,
        vec![
            Axis::new(SweepParam::Lambda, vec![0.5, 1.0]),
            Axis::new(SweepParam::P, vec![]), // empties the whole grid
        ],
    );
    assert!(sweep.is_empty());
    assert_eq!(sweep.len(), 0);
    assert!(sweep.run(4).unwrap().is_empty());
    assert!(partition(&sweep, 3).is_empty());
    assert!(Campaign::new(sweep.clone(), 3)
        .run(&ThreadPoolBackend::new(4))
        .unwrap()
        .is_empty());
    assert!(Campaign::new(sweep, 3)
        .run(&SubprocessBackend::new(
            vec![grid_bin(), "worker".into()],
            2
        ))
        .unwrap()
        .is_empty());
}

#[test]
fn single_point_grid_is_identical_on_every_path() {
    let base = hypercube_sweep().base;
    let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![1.1])]);
    assert_eq!(sweep.len(), 1);
    let direct = sweep.run(1).unwrap();
    // The single point still gets a derived (not base) seed.
    assert_eq!(sweep.scenario_at(0).unwrap().run.seed, sweep.seed_for(0));
    for workers in [1, 2, 8] {
        let threads = Campaign::new(sweep.clone(), 5)
            .run(&ThreadPoolBackend::new(workers))
            .unwrap();
        assert_eq!(threads, direct);
        let sub = Campaign::new(sweep.clone(), 5)
            .run(&SubprocessBackend::new(
                vec![grid_bin(), "worker".into()],
                workers,
            ))
            .unwrap();
        assert_eq!(sub, direct);
        assert_eq!(as_json(&sub), as_json(&direct));
    }
}

// ---------------------------------------------------------------------
// Grid v2: warm worker pools and the content-addressed report cache.
// ---------------------------------------------------------------------

#[test]
fn cold_warm_and_cached_paths_byte_identical_at_1_2_8_workers() {
    // The three execution paths a campaign can take under the sweep
    // service — cold subprocess, warm-pooled subprocess, and cache-backed
    // — must all reproduce in-process `Sweep::run` to the byte.
    let sweep = hypercube_sweep();
    let direct = sweep.run(1).unwrap();
    for workers in [1, 2, 8] {
        // Cold: a fresh backend, whose private pool starts empty.
        let cold = Campaign::new(sweep.clone(), 2)
            .run(&SubprocessBackend::new(
                vec![grid_bin(), "worker".into()],
                workers,
            ))
            .unwrap();
        assert_eq!(as_json(&cold), as_json(&direct), "cold workers={workers}");

        // Warm: same campaign through a shared worker pool.
        let pool = Arc::new(WorkerPool::new());
        let warm_backend = SubprocessBackend::new(vec![grid_bin(), "worker".into()], workers)
            .with_pool(Arc::clone(&pool));
        let warm = Campaign::new(sweep.clone(), 2).run(&warm_backend).unwrap();
        assert_eq!(as_json(&warm), as_json(&direct), "warm workers={workers}");

        // Cached: run the pooled campaign again through a cache, twice.
        let cache = MemoryCache::new(64);
        let first = Campaign::new(sweep.clone(), 2)
            .run_cached(&warm_backend, &cache)
            .unwrap();
        let second = Campaign::new(sweep.clone(), 2)
            .run_cached(&warm_backend, &cache)
            .unwrap();
        assert_eq!(as_json(&first), as_json(&direct), "cache-miss pass");
        assert_eq!(as_json(&second), as_json(&direct), "cache-hit pass");
        let stats = cache.stats();
        assert_eq!(
            stats.hits as usize,
            sweep.len(),
            "second pass must be all hits (workers={workers}): {stats:?}"
        );
        pool.shutdown();
    }
}

#[test]
fn warm_pool_reuses_real_workers_across_campaigns() {
    // Two campaigns against one pool: the second must be served by the
    // processes the first spawned, not by new ones.
    let sweep = hypercube_sweep();
    let direct = sweep.run(1).unwrap();
    let pool = Arc::new(WorkerPool::new());
    let backend =
        SubprocessBackend::new(vec![grid_bin(), "worker".into()], 2).with_pool(Arc::clone(&pool));

    let first = Campaign::new(sweep.clone(), 2).run(&backend).unwrap();
    assert_eq!(as_json(&first), as_json(&direct));
    let spawned = pool.spawns();
    assert!(spawned >= 1, "first campaign must spawn workers");
    assert!(pool.idle_workers() >= 1, "workers must park, not die");

    let second = Campaign::new(sweep, 2).run(&backend).unwrap();
    assert_eq!(as_json(&second), as_json(&direct));
    assert!(
        pool.reuses() >= 1,
        "second campaign must reuse parked workers (spawns {spawned} -> {})",
        pool.spawns()
    );
    pool.shutdown();
    assert_eq!(pool.idle_workers(), 0, "shutdown drains the pool");
}

#[test]
fn backend_without_a_shared_pool_reuses_its_own_workers() {
    // `SubprocessBackend::new` parks its workers in a private pool, so a
    // second campaign on the same backend spawns nothing. Every spawn
    // appends a line to the log, and no worker starts serving until two
    // have been spawned: that barrier makes the first campaign start
    // both workers.
    let dir = temp_dir("private-pool");
    let log = dir.join("spawns.log");
    let script = format!(
        "echo spawn >> {log}; until [ \"$(wc -l < {log})\" -ge 2 ]; do sleep 0.01; done; \
         exec {bin} worker",
        log = log.display(),
        bin = grid_bin()
    );
    let sweep = hypercube_sweep();
    let direct = sweep.run(1).unwrap();
    let backend = SubprocessBackend::new(vec!["sh".into(), "-c".into(), script], 2);
    for pass in 0..2 {
        let got = Campaign::new(sweep.clone(), 1).run(&backend).unwrap();
        assert_eq!(as_json(&got), as_json(&direct), "pass {pass}");
    }
    let spawns = std::fs::read_to_string(&log).unwrap().lines().count();
    assert_eq!(spawns, 2, "the second campaign must reuse both workers");
    std::fs::remove_dir_all(&dir).unwrap();
}

// ---------------------------------------------------------------------
// CLI surface.
// ---------------------------------------------------------------------

#[test]
fn cli_run_executes_a_sweep_file_and_resumes_from_its_cache_dir() {
    let dir = temp_dir("cli-run");
    let sweep = butterfly_sweep();
    let direct = sweep.run(1).unwrap();
    let sweep_path = dir.join("sweep.json");
    std::fs::write(&sweep_path, serde_json::to_string_pretty(&sweep).unwrap()).unwrap();
    let out_path = dir.join("reports.json");
    // The second run over the same cache directory is served entirely
    // from it: every grid point hits, nothing is inserted.
    for expect in [
        "cache 0 hits / 3 misses / 3 inserts",
        "cache 3 hits / 0 misses / 0 inserts",
    ] {
        let output = std::process::Command::new(grid_bin())
            .args([
                "run",
                "--sweep",
                sweep_path.to_str().unwrap(),
                "--backend",
                "subprocess",
                "--workers",
                "2",
                "--slice-len",
                "2",
                "--cache-dir",
                dir.join("cache").to_str().unwrap(),
                "--out",
                out_path.to_str().unwrap(),
            ])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(output.status.success(), "{stderr}");
        assert!(stderr.contains(expect), "expected `{expect}` in:\n{stderr}");
        let reports: Vec<Report> =
            serde_json::from_str(&std::fs::read_to_string(&out_path).unwrap()).unwrap();
        assert_eq!(reports, direct);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn cli_serve_streams_reports_and_caches_resubmission() {
    // The full service loop over the real binary: submit a campaign as
    // one NDJSON line, stream its reports back, resubmit the identical
    // campaign, and require that the second submission is served
    // entirely from the report cache (zero new simulations).
    let sweep = butterfly_sweep();
    let direct = sweep.run(1).unwrap();
    let mut child = std::process::Command::new(grid_bin())
        .args(["serve", "--backend", "subprocess", "--workers", "2"])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    let mut stdin = child.stdin.take().unwrap();
    let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
    let mut ask = |req: &ServiceRequest| {
        let mut line = serde_json::to_string(req).unwrap();
        line.push('\n');
        stdin.write_all(line.as_bytes()).unwrap();
        stdin.flush().unwrap();
    };
    fn collect_results(
        lines: &mut impl Iterator<Item = std::io::Result<String>>,
        campaign: u64,
    ) -> Vec<Report> {
        let mut reports: Vec<Report> = Vec::new();
        loop {
            let line = lines.next().expect("service closed mid-stream").unwrap();
            match serde_json::from_str::<ServiceReply>(&line).unwrap() {
                ServiceReply::Report {
                    campaign: c,
                    index,
                    report,
                } => {
                    assert_eq!(c, campaign);
                    assert_eq!(index, reports.len(), "reports stream in grid order");
                    reports.push(report);
                }
                ServiceReply::ResultsDone {
                    campaign: c,
                    points,
                } => {
                    assert_eq!(c, campaign);
                    assert_eq!(points, reports.len());
                    return reports;
                }
                other => panic!("unexpected reply in result stream: {other:?}"),
            }
        }
    }

    for pass in 0..2u64 {
        ask(&ServiceRequest::Submit {
            sweep: sweep.clone(),
            slice_len: 0,
        });
        let line = lines.next().unwrap().unwrap();
        let ServiceReply::Accepted { campaign } = serde_json::from_str(&line).unwrap() else {
            panic!("expected Accepted, got {line}");
        };
        assert_eq!(campaign, pass);
        ask(&ServiceRequest::Results { campaign });
        let reports = collect_results(&mut lines, campaign);
        assert_eq!(as_json(&reports), as_json(&direct), "pass {pass}");
    }

    ask(&ServiceRequest::Shutdown);
    let line = lines.next().unwrap().unwrap();
    assert_eq!(
        serde_json::from_str::<ServiceReply>(&line).unwrap(),
        ServiceReply::Bye
    );
    drop(stdin);
    let output = child.wait_with_output().unwrap();
    assert!(output.status.success());
    // The service's exit summary proves the second pass was pure cache:
    // one miss+insert per grid point, then one hit per grid point.
    let stderr = String::from_utf8_lossy(&output.stderr);
    let expect = format!("cache {n} hits / {n} misses / {n} inserts", n = sweep.len());
    assert!(
        stderr.contains(&expect),
        "expected `{expect}` in serve summary:\n{stderr}"
    );
}

#[test]
fn cli_checked_in_corpus_matches_baselines() {
    // The regression gate itself: the repository's scenario corpus must
    // reproduce its checked-in baselines bit-exactly.
    let repo_scenarios = concat!(env!("CARGO_MANIFEST_DIR"), "/../../scenarios");
    let output = std::process::Command::new(grid_bin())
        .args(["run-corpus", "--scenarios", repo_scenarios])
        .output()
        .unwrap();
    assert!(
        output.status.success(),
        "corpus gate failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn service_on_subprocess_workers_reproduces_every_corpus_baseline() {
    // The corpus gate runs the service on in-process threads; this runs
    // every checked-in scenario as a one-point campaign through a
    // service whose workers are real subprocesses, and holds each report
    // to its baseline's JSON.
    let scenarios = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&scenarios)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|ext| ext == "json"))
        .collect();
    files.sort();
    assert!(!files.is_empty());
    let service = SweepService::new(
        ServiceConfig {
            workers: 2,
            worker_cmd: Some(vec![grid_bin(), "worker".into()]),
            ..ServiceConfig::default()
        },
        Arc::new(MemoryCache::new(64)),
    );
    for path in &files {
        let scenario = Scenario::from_json(&std::fs::read_to_string(path).unwrap()).unwrap();
        let mut sweep = Sweep::new(scenario, Vec::new());
        sweep.derive_seeds = false;
        let id = service.submit(sweep, 1).unwrap();
        assert_eq!(
            service.wait(id),
            CampaignState::Done { points: 1 },
            "{path:?}"
        );
        let report = service.results(id).unwrap().remove(0);
        let stem = path.file_stem().unwrap().to_str().unwrap();
        let baseline = scenarios.join(format!("baselines/{stem}.report.json"));
        let json = serde_json::to_string_pretty(&report).unwrap() + "\n";
        assert_eq!(json, std::fs::read_to_string(baseline).unwrap(), "{stem}");
    }
    assert!(service.pool().reuses() >= 1, "campaigns share warm workers");
    service.shutdown();
}

#[test]
fn cli_rejects_unknown_flags_with_usage() {
    // A misspelt flag must not be dropped: `--require-all-hit` would
    // silently turn the cache-differential gate off, and a removed flag
    // must fail loudly rather than be ignored.
    let dir = temp_dir("cli-flags");
    let scenarios = dir.join("scenarios");
    std::fs::create_dir_all(&scenarios).unwrap();
    let s = Scenario::builder(Topology::Hypercube { dim: 3 })
        .lambda(0.8)
        .horizon(40.0)
        .warmup(10.0)
        .seed(9)
        .build()
        .unwrap();
    std::fs::write(scenarios.join("tiny.json"), s.to_json()).unwrap();
    let scenarios = scenarios.to_str().unwrap();
    let cache = dir.join("cache");
    let cache = cache.to_str().unwrap();
    let grid = |args: &[&str]| {
        std::process::Command::new(grid_bin())
            .args(args)
            .stdin(std::process::Stdio::null())
            .output()
            .unwrap()
    };
    let corpus = |extra: &[&str]| {
        let mut args = vec!["run-corpus", "--scenarios", scenarios];
        args.extend_from_slice(extra);
        grid(&args)
    };
    assert!(corpus(&["--update"]).status.success());
    // The correctly spelt gate fails on a fresh cache: nothing was served.
    let strict = corpus(&["--cache-dir", cache, "--require-all-hits"]);
    assert_eq!(strict.status.code(), Some(1));

    for bad in [
        corpus(&["--cache-dir", cache, "--require-all-hit"]),
        corpus(&["--intra-workers", "2"]),
        corpus(&["--only", "tiny"]),
        grid(&["run", "--sweep", "missing.json", "--worker", "2"]),
        grid(&["run", "--sweep", "missing.json", "--checkpoint", cache]),
        corpus(&["--via-service"]),
        corpus(&["--workers", "2"]),
        grid(&["serve", "--cache", cache]),
        grid(&["validate-corpus", "--scenarios", scenarios, "--fixx"]),
        grid(&["worker", "--fast"]),
    ] {
        let stderr = String::from_utf8_lossy(&bad.stderr);
        assert_eq!(bad.status.code(), Some(2), "{stderr}");
        assert!(stderr.contains("unknown argument"), "{stderr}");
        assert!(stderr.contains("usage:"), "{stderr}");
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
