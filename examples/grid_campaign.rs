//! A sharded sweep campaign through `hyperroute-grid`: the paper's delay
//! grid cut into slices, executed on subprocess workers, cached in a
//! disk report cache, and merged back byte-identical to the in-process
//! `Sweep::run`.
//!
//! What this demonstrates, end to end:
//!
//! 1. **Slicing** — the sweep is partitioned into
//!    [`hyperroute_grid::GridSlice`]s; each ships to a worker as a
//!    [`hyperroute_grid::SliceJob`] that holds only its own points'
//!    scenarios, one JSON line that can cross a process/machine
//!    boundary.
//! 2. **Backends** — the same campaign runs on the in-process thread
//!    pool and on `hyperroute-grid worker` subprocesses speaking the
//!    NDJSON protocol; both merge to identical reports.
//! 3. **Resume** — every finished slice lands in the disk report cache;
//!    rerun the campaign over the same directory and it resumes (here:
//!    recomputes nothing and still produces the same bytes).
//!
//! Run with `cargo run --release --example grid_campaign`.

use hyperroute::prelude::*;
use hyperroute::routing::scenario::{Axis, SweepParam};
use hyperroute_grid::{
    partition, Campaign, DiskCache, ReportCache, SubprocessBackend, ThreadPoolBackend,
};

fn main() {
    let p = 0.5;
    let base = Scenario::builder(Topology::Hypercube { dim: 6 })
        .p(p)
        .horizon(1_000.0)
        .warmup(200.0)
        .seed(0x6121D)
        .build()
        .expect("valid scenario");
    let sweep = Sweep::new(
        base,
        vec![
            Axis::new(SweepParam::Dim, vec![4.0, 6.0]),
            Axis::new(SweepParam::Lambda, vec![0.6, 1.0, 1.4, 1.7]),
        ],
    );

    let slice_len = 2;
    println!(
        "campaign: {} grid points in {} slices of ≤{slice_len}\n",
        sweep.len(),
        partition(&sweep, slice_len).len(),
    );

    // Reference: the plain in-process sweep.
    let direct = sweep.run(0).expect("sweep runs");

    // Same grid through the thread-pool backend.
    let threads = Campaign::new(sweep.clone(), slice_len)
        .run(&ThreadPoolBackend::new(0))
        .expect("thread-pool campaign runs");
    assert_eq!(threads, direct);
    println!(
        "thread-pool backend: {} reports, identical to Sweep::run",
        threads.len()
    );

    // Same grid again on subprocess workers (this very binary has no
    // `worker` mode, so spawn the real `hyperroute-grid` CLI if it is
    // built; otherwise skip gracefully).
    let grid_bin =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("target/release/hyperroute-grid");
    if grid_bin.exists() {
        let dir = std::env::temp_dir().join(format!("grid-campaign-{}", std::process::id()));
        let backend =
            SubprocessBackend::new(vec![grid_bin.display().to_string(), "worker".into()], 4);
        let campaign = Campaign::new(sweep.clone(), slice_len);
        let cache = DiskCache::open(&dir).expect("cache directory opens");
        let subprocess = campaign
            .run_cached(&backend, &cache)
            .expect("subprocess campaign runs");
        assert_eq!(subprocess, direct);
        println!(
            "subprocess backend:  {} reports, identical to Sweep::run",
            subprocess.len()
        );

        // Resume with a fresh handle, as a restarted process would: every
        // report is cached, so this recomputes nothing.
        let reopened = DiskCache::open(&dir).expect("cache directory opens");
        let resumed = campaign
            .run_cached(&backend, &reopened)
            .expect("resume runs");
        assert_eq!(resumed, direct);
        assert_eq!(reopened.stats().hits as usize, sweep.len());
        println!(
            "resume from {}: all {} points served from the cache",
            dir.display(),
            sweep.len()
        );
        let _ = std::fs::remove_dir_all(&dir);
    } else {
        println!(
            "subprocess backend:  skipped (build the CLI first: cargo build --release -p hyperroute-grid)"
        );
    }

    println!("\n   d    λ      ρ    T_meas");
    for (i, report) in direct.iter().enumerate() {
        let dims = [4usize, 6];
        let lambdas = [0.6, 1.0, 1.4, 1.7];
        let d = dims[i / lambdas.len()];
        let lambda = lambdas[i % lambdas.len()];
        println!(
            "{d:4} {lambda:5.2} {rho:6.2}  {t:8.3}",
            rho = lambda * p,
            t = report.delay.mean,
        );
    }
    println!("\n✓ sharded execution is byte-identical to the in-process sweep");
}
