//! The sweep service: sharded campaign execution with warm workers, a
//! content-addressed report cache, and the scenario-corpus regression
//! gate.
//!
//! `hyperroute-core`'s [`Sweep`](hyperroute_core::scenario::Sweep) fans
//! out over local threads inside one process. This crate is everything
//! above that: it cuts any sweep into [`GridSlice`]s, runs them through
//! a pluggable [`ExecBackend`] (a worker process receives a slice as its
//! [`SliceJob`]: the scenarios of its own points), and deterministically
//! merges the out-of-order results back into the row-major
//! `Vec<Report>` that `Sweep::run` would have produced —
//! **byte-identical**, whatever the backend, worker count, completion
//! order, or cache state, because every grid point is a pure function
//! of the sweep spec and its index. That purity is load-bearing twice
//! over: it is what lets out-of-order shards merge exactly, and what
//! makes a report *cacheable by scenario hash* so repeated campaigns
//! cost zero simulation.
//!
//! # Layers
//!
//! | layer | type | job |
//! |---|---|---|
//! | slicing | [`GridSlice`], [`SliceJob`], [`partition`], [`merge`] | cut a grid into slices that share one sweep; ship each as a job of its own scenarios; reassemble results |
//! | execution | [`ExecBackend`]: [`ThreadPoolBackend`], [`SubprocessBackend`] | run slices in-process or on subprocess workers with retry/timeout |
//! | warm pools | [`WorkerPool`] | park live workers between campaigns; reuse instead of respawn |
//! | caching | [`ReportCache`]: [`MemoryCache`], [`DiskCache`] | serve reports by [`CacheKey`] (canonical-scenario × engine fingerprint) |
//! | dispatch | [`Campaign`] | probe the cache before simulating; cache every finished slice |
//! | service | [`SweepService`], [`serve`] | long-running daemon: submit/status/stream campaigns over NDJSON |
//! | regression | [`run_corpus`] | execute `scenarios/` and diff reports against checked-in baselines |
//!
//! # The service model
//!
//! Batch mode ([`Campaign::run`]) spawns workers, runs one campaign and
//! exits. The service ([`SweepService`], CLI `hyperroute-grid serve`)
//! inverts that: it stays resident, accepts campaigns continuously over
//! the NDJSON [`ServiceRequest`]/[`ServiceReply`] protocol (stdio, or a
//! unix socket via any stream relay), and keeps two things warm between
//! campaigns —
//!
//! * **Workers.** Subprocess workers speak the worker protocol (a
//!   `Hello` version handshake plus tagged [`WorkerRequest`] frames) and
//!   are parked in a [`WorkerPool`] when a campaign ends rather than
//!   killed; the next campaign checks them out, so process spawn +
//!   monomorphisation cost is paid once per fleet, not once per
//!   campaign. Both backends run on
//!   [`fan_out`](hyperroute_core::runner::fan_out): slices go out in
//!   partition order to one thread per worker, and a slice lost with its
//!   worker is retried by the same thread on a fresh process —
//!   scheduling never affects output bytes, only wall time.
//! * **Reports.** Every finished grid point is inserted into a
//!   [`ReportCache`] keyed by [`CacheKey`]: FNV-1a-128 over typed,
//!   length-prefixed words walked from the scenario's serde data model
//!   (no JSON text is built), folded with a key-scheme version and the
//!   engine fingerprint. Campaigns probe the cache before simulating and
//!   insert a slice's reports under the keys the probe computed, so a
//!   grid point is hashed once per campaign; resubmitting an identical
//!   (or overlapping) sweep performs zero simulations and still streams
//!   byte-identical reports. A fingerprint bump invalidates every cached
//!   report at once.
//!
//! # The worker protocol
//!
//! `hyperroute-grid worker` answers one terminal JSON [`WorkerReply`]
//! per job line, with throttled `Progress` heartbeat lines interleaved
//! while a long slice runs (see [`subprocess`] for the exact framing
//! and the fault model). The
//! [`SubprocessBackend`] speaks this protocol to any argv you give it —
//! the bundled binary for multi-core, or an ssh/container wrapper for
//! multi-machine — and treats heartbeats as keep-alives, so its timeout
//! bounds worker silence rather than slice duration. Wrap any backend
//! in a [`ProgressBackend`] to stream per-slice campaign progress to a
//! callback.
//!
//! # Resume through the cache
//!
//! [`Campaign::run_cached`] inserts a slice's reports the moment the
//! slice finishes, so a campaign killed mid-run and rerun over the same
//! [`DiskCache`] (`hyperroute-grid run --cache-dir DIR`) executes only
//! the slices with a point the cache misses. Every key folds in the
//! engine fingerprint, so a resume never merges reports from two
//! engines, and a different sweep over the same directory simply
//! misses. See [`campaign`].
//!
//! ```
//! use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};
//! use hyperroute_grid::{Campaign, MemoryCache, ReportCache, ThreadPoolBackend};
//!
//! let base = Scenario::builder(Topology::Hypercube { dim: 3 })
//!     .horizon(80.0)
//!     .warmup(20.0)
//!     .build()
//!     .unwrap();
//! let sweep = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.5, 1.0, 1.5])]);
//! let cache = MemoryCache::new(64);
//! let backend = ThreadPoolBackend::new(2);
//! let reports = Campaign::new(sweep.clone(), 1)
//!     .run_cached(&backend, &cache)
//!     .unwrap();
//! assert_eq!(reports, sweep.run(1).unwrap()); // same bytes, sharded
//!
//! // Resubmission simulates nothing: every point is a cache hit.
//! let again = Campaign::new(sweep, 1).run_cached(&backend, &cache).unwrap();
//! assert_eq!(again, reports);
//! assert_eq!(cache.stats().hits, 3);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod backend;
pub mod cache;
pub mod campaign;
pub mod corpus;
pub mod error;
pub mod service;
pub mod slice;
pub mod subprocess;
pub mod warm;

pub use backend::{ExecBackend, ProgressBackend, ProgressUpdate, ThreadPoolBackend};
pub use cache::{CacheKey, CacheStats, DiskCache, MemoryCache, ReportCache};
pub use campaign::Campaign;
pub use corpus::{
    run_corpus, run_corpus_with, validate_corpus, CorpusEntry, CorpusOptions, CorpusOutcome,
    CorpusStatus, RoundTripOutcome, RoundTripStatus,
};
pub use error::GridError;
pub use service::{
    serve, CampaignState, ServiceConfig, ServiceReply, ServiceRequest, SweepService,
};
pub use slice::{merge, partition, GridSlice, SliceJob, SliceResult};
pub use subprocess::{
    run_worker, run_worker_with, SubprocessBackend, WorkerReply, WorkerRequest, PROTOCOL_VERSION,
};
pub use warm::WorkerPool;
