//! The persistent sweep service: submit campaigns, keep workers warm,
//! serve repeats from the report cache.
//!
//! [`SweepService`] is the long-running form of [`crate::Campaign`]: a
//! background runner thread consumes a **bounded** submit queue (the
//! backpressure boundary — a full queue rejects instead of buffering
//! without limit), executes each campaign through
//! [`Campaign::run_cached`] over the service's [`ReportCache`], and
//! keeps subprocess workers alive between campaigns in a
//! [`WorkerPool`]. Submitting the same sweep twice therefore performs
//! zero simulations the second time, and submitting different sweeps
//! back to back reuses the same warm worker fleet.
//!
//! [`serve`] is the daemon front: newline-delimited JSON requests in,
//! newline-delimited JSON replies out — the same NDJSON discipline as
//! the worker protocol, one framing for the whole stack. Run it over
//! stdio (`hyperroute-grid serve`) and bridge to a unix socket with any
//! stream relay (`socat UNIX-LISTEN:… EXEC:"hyperroute-grid serve"`)
//! when a filesystem endpoint is wanted.
//!
//! ```text
//! client → service:  {"Submit":{"sweep":{…},"slice_len":1}}\n
//! service → client:  {"Accepted":{"campaign":0}}\n
//! client → service:  {"Status":{"campaign":0}}\n
//! service → client:  {"Status":{"campaign":0,"state":"Running","cache":{…}}}\n
//! client → service:  {"Results":{"campaign":0}}\n                 (blocks until done)
//! service → client:  {"Report":{"campaign":0,"index":0,"report":{…}}}\n   (one per point)
//!                    {"ResultsDone":{"campaign":0,"points":6}}\n
//! client → service:  "Shutdown"\n
//! service → client:  "Bye"\n
//! ```
//!
//! Campaign output through the service is **byte-identical** to
//! `Sweep::run`: the cache serves the same pure function it memoises,
//! and warm workers execute the same pure slices — the differential
//! tests in `tests/grid_exec.rs` hold all three paths (in-process,
//! cold subprocess, warm cached service) to the same bytes.

use crate::backend::ThreadPoolBackend;
use crate::cache::{CacheStats, ReportCache};
use crate::campaign::Campaign;
use crate::error::GridError;
use crate::subprocess::{next_request, SubprocessBackend};
use crate::warm::WorkerPool;
use hyperroute_core::scenario::{Report, Sweep};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{BufRead, Write};
use std::sync::mpsc::{self, TrySendError};
use std::sync::{Arc, Condvar, Mutex};

/// How a [`SweepService`] executes and queues campaigns.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Grid points per slice for submits that don't specify one
    /// (`slice_len == 0` in [`ServiceRequest::Submit`]). The default of
    /// 1 caches at exact per-point granularity, so overlapping sweeps
    /// reuse each other's points.
    pub slice_len: usize,
    /// Worker parallelism per campaign (`0` = hardware parallelism).
    pub workers: usize,
    /// Worker argv for subprocess execution; `None` executes campaigns
    /// in-process on a thread pool (no warm pool involved).
    pub worker_cmd: Option<Vec<String>>,
    /// Campaigns the submit queue holds before rejecting — the
    /// backpressure bound.
    pub queue_capacity: usize,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            slice_len: 1,
            workers: 0,
            worker_cmd: None,
            queue_capacity: 16,
        }
    }
}

/// Where a submitted campaign is in its lifecycle.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum CampaignState {
    /// Accepted, waiting for the runner.
    Queued,
    /// Executing now.
    Running,
    /// Finished; results are available until they are read once.
    Done {
        /// Grid points in the result.
        points: usize,
    },
    /// Execution failed.
    Failed {
        /// The failure, stringified.
        error: String,
    },
    /// No campaign with that id was ever accepted.
    Unknown,
}

impl CampaignState {
    /// Whether the state can no longer change.
    pub fn is_terminal(&self) -> bool {
        matches!(
            self,
            CampaignState::Done { .. } | CampaignState::Failed { .. } | CampaignState::Unknown
        )
    }
}

/// One request line of the service protocol.
// Wire enum: `Submit` carries the whole sweep by design; boxing would
// complicate the stable NDJSON framing for a transient value.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServiceRequest {
    /// Submit a campaign: answered by `Accepted` or `Rejected`.
    Submit {
        /// The parameter grid to execute.
        sweep: Sweep,
        /// Grid points per slice; `0` takes [`ServiceConfig::slice_len`].
        slice_len: usize,
    },
    /// Ask where a campaign is: answered by `Status`.
    Status {
        /// The id from `Accepted`.
        campaign: u64,
    },
    /// Stream a campaign's reports (blocks until it finishes): answered
    /// by one `Report` line per grid point, then `ResultsDone` — or
    /// `Error` for unknown/failed campaigns. A campaign's reports stream
    /// once: the service lets go of them as it sends them, so a second
    /// `Results` for the same campaign is answered by one `Error`.
    Results {
        /// The id from `Accepted`.
        campaign: u64,
    },
    /// Stop serving: answered by `Bye`, then the connection closes.
    /// Queued campaigns still drain before the service object shuts
    /// down.
    Shutdown,
}

/// One reply line of the service protocol.
// Wire enum: `Report` dominates the size; see `ServiceRequest`.
#[allow(clippy::large_enum_variant)]
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ServiceReply {
    /// The campaign is queued under this id.
    Accepted {
        /// Handle for `Status` / `Results`.
        campaign: u64,
    },
    /// The submit was refused (typically: queue full — retry later).
    Rejected {
        /// Why.
        reason: String,
    },
    /// Answer to `Status`.
    Status {
        /// The campaign asked about.
        campaign: u64,
        /// Its current state.
        state: CampaignState,
        /// The service cache's cumulative counters.
        cache: CacheStats,
    },
    /// One grid point of a finished campaign, in row-major order.
    Report {
        /// The campaign streamed.
        campaign: u64,
        /// Row-major index of this point.
        index: usize,
        /// The point's report — byte-identical to what `Sweep::run`
        /// would have produced.
        report: Report,
    },
    /// Terminator of a `Results` stream.
    ResultsDone {
        /// The campaign streamed.
        campaign: u64,
        /// Points streamed.
        points: usize,
    },
    /// A request failed (unparseable line, unknown campaign, failed
    /// campaign, results already read).
    Error {
        /// What went wrong.
        message: String,
    },
    /// Answer to `Shutdown`.
    Bye,
}

/// A submitted campaign travelling to the runner thread.
struct Job {
    id: u64,
    campaign: Campaign,
}

/// State shared between submitters, the runner, and waiters.
struct Shared {
    state: Mutex<ServiceState>,
    changed: Condvar,
}

struct ServiceState {
    campaigns: HashMap<u64, CampaignState>,
    results: HashMap<u64, Vec<Report>>,
    next_id: u64,
}

/// A persistent sweep service: warm workers, content-addressed report
/// cache, bounded submit queue. See the [module docs](self) for the
/// protocol and [`serve`] for the NDJSON front.
pub struct SweepService {
    config: ServiceConfig,
    cache: Arc<dyn ReportCache>,
    pool: Arc<WorkerPool>,
    shared: Arc<Shared>,
    submit_tx: Option<mpsc::SyncSender<Job>>,
    runner: Option<std::thread::JoinHandle<()>>,
}

impl SweepService {
    /// Start a service executing campaigns per `config`, memoising
    /// reports in `cache`.
    pub fn new(config: ServiceConfig, cache: Arc<dyn ReportCache>) -> SweepService {
        let pool = Arc::new(WorkerPool::new());
        let shared = Arc::new(Shared {
            state: Mutex::new(ServiceState {
                campaigns: HashMap::new(),
                results: HashMap::new(),
                next_id: 0,
            }),
            changed: Condvar::new(),
        });
        let (submit_tx, submit_rx) = mpsc::sync_channel::<Job>(config.queue_capacity.max(1));
        let runner = {
            let shared = Arc::clone(&shared);
            let cache = Arc::clone(&cache);
            let pool = Arc::clone(&pool);
            let config = config.clone();
            std::thread::spawn(move || {
                for job in submit_rx {
                    Self::transition(&shared, job.id, CampaignState::Running, None);
                    let outcome = Self::execute(&config, &cache, &pool, &job.campaign);
                    match outcome {
                        Ok(reports) => {
                            let points = reports.len();
                            Self::transition(
                                &shared,
                                job.id,
                                CampaignState::Done { points },
                                Some(reports),
                            );
                        }
                        Err(e) => Self::transition(
                            &shared,
                            job.id,
                            CampaignState::Failed {
                                error: e.to_string(),
                            },
                            None,
                        ),
                    }
                }
            })
        };
        SweepService {
            config,
            cache,
            pool,
            shared,
            submit_tx: Some(submit_tx),
            runner: Some(runner),
        }
    }

    fn transition(shared: &Shared, id: u64, state: CampaignState, results: Option<Vec<Report>>) {
        let mut guard = shared.state.lock().expect("service state lock");
        guard.campaigns.insert(id, state);
        if let Some(reports) = results {
            guard.results.insert(id, reports);
        }
        shared.changed.notify_all();
    }

    fn execute(
        config: &ServiceConfig,
        cache: &Arc<dyn ReportCache>,
        pool: &Arc<WorkerPool>,
        campaign: &Campaign,
    ) -> Result<Vec<Report>, GridError> {
        match &config.worker_cmd {
            Some(cmd) => {
                let backend =
                    SubprocessBackend::new(cmd.clone(), config.workers).with_pool(Arc::clone(pool));
                campaign.run_cached(&backend, cache.as_ref())
            }
            None => campaign.run_cached(&ThreadPoolBackend::new(config.workers), cache.as_ref()),
        }
    }

    /// Queue a campaign; returns its id, or [`GridError::Service`] when
    /// the bounded queue is full (backpressure: the client retries).
    pub fn submit(&self, sweep: Sweep, slice_len: usize) -> Result<u64, GridError> {
        let slice_len = if slice_len == 0 {
            self.config.slice_len
        } else {
            slice_len
        };
        let tx = self
            .submit_tx
            .as_ref()
            .expect("submit queue lives as long as the service");
        let id = {
            let mut guard = self.shared.state.lock().expect("service state lock");
            let id = guard.next_id;
            guard.next_id += 1;
            guard.campaigns.insert(id, CampaignState::Queued);
            id
        };
        match tx.try_send(Job {
            id,
            campaign: Campaign::new(sweep, slice_len),
        }) {
            Ok(()) => Ok(id),
            Err(e) => {
                let reason = match e {
                    TrySendError::Full(_) => format!(
                        "submit queue full ({} campaigns pending); retry later",
                        self.config.queue_capacity
                    ),
                    TrySendError::Disconnected(_) => "service runner is gone".into(),
                };
                let mut guard = self.shared.state.lock().expect("service state lock");
                guard.campaigns.remove(&id);
                Err(GridError::Service(reason))
            }
        }
    }

    /// The campaign's current state ([`CampaignState::Unknown`] for an
    /// id never accepted).
    pub fn status(&self, campaign: u64) -> CampaignState {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .campaigns
            .get(&campaign)
            .cloned()
            .unwrap_or(CampaignState::Unknown)
    }

    /// Block until the campaign reaches a terminal state and return it.
    pub fn wait(&self, campaign: u64) -> CampaignState {
        let mut guard = self.shared.state.lock().expect("service state lock");
        loop {
            let state = guard
                .campaigns
                .get(&campaign)
                .cloned()
                .unwrap_or(CampaignState::Unknown);
            if state.is_terminal() {
                return state;
            }
            guard = self.shared.changed.wait(guard).expect("service state lock");
        }
    }

    /// The finished campaign's reports, handed over once: the service
    /// keeps them only until this call moves them out, so a second call
    /// (or a call for a campaign that did not complete) returns `None`.
    /// [`SweepService::status`] still says `Done` afterwards.
    pub fn results(&self, campaign: u64) -> Option<Vec<Report>> {
        self.shared
            .state
            .lock()
            .expect("service state lock")
            .results
            .remove(&campaign)
    }

    /// The service cache's cumulative counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The warm worker pool (spawn/reuse telemetry; shared with every
    /// campaign's subprocess backend).
    pub fn pool(&self) -> &Arc<WorkerPool> {
        &self.pool
    }

    /// Drain the queue, stop the runner, retire pooled workers.
    /// Dropping the service does the same.
    pub fn shutdown(mut self) {
        self.shutdown_in_place();
    }

    fn shutdown_in_place(&mut self) {
        drop(self.submit_tx.take()); // runner's queue iterator ends
        if let Some(runner) = self.runner.take() {
            let _ = runner.join();
        }
        self.pool.shutdown();
    }
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.shutdown_in_place();
    }
}

/// Serve NDJSON requests from `input` against `service` until EOF or a
/// `Shutdown` request: one [`ServiceRequest`] per line in, one or more
/// [`ServiceReply`] lines out (flushed per line). A line that is not
/// UTF-8 or not a request is answered with [`ServiceReply::Error`] and
/// the session goes on. `Results` blocks the connection until the
/// campaign finishes — submit first, stream later, and use separate
/// connections for concurrent clients.
pub fn serve(
    service: &SweepService,
    mut input: impl BufRead,
    mut output: impl Write,
) -> std::io::Result<()> {
    let mut emit = |reply: &ServiceReply| -> std::io::Result<()> {
        let text = serde_json::to_string(reply).expect("replies always serialise");
        writeln!(output, "{text}")?;
        output.flush()
    };
    let mut buf = Vec::new();
    while let Some(request) = next_request::<ServiceRequest>(&mut input, &mut buf)? {
        match request {
            Err(e) => emit(&ServiceReply::Error {
                message: format!("request line does not parse: {e}"),
            })?,
            Ok(ServiceRequest::Submit { sweep, slice_len }) => {
                match service.submit(sweep, slice_len) {
                    Ok(campaign) => emit(&ServiceReply::Accepted { campaign })?,
                    Err(e) => emit(&ServiceReply::Rejected {
                        reason: e.to_string(),
                    })?,
                }
            }
            Ok(ServiceRequest::Status { campaign }) => emit(&ServiceReply::Status {
                campaign,
                state: service.status(campaign),
                cache: service.cache_stats(),
            })?,
            Ok(ServiceRequest::Results { campaign }) => match service.wait(campaign) {
                CampaignState::Done { points } => match service.results(campaign) {
                    Some(reports) => {
                        for (index, report) in reports.into_iter().enumerate() {
                            emit(&ServiceReply::Report {
                                campaign,
                                index,
                                report,
                            })?;
                        }
                        emit(&ServiceReply::ResultsDone { campaign, points })?;
                    }
                    None => emit(&ServiceReply::Error {
                        message: format!("campaign {campaign}'s results were already read"),
                    })?,
                },
                CampaignState::Failed { error } => emit(&ServiceReply::Error {
                    message: format!("campaign {campaign} failed: {error}"),
                })?,
                CampaignState::Unknown => emit(&ServiceReply::Error {
                    message: format!("campaign {campaign} was never accepted"),
                })?,
                CampaignState::Queued | CampaignState::Running => {
                    unreachable!("wait() only returns terminal states")
                }
            },
            Ok(ServiceRequest::Shutdown) => {
                emit(&ServiceReply::Bye)?;
                break;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::MemoryCache;
    use hyperroute_core::scenario::{Axis, Scenario, SweepParam, Topology};
    use std::io::Cursor;

    fn small_sweep() -> Sweep {
        let base = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.8)
            .p(0.5)
            .horizon(60.0)
            .warmup(10.0)
            .seed(5)
            .build()
            .unwrap();
        Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.4, 0.8])])
    }

    fn in_process_service() -> SweepService {
        SweepService::new(ServiceConfig::default(), Arc::new(MemoryCache::new(256)))
    }

    #[test]
    fn submitted_campaign_matches_sweep_run_and_resubmit_hits_the_cache() {
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let service = in_process_service();
        let first = service.submit(sweep.clone(), 0).unwrap();
        assert_eq!(
            service.wait(first),
            CampaignState::Done { points: 2 },
            "first campaign completes"
        );
        assert_eq!(service.results(first).unwrap(), direct);
        let after_first = service.cache_stats();
        assert_eq!(after_first.inserts, 2);
        // Identical resubmit: all hits, no new inserts — zero simulations.
        let second = service.submit(sweep, 0).unwrap();
        service.wait(second);
        assert_eq!(service.results(second).unwrap(), direct);
        let after_second = service.cache_stats();
        assert_eq!(after_second.hits - after_first.hits, 2);
        assert_eq!(after_second.inserts, after_first.inserts);
        service.shutdown();
    }

    #[test]
    fn status_distinguishes_unknown_campaigns() {
        let service = in_process_service();
        assert_eq!(service.status(99), CampaignState::Unknown);
        assert_eq!(service.wait(99), CampaignState::Unknown);
        assert_eq!(service.results(99), None);
    }

    #[test]
    fn invalid_sweep_fails_the_campaign_without_killing_the_service() {
        let mut bad = small_sweep();
        // A negative arrival rate on the axis fails scenario validation
        // at execution time (the axis, not the base, decides λ).
        bad.axes = vec![Axis::new(SweepParam::Lambda, vec![-1.0])];
        let service = in_process_service();
        let id = service.submit(bad, 0).unwrap();
        let CampaignState::Failed { error } = service.wait(id) else {
            panic!("invalid sweep must fail");
        };
        assert!(!error.is_empty());
        // The service survives and runs the next campaign normally.
        let good = service.submit(small_sweep(), 0).unwrap();
        assert!(matches!(service.wait(good), CampaignState::Done { .. }));
    }

    #[test]
    fn full_queue_rejects_submits_with_backpressure() {
        // Capacity 1 and a runner kept busy by the first campaign: the
        // queue holds one more, and the next submit must be rejected.
        let config = ServiceConfig {
            queue_capacity: 1,
            ..ServiceConfig::default()
        };
        let service = SweepService::new(config, Arc::new(MemoryCache::new(256)));
        let mut submitted = 0usize;
        let mut rejected = None;
        for _ in 0..50 {
            match service.submit(small_sweep(), 0) {
                Ok(_) => submitted += 1,
                Err(e) => {
                    rejected = Some(e);
                    break;
                }
            }
        }
        let Some(GridError::Service(reason)) = rejected else {
            panic!("50 instant submits against a capacity-1 queue must trip backpressure");
        };
        assert!(reason.contains("queue full"), "{reason}");
        assert!(submitted >= 1);
    }

    #[test]
    fn ndjson_front_speaks_the_documented_protocol() {
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let service = in_process_service();
        let mut input = String::new();
        for request in [
            ServiceRequest::Submit {
                sweep,
                slice_len: 0,
            },
            ServiceRequest::Status { campaign: 0 },
            ServiceRequest::Results { campaign: 0 },
            ServiceRequest::Shutdown,
        ] {
            input.push_str(&serde_json::to_string(&request).unwrap());
            input.push('\n');
        }
        let mut output = Vec::new();
        serve(&service, Cursor::new(input), &mut output).unwrap();
        let replies: Vec<ServiceReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies[0], ServiceReply::Accepted { campaign: 0 });
        assert!(
            matches!(&replies[1], ServiceReply::Status { campaign: 0, .. }),
            "{:?}",
            replies[1]
        );
        // Results: one Report per point, row-major, then the terminator.
        let reports: Vec<&Report> = replies
            .iter()
            .filter_map(|r| match r {
                ServiceReply::Report { report, .. } => Some(report),
                _ => None,
            })
            .collect();
        assert_eq!(reports.len(), direct.len());
        for (streamed, expected) in reports.iter().zip(&direct) {
            assert_eq!(*streamed, expected);
        }
        assert_eq!(
            replies[replies.len() - 2],
            ServiceReply::ResultsDone {
                campaign: 0,
                points: direct.len()
            }
        );
        assert_eq!(replies[replies.len() - 1], ServiceReply::Bye);
    }

    #[test]
    fn a_campaigns_results_are_handed_over_once() {
        let sweep = small_sweep();
        let direct = sweep.run(1).unwrap();
        let service = in_process_service();
        let id = service.submit(sweep.clone(), 0).unwrap();
        service.wait(id);
        assert_eq!(service.results(id).unwrap(), direct);
        assert_eq!(service.results(id), None, "the reports were moved out");
        assert_eq!(service.status(id), CampaignState::Done { points: 2 });

        // Over NDJSON: the second `Results` line for a streamed campaign
        // gets exactly one `Error`, after the first stream's terminator.
        let service = in_process_service();
        let mut input = String::new();
        for request in [
            ServiceRequest::Submit {
                sweep,
                slice_len: 0,
            },
            ServiceRequest::Results { campaign: 0 },
            ServiceRequest::Results { campaign: 0 },
            ServiceRequest::Shutdown,
        ] {
            input.push_str(&serde_json::to_string(&request).unwrap());
            input.push('\n');
        }
        let mut output = Vec::new();
        serve(&service, Cursor::new(input), &mut output).unwrap();
        let replies: Vec<ServiceReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies.len(), 6, "{replies:?}");
        assert_eq!(replies[0], ServiceReply::Accepted { campaign: 0 });
        assert!(replies[1..3]
            .iter()
            .all(|r| matches!(r, ServiceReply::Report { campaign: 0, .. })));
        assert_eq!(
            replies[3],
            ServiceReply::ResultsDone {
                campaign: 0,
                points: 2
            }
        );
        let [.., ServiceReply::Error { message }, ServiceReply::Bye] = replies.as_slice() else {
            panic!("expected an Error and a Bye last, got {replies:?}");
        };
        assert!(message.contains("already read"), "{message}");
    }

    #[test]
    fn garbage_request_lines_get_error_replies_not_disconnects() {
        let service = in_process_service();
        let shutdown = serde_json::to_string(&ServiceRequest::Shutdown).unwrap();
        let input = format!("not json\n{shutdown}\n");
        let mut output = Vec::new();
        serve(&service, Cursor::new(input), &mut output).unwrap();
        let replies: Vec<ServiceReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert!(
            matches!(&replies[0], ServiceReply::Error { .. }),
            "{:?}",
            replies[0]
        );
        assert_eq!(replies[1], ServiceReply::Bye);
    }

    #[test]
    fn non_utf8_request_lines_get_error_replies_not_disconnects() {
        let service = in_process_service();
        let shutdown = serde_json::to_string(&ServiceRequest::Shutdown).unwrap();
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend_from_slice(shutdown.as_bytes());
        input.push(b'\n');
        let mut output = Vec::new();
        serve(&service, Cursor::new(input), &mut output).unwrap();
        let replies: Vec<ServiceReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let [ServiceReply::Error { message }, ServiceReply::Bye] = replies.as_slice() else {
            panic!("expected an Error and a Bye, got {replies:?}");
        };
        assert!(message.contains("does not parse"), "{message}");
    }
}
