//! The `sweep_service` workload: one client drives a `SweepService` with
//! two warm subprocess workers and a `MemoryCache` in a closed loop — a
//! cold campaign, identical resubmissions served from the cache, then a
//! campaign overlapping the first by half.

use crate::layers::{point_group, DispatchStats, TimingBackend, TimingCache};
use crate::measure::{self, Digest, Gate};
use crate::trace::{SpanId, Trace, Tracer};
use crate::{Layers, PassStats, Workload};
use hyperroute_core::scenario::{Axis, Report, Scenario, Sweep, SweepParam, Topology};
use hyperroute_desim::{splitmix64, SchedulerKind};
use hyperroute_grid::{
    merge, partition, CacheKey, Campaign, CampaignState, ExecBackend, GridError, MemoryCache,
    ReportCache, ServiceConfig, SliceResult, SubprocessBackend, SweepService, ThreadPoolBackend,
    WorkerPool,
};
use std::sync::Arc;
use std::time::Instant;

/// λ values per dimension: 2 dimensions × 1000 = 2000 points a campaign.
const LAMBDAS: usize = 1000;
/// Identical resubmissions of the cold campaign per pass.
const RESUBMITS: usize = 8;
const WORKERS: usize = 2;

struct Live {
    service: SweepService,
    cache: Arc<TimingCache<MemoryCache>>,
}

/// What the client measured of one campaign.
struct Round {
    secs: f64,
    /// Cache hits and misses during the campaign.
    hits: u64,
    misses: u64,
}

impl Round {
    fn hit_ratio(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses).max(1) as f64
    }
}

pub struct ServiceWorkload {
    /// The sweep files the client submits: warm-up, cold, overlap.
    texts: [String; 3],
    sweeps: Option<[Sweep; 3]>,
    worker_cmd: Vec<String>,
    live: Option<Live>,
    /// The cold campaign's report JSON, from the first pass.
    cold_texts: Option<Vec<String>>,
    last: Option<LastPass>,
}

/// Counters of the last pass, for the per-layer metrics.
struct LastPass {
    hit_ratio: [f64; 3],
    cache: [u64; 3],
    pool: [u64; 2],
}

fn lambda_grid(seed: u64, salt: u64, n: usize) -> Vec<f64> {
    // λ in (0.2, 1.8): ρ = λ/2 stays below 1 on every point.
    (0..n as u64)
        .map(|i| {
            let u = (splitmix64(seed ^ splitmix64(salt + i)) >> 11) as f64 / (1u64 << 53) as f64;
            0.2 + 1.6 * u
        })
        .collect()
}

impl ServiceWorkload {
    pub fn new(seed: u64, worker_cmd: Vec<String>) -> ServiceWorkload {
        let base = |run_seed| {
            Scenario::builder(Topology::Hypercube { dim: 3 })
                .lambda(1.0)
                .p(0.5)
                .horizon(40.0)
                .warmup(10.0)
                .seed(run_seed)
                .scheduler(SchedulerKind::Calendar)
                .build()
                .expect("sweep_service base scenario is valid")
        };
        let dims = Axis::new(SweepParam::Dim, vec![3.0, 4.0]);
        let cold = lambda_grid(seed, 1 << 20, LAMBDAS);
        let mut overlap = cold.clone();
        overlap[LAMBDAS / 2..].copy_from_slice(&lambda_grid(seed, 2 << 20, LAMBDAS - LAMBDAS / 2));
        let run_seed = splitmix64(seed ^ 0x5eed);
        let sweep = |lambdas: Vec<f64>| {
            Sweep::new(
                base(run_seed),
                vec![dims.clone(), Axis::new(SweepParam::Lambda, lambdas)],
            )
        };
        // Two one-point slices: one per worker, so set-up spawns both.
        let warm = Sweep::new(
            base(splitmix64(run_seed)),
            vec![Axis::new(SweepParam::Lambda, vec![0.5, 1.0])],
        );
        let text = |s: &Sweep| serde_json::to_string(s).expect("sweeps serialise");
        ServiceWorkload {
            texts: [text(&warm), text(&sweep(cold)), text(&sweep(overlap))],
            sweeps: None,
            worker_cmd,
            live: None,
            cold_texts: None,
            last: None,
        }
    }

    fn sweeps(&self) -> &[Sweep; 3] {
        self.sweeps.as_ref().expect("setup parses the sweeps")
    }

    /// Submit, wait and read results of one campaign, closed loop.
    fn round(
        &self,
        trace: Trace,
        sweep: &Sweep,
        tag: &'static str,
    ) -> (Result<Vec<Report>, String>, Round) {
        let live = self.live.as_ref().expect("setup starts the service");
        let before = live.cache.stats();
        let started = Instant::now();
        let reports = trace.span("grid.service.campaign", tag, 0, 0, |campaign| {
            live.cache.parent.set(campaign);
            let id = trace
                .span("grid.service.submit", tag, campaign, 0, |_| {
                    live.service.submit(sweep.clone(), 0)
                })
                .map_err(|e| format!("{tag}: submit: {e}"))?;
            match trace.span("grid.service.wait", tag, campaign, 0, |_| {
                live.service.wait(id)
            }) {
                CampaignState::Done { .. } => {}
                other => return Err(format!("{tag}: campaign ended {other:?}")),
            }
            trace
                .span("grid.service.results", tag, campaign, 0, |_| {
                    live.service.results(id)
                })
                .ok_or_else(|| format!("{tag}: no results for a finished campaign"))
        });
        let secs = started.elapsed().as_secs_f64();
        let after = live.cache.stats();
        let round = Round {
            secs,
            hits: after.hits - before.hits,
            misses: after.misses - before.misses,
        };
        (reports, round)
    }

    /// Time the layers the service hides, once, after the passes: key
    /// hashing, report serde, slicing, and dispatch on subprocess workers
    /// against in-process threads for the same slices.
    fn probe(&self, tracer: &Arc<Tracer>, gate: &mut Gate, out: &mut Layers) {
        let trace = Trace(Some(tracer));
        let [warm, cold, _] = self.sweeps();
        let Some(cold_texts) = &self.cold_texts else {
            return;
        };
        trace.span("probe", "sweep_service", 0, 0, |probe| {
            let scenarios = match cold.scenarios() {
                Ok(s) => s,
                Err(e) => return gate.op(Err(format!("scenarios: {e}"))),
            };
            // Spans of one point share its key's group id, as the cache
            // decorator's do.
            let groups: Vec<u64> = scenarios
                .iter()
                .map(|s| {
                    let key =
                        trace.span("grid.hash", "cold", probe, 0, |_| CacheKey::for_scenario(s));
                    point_group(&key)
                })
                .collect();
            let mut reports = Vec::with_capacity(cold_texts.len());
            for (text, &group) in cold_texts.iter().zip(&groups) {
                match trace.span("report.parse", "cold", probe, group, |_| {
                    serde_json::from_str::<Report>(text)
                }) {
                    Ok(report) => {
                        let again = trace.span("report.serialize", "cold", probe, group, |_| {
                            serde_json::to_string(&report)
                        });
                        gate.op(match again {
                            Ok(again) if &again == text => Ok(()),
                            _ => Err("cold report changes in a JSON round trip".into()),
                        });
                        reports.push(report);
                    }
                    Err(e) => gate.op(Err(format!("cold report does not parse: {e}"))),
                }
            }
            let slices = trace.span("grid.slice.partition", "cold", probe, 0, |_| {
                partition(cold, 1)
            });
            let results: Vec<SliceResult> = slices
                .iter()
                .zip(reports)
                .map(|(slice, report)| SliceResult {
                    id: slice.id,
                    start: slice.start,
                    reports: vec![report],
                })
                .collect();
            let merged = trace.span("grid.slice.merge", "cold", probe, 0, |_| {
                merge(cold.len(), results)
            });
            gate.op(merged.map(|_| ()).map_err(|e| format!("merge: {e}")));

            // Dispatch: the same cold campaign on warm subprocess workers
            // and on threads, three times each; then a resubmission, which
            // must dispatch nothing.
            let pool = Arc::new(WorkerPool::new());
            let sub = TimingBackend::new(
                SubprocessBackend::new(self.worker_cmd.clone(), WORKERS)
                    .with_pool(Arc::clone(&pool)),
                trace,
                probe,
            );
            let threads = TimingBackend::new(ThreadPoolBackend::new(WORKERS), trace, probe);
            let check = |gate: &mut Gate, what: &str, got: Result<Vec<Report>, GridError>| {
                gate.op(got.map_err(|e| format!("{what}: {e}")).and_then(|reports| {
                    let same = reports.len() == cold_texts.len()
                        && reports
                            .iter()
                            .zip(cold_texts)
                            .all(|(r, t)| serde_json::to_string(r).is_ok_and(|s| &s == t));
                    same.then_some(())
                        .ok_or(format!("{what}: reports differ from the service's"))
                }));
            };
            let warmed = Campaign::new(warm.clone(), 1).run(&sub);
            gate.op(warmed
                .map(|_| ())
                .map_err(|e| format!("probe warm-up: {e}")));
            let campaign = Campaign::new(cold.clone(), 1);
            let (mut busy_sub, mut busy_thr, mut slices_cold) = (Vec::new(), Vec::new(), 0);
            let mut warm_cache = None;
            for _ in 0..3 {
                let (got, dispatched, cache) = cold_run(&sub, &campaign, trace, probe);
                check(gate, "probe campaign on workers", got);
                busy_sub.push(dispatched.busy_s);
                slices_cold = dispatched.slices;
                warm_cache = Some(cache);
                let (got, dispatched, _) = cold_run(&threads, &campaign, trace, probe);
                check(gate, "probe campaign on threads", got);
                busy_thr.push(dispatched.busy_s);
            }
            let cache = warm_cache.expect("three probe rounds ran");
            let before = sub.stats();
            let again = campaign.run_cached(&sub, &cache);
            check(gate, "probe resubmission", again);
            let slices = sub.stats().slices - before.slices;
            gate.op(if slices == 0 {
                Ok(())
            } else {
                Err(format!("resubmission dispatched {slices} slices"))
            });
            pool.shutdown();

            let points = cold.len() as f64;
            let (sub_s, thr_s) = (measure::median(&busy_sub), measure::median(&busy_thr));
            out.insert("grid.dispatch.busy_s".into(), sub_s);
            out.insert("grid.dispatch.slices.cold".into(), slices_cold as f64);
            out.insert("grid.dispatch.slices.resubmit".into(), slices as f64);
            out.insert(
                "grid.dispatch.overhead_us_per_point".into(),
                (sub_s - thr_s) / points * 1e6,
            );
        });
    }
}

/// Run `campaign` through `backend` over a fresh cache: its reports, what
/// the backend dispatched for it, and the now-filled cache.
fn cold_run<B: ExecBackend>(
    backend: &TimingBackend<B>,
    campaign: &Campaign,
    trace: Trace,
    parent: SpanId,
) -> (
    Result<Vec<Report>, GridError>,
    DispatchStats,
    TimingCache<MemoryCache>,
) {
    let cache = TimingCache::new(MemoryCache::new(1 << 13), trace.tracer());
    cache.parent.set(parent);
    let before = backend.stats();
    let got = campaign.run_cached(backend, &cache);
    let after = backend.stats();
    let dispatched = DispatchStats {
        slices: after.slices - before.slices,
        busy_s: after.busy_s - before.busy_s,
    };
    (got, dispatched, cache)
}

impl Workload for ServiceWorkload {
    fn setup(&mut self, trace: Trace) -> Result<(), String> {
        // The previous pass's service (and its workers) retire first.
        if let Some(live) = self.live.take() {
            live.service.shutdown();
        }
        let mut sweeps = Vec::with_capacity(3);
        for text in &self.texts {
            let sweep: Sweep = trace
                .span("scenario.parse", "sweep", 0, 0, |_| {
                    let sweep: Sweep = serde_json::from_str(text).map_err(|e| e.to_string())?;
                    sweep.base.validate().map_err(|e| e.to_string())?;
                    Ok::<_, String>(sweep)
                })
                .map_err(|e| format!("sweep file: {e}"))?;
            sweeps.push(sweep);
        }
        let sweeps: [Sweep; 3] = sweeps.try_into().expect("three sweep files");
        let cache = Arc::new(TimingCache::new(MemoryCache::new(1 << 14), trace.tracer()));
        let config = ServiceConfig {
            slice_len: 1,
            workers: WORKERS,
            worker_cmd: Some(self.worker_cmd.clone()),
            queue_capacity: 4,
        };
        let service = trace.span("grid.service.start", "", 0, 0, |_| {
            SweepService::new(config, Arc::clone(&cache) as Arc<dyn ReportCache>)
        });
        // Worker handshakes: the warm-up campaign spawns both workers,
        // which the pool then keeps for the measured campaigns.
        let id = service
            .submit(sweeps[0].clone(), 0)
            .map_err(|e| format!("warm-up submit: {e}"))?;
        match service.wait(id) {
            CampaignState::Done { .. } => {}
            other => return Err(format!("warm-up campaign ended {other:?}")),
        }
        self.sweeps = Some(sweeps);
        self.live = Some(Live { service, cache });
        Ok(())
    }

    fn pass(&mut self, trace: Trace, gate: &mut Gate) -> Result<PassStats, String> {
        let [_, cold, overlap] = self.sweeps().clone();
        let points = cold.len();
        let texts = |reports: &[Report]| -> Vec<String> {
            reports
                .iter()
                .map(|r| serde_json::to_string(r).expect("reports serialise"))
                .collect()
        };
        let hits_all = |round: &Round, hits: usize, misses: usize| {
            if (round.hits, round.misses) == (hits as u64, misses as u64) {
                Ok(())
            } else {
                Err(format!(
                    "campaign: {} hits / {} misses, expected {hits} / {misses}",
                    round.hits, round.misses
                ))
            }
        };
        // Each campaign is checked right after it, outside its timing, and
        // its reports dropped before the next one.
        let (reports, first) = self.round(trace, &cold, "cold");
        let cold_reports = reports?;
        let cold_texts = texts(&cold_reports);
        if self.cold_texts.is_none() {
            // Once per run: the service's output equals the in-process sweep
            // (on this thread, so the check spawns no allocator arenas).
            let direct = cold.run(1).map_err(|e| e.to_string())?;
            gate.op(if texts(&direct) == cold_texts {
                Ok(())
            } else {
                Err("cold campaign differs from Sweep::run".into())
            });
            self.cold_texts = Some(cold_texts.clone());
        }
        let mut digest = Digest::new();
        let mut packets = 0;
        for (report, text) in cold_reports.iter().zip(&cold_texts) {
            packets += report.generated;
            digest.add(text.as_bytes());
            gate.op(measure::check_conservation("cold point", report));
        }
        drop(cold_reports);
        gate.op(hits_all(&first, 0, points));

        let (mut hit_s, mut resubmit_ratio) = (0.0, 1.0f64);
        for _ in 0..RESUBMITS {
            let (reports, round) = self.round(trace, &cold, "resubmit");
            hit_s += round.secs;
            resubmit_ratio = resubmit_ratio.min(round.hit_ratio());
            gate.op(hits_all(&round, points, 0));
            match reports {
                Ok(reports) => {
                    for (text, cold_text) in texts(&reports).iter().zip(&cold_texts) {
                        gate.op(if text == cold_text {
                            Ok(())
                        } else {
                            Err("cached report is not byte-identical to its cold report".into())
                        });
                    }
                }
                Err(e) => gate.op(Err(e)),
            }
        }

        let (reports, last) = self.round(trace, &overlap, "overlap");
        let overlap_reports = reports?;
        let shared = |index: usize| index % LAMBDAS < LAMBDAS / 2;
        gate.op(hits_all(&last, points / 2, points - points / 2));
        for (index, (report, text)) in overlap_reports
            .iter()
            .zip(texts(&overlap_reports))
            .enumerate()
        {
            digest.add(text.as_bytes());
            gate.op(if shared(index) {
                if text == cold_texts[index] {
                    Ok(())
                } else {
                    Err("overlapping point is not byte-identical to its cold report".into())
                }
            } else {
                packets += report.generated;
                measure::check_conservation("overlap point", report)
            });
        }

        let live = self.live.as_ref().expect("setup starts the service");
        let stats = live.cache.stats();
        self.last = Some(LastPass {
            hit_ratio: [first.hit_ratio(), resubmit_ratio, last.hit_ratio()],
            cache: [stats.hits, stats.misses, stats.inserts],
            pool: [live.service.pool().spawns(), live.service.pool().reuses()],
        });
        Ok(PassStats {
            wall_s: first.secs + hit_s + last.secs,
            cold_points: points,
            cold_s: first.secs,
            hit_points: points * RESUBMITS,
            hit_s,
            packets,
            digest: digest.value(),
            rss_mb: measure::peak_rss_mb()?,
        })
    }

    fn layers(&mut self, tracer: &Arc<Tracer>, gate: &mut Gate) -> Layers {
        let mut out = Layers::new();
        let secs = |name: &str, tag: Option<&str>| -> Vec<f64> {
            tracer.named(name, tag).iter().map(|s| s.secs()).collect()
        };
        let mean_us = |name: &str| measure::mean(&secs(name, None)) * 1e6;
        out.insert("scenario.parse_us".into(), mean_us("scenario.parse"));
        out.insert("grid.cache.get_us".into(), mean_us("grid.cache.get"));
        out.insert("grid.cache.put_us".into(), mean_us("grid.cache.put"));
        out.insert(
            "grid.service.submit_us".into(),
            mean_us("grid.service.submit"),
        );
        out.insert(
            "grid.service.wait_s.cold".into(),
            measure::median(&secs("grid.service.wait", Some("cold"))),
        );
        out.insert(
            "grid.service.wait_s.resubmit".into(),
            measure::median(&secs("grid.service.wait", Some("resubmit"))),
        );
        let campaigns = tracer.named("grid.service.results", None).len() as f64;
        let results: f64 = secs("grid.service.results", None).iter().sum();
        let points = self.sweeps()[1].len() as f64;
        out.insert(
            "grid.service.results_us_per_point".into(),
            results / (campaigns * points).max(1.0) * 1e6,
        );
        if let Some(last) = &self.last {
            for (suffix, ratio) in ["cold", "resubmit", "overlap"].iter().zip(last.hit_ratio) {
                out.insert(format!("grid.cache.hit_ratio.{suffix}"), ratio);
            }
            let [hits, misses, inserts] = last.cache;
            out.insert("grid.cache.hits".into(), hits as f64);
            out.insert("grid.cache.misses".into(), misses as f64);
            out.insert("grid.cache.inserts".into(), inserts as f64);
            out.insert("grid.pool.spawns".into(), last.pool[0] as f64);
            out.insert("grid.pool.reuses".into(), last.pool[1] as f64);
        }
        if let Some(live) = self.live.take() {
            live.service.shutdown();
        }
        self.probe(tracer, gate, &mut out);
        out.insert("grid.hash_us".into(), mean_us("grid.hash"));
        out.insert("report.serialize_us".into(), mean_us("report.serialize"));
        out.insert("report.parse_us".into(), mean_us("report.parse"));
        let bytes: Vec<f64> = self
            .cold_texts
            .iter()
            .flatten()
            .map(|t| t.len() as f64)
            .collect();
        out.insert("report.bytes".into(), measure::mean(&bytes));
        out.insert(
            "grid.slice.partition_us".into(),
            mean_us("grid.slice.partition"),
        );
        out.insert("grid.slice.merge_us".into(), mean_us("grid.slice.merge"));
        out
    }

    fn finish(&mut self) {
        if let Some(live) = self.live.take() {
            live.service.shutdown();
        }
    }
}
