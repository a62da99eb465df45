//! The scenario-file workloads, `paper_dense` and `sparse_navigate`: parse
//! scenario JSON, build each engine, run it, serialise its report, then
//! resubmit every scenario to the grid's report cache.

use crate::layers::{point_group, TimingBackend, TimingCache};
use crate::measure::{self, Digest, Gate};
use crate::trace::{Trace, Tracer};
use crate::{Layers, PassStats, Workload};
use hyperroute_analysis::{butterfly_bounds, hypercube_bounds};
use hyperroute_core::scenario::{Report, Scenario, Sweep, Topology};
use hyperroute_desim::{splitmix64, SchedulerKind};
use hyperroute_grid::{CacheKey, Campaign, MemoryCache, ReportCache, ThreadPoolBackend};
use hyperroute_telemetry::TelemetryProbe;
use std::sync::Arc;
use std::time::Instant;

/// Every scenario either workload runs, in the order the per-layer metric
/// suffixes are listed.
pub const TAGS: [&str; 6] = [
    "hypercube_d10_r080",
    "hypercube_d10_r095",
    "hypercube_d12_r080",
    "butterfly_d10_r080",
    "hyperbolic_n65536",
    "smallworld_n1048576",
];

/// Cache resubmissions per pass: 20000 cached points on either workload,
/// about 0.1 s, long enough that one scheduling hiccup does not set the
/// pass's figure.
const PAPER_HIT_REPS: usize = 5000;
const SPARSE_HIT_REPS: usize = 10000;

struct Item {
    tag: &'static str,
    /// Span group of every span of this scenario: its cache key's low bits,
    /// as the cache decorator sees them.
    group: u64,
    /// The scenario file the program is handed.
    text: String,
    scenario: Option<Scenario>,
}

pub struct ScenarioWorkload {
    name: &'static str,
    items: Vec<Item>,
    /// Index of the item that is also run under a `TelemetryProbe`.
    observed: Option<usize>,
    hit_reps: usize,
    /// The last pass's cold reports, for the per-layer counts.
    reports: Vec<Option<Report>>,
    texts: Vec<String>,
    /// Cache counters and dispatched slices of the last pass.
    cache_stats: [u64; 3],
    resubmit_slices: u64,
}

fn seeded(seed: u64, salt: u64) -> u64 {
    splitmix64(seed ^ splitmix64(salt))
}

/// The paper's own model: λ = 2ρ, p = ½, FIFO, calendar scheduler, drained.
fn dense(topology: Topology, rho: f64, horizon: f64, seed: u64) -> Scenario {
    Scenario::builder(topology)
        .lambda(2.0 * rho)
        .p(0.5)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(seed)
        .scheduler(SchedulerKind::Calendar)
        .build()
        .expect("paper_dense scenarios are valid")
}

fn sparse(topology: Topology, lambda: f64, horizon: f64, seed: u64) -> Scenario {
    Scenario::builder(topology)
        .lambda(lambda)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(seed)
        .scheduler(SchedulerKind::Calendar)
        .build()
        .expect("sparse_navigate scenarios are valid")
}

impl ScenarioWorkload {
    fn new(
        name: &'static str,
        items: Vec<(&'static str, Scenario)>,
        observed: Option<usize>,
        hit_reps: usize,
    ) -> Self {
        let n = items.len();
        ScenarioWorkload {
            name,
            items: items
                .into_iter()
                .map(|(tag, s)| Item {
                    tag,
                    group: point_group(&CacheKey::for_scenario(&s)),
                    text: s.to_json(),
                    scenario: None,
                })
                .collect(),
            observed,
            hit_reps,
            reports: vec![None; n],
            texts: vec![String::new(); n],
            cache_stats: [0; 3],
            resubmit_slices: 0,
        }
    }

    pub fn paper_dense(seed: u64) -> Self {
        let hc = |dim| Topology::Hypercube { dim };
        ScenarioWorkload::new(
            "paper_dense",
            vec![
                (TAGS[0], dense(hc(10), 0.8, 200.0, seeded(seed, 1))),
                (TAGS[1], dense(hc(10), 0.95, 300.0, seeded(seed, 2))),
                (TAGS[2], dense(hc(12), 0.8, 100.0, seeded(seed, 3))),
                (
                    TAGS[3],
                    dense(Topology::Butterfly { dim: 10 }, 0.8, 150.0, seeded(seed, 4)),
                ),
            ],
            Some(0),
            PAPER_HIT_REPS,
        )
    }

    /// The graphs are fixed (their generator seeds are constants): the
    /// hub structure of one hyperbolic draw sets the cost of every hop, so
    /// the seed varies the traffic, not the system under test.
    pub fn sparse_navigate(seed: u64) -> Self {
        let hyperbolic = Topology::Hyperbolic {
            nodes: 65536,
            alpha: 0.7,
            radius_offset: -1.5,
            seed: 7,
        };
        let smallworld = Topology::SmallWorld {
            side: 1024,
            dims: 2,
            links: 2,
            alpha: 2.0,
            seed: 7,
        };
        ScenarioWorkload::new(
            "sparse_navigate",
            vec![
                (TAGS[4], sparse(hyperbolic, 0.02, 12.0, seeded(seed, 7))),
                (TAGS[5], sparse(smallworld, 0.001, 20.0, seeded(seed, 8))),
            ],
            None,
            SPARSE_HIT_REPS,
        )
    }

    /// Points the resubmissions of one pass serve from the cache.
    fn served(&self) -> usize {
        self.hit_reps * self.items.len()
    }

    fn scenario(&self, i: usize) -> &Scenario {
        self.items[i]
            .scenario
            .as_ref()
            .expect("setup parses every scenario before a pass")
    }

    /// The paper's delay bracket for the dense topologies.
    fn bracket(scenario: &Scenario) -> Option<(f64, f64)> {
        let (lambda, p) = (scenario.workload.lambda, scenario.workload.p);
        let b = match scenario.topology {
            Topology::Hypercube { dim } => hypercube_bounds::greedy_delay_bounds(dim, lambda, p),
            Topology::Butterfly { dim } => butterfly_bounds::greedy_delay_bounds(dim, lambda, p),
            _ => return None,
        };
        Some((b.lower, b.upper))
    }

    /// Simulate every scenario cold and insert its report into `cache`:
    /// per item the report and its JSON, plus the observed run's report.
    #[allow(clippy::type_complexity)]
    fn cold_phase(
        &self,
        trace: Trace,
        cache: &TimingCache<MemoryCache>,
    ) -> (
        Vec<Result<(Report, String), String>>,
        Option<Result<Report, String>>,
    ) {
        trace.span("phase.cold", self.name, 0, 0, |phase| {
            let runs = (0..self.items.len())
                .map(|i| {
                    let (tag, group, scenario) =
                        (self.items[i].tag, self.items[i].group, self.scenario(i));
                    let sim = trace
                        .span("topology.build", tag, phase, group, |_| {
                            scenario.into_simulator()
                        })
                        .map_err(|e| format!("{tag}: into_simulator: {e}"))?;
                    let report =
                        trace.span("engine.run", tag, phase, group, |_| sim.run_unobserved());
                    let text = trace
                        .span("report.serialize", tag, phase, group, |_| {
                            serde_json::to_string(&report)
                        })
                        .map_err(|e| format!("{tag}: serialise: {e}"))?;
                    let key = trace.span("grid.hash", tag, phase, group, |_| {
                        CacheKey::for_scenario(scenario)
                    });
                    cache.parent.set(phase);
                    cache.put(&key, &report);
                    Ok((report, text))
                })
                .collect();
            let observed = self.observed.map(|i| {
                let (tag, scenario) = (self.items[i].tag, self.scenario(i));
                let mut probe = TelemetryProbe::new();
                let mut report = trace
                    .span(
                        "engine.run_observed",
                        tag,
                        phase,
                        self.items[i].group,
                        |_| scenario.run_observed(&mut probe),
                    )
                    .map_err(|e| format!("{tag}: run_observed: {e}"))?;
                probe.attach(&mut report);
                Ok(report)
            });
            (runs, observed)
        })
    }
}

impl Workload for ScenarioWorkload {
    fn setup(&mut self, trace: Trace) -> Result<(), String> {
        for item in &mut self.items {
            let parsed = trace.span("scenario.parse", item.tag, 0, 0, |_| {
                Scenario::from_json(&item.text)
            });
            item.scenario = Some(parsed.map_err(|e| format!("{}: from_json: {e}", item.tag))?);
        }
        Ok(())
    }

    fn setups_per_pass(&self) -> usize {
        5
    }

    fn pass(&mut self, trace: Trace, gate: &mut Gate) -> Result<PassStats, String> {
        let cache = TimingCache::new(MemoryCache::new(64), trace.tracer());
        let started = Instant::now();
        let (runs, observed) = self.cold_phase(trace, &cache);
        let cold_s = started.elapsed().as_secs_f64();

        // Checks, outside the timed phases.
        let mut digest = Digest::new();
        let mut packets = 0;
        for (i, run) in runs.into_iter().enumerate() {
            let tag = self.items[i].tag;
            let outcome = run.and_then(|(report, text)| {
                packets += report.generated;
                digest.add(text.as_bytes());
                measure::check_conservation(tag, &report)?;
                if let Some((lower, upper)) = Self::bracket(self.scenario(i)) {
                    measure::check_bracket(tag, &report, lower, upper)?;
                }
                let parsed: Report = trace
                    .span("report.parse", tag, 0, self.items[i].group, |_| {
                        serde_json::from_str(&text)
                    })
                    .map_err(|e| format!("{tag}: report does not parse back: {e}"))?;
                if parsed != report {
                    return Err(format!("{tag}: report changes in a JSON round trip"));
                }
                self.reports[i] = Some(report);
                self.texts[i] = text;
                Ok(())
            });
            gate.op(outcome);
        }
        if let (Some(i), Some(observed)) = (self.observed, observed) {
            let tag = self.items[i].tag;
            gate.op(observed.and_then(|mut report| {
                packets += report.generated;
                report.telemetry = None;
                let stripped = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                if stripped == self.texts[i] {
                    Ok(())
                } else {
                    Err(format!(
                        "{tag}: observed report differs once telemetry is stripped"
                    ))
                }
            }));
        }

        // Resubmit every scenario as a one-point campaign: all cache hits.
        // Each round over the scenarios is timed on its own and checked
        // after it: the first round byte for byte, later ones by bit-exact
        // equality with the cold report (the same bytes, cheaper to check).
        let campaigns: Vec<Campaign> = (0..self.items.len())
            .map(|i| {
                let sweep = Sweep {
                    base: self.scenario(i).clone(),
                    axes: Vec::new(),
                    derive_seeds: false,
                };
                Campaign::new(sweep, 1)
            })
            .collect();
        let before = cache.stats();
        let mut hit_s = 0.0;
        let resubmit_slices = trace.span("phase.hit", self.name, 0, 0, |phase| {
            let backend = TimingBackend::new(ThreadPoolBackend::new(2), trace, phase);
            for rep in 0..self.hit_reps {
                let round_started = Instant::now();
                let served: Vec<_> = campaigns
                    .iter()
                    .enumerate()
                    .map(|(i, campaign)| {
                        trace.span(
                            "grid.campaign",
                            self.items[i].tag,
                            phase,
                            self.items[i].group,
                            |id| {
                                cache.parent.set(id);
                                campaign.run_cached(&backend, &cache)
                            },
                        )
                    })
                    .collect();
                hit_s += round_started.elapsed().as_secs_f64();
                for (i, result) in served.into_iter().enumerate() {
                    let tag = self.items[i].tag;
                    gate.op(result
                        .map_err(|e| format!("{tag}: run_cached: {e}"))
                        .and_then(|reports| {
                            let same = match (reports.as_slice(), &self.reports[i]) {
                                ([report], Some(cold)) if rep == 0 => serde_json::to_string(report)
                                    .is_ok_and(|text| text == self.texts[i]),
                                ([report], Some(cold)) => report == cold,
                                _ => false,
                            };
                            same.then_some(()).ok_or(format!(
                                "{tag}: cached report is not byte-identical to the cold one"
                            ))
                        }));
                }
            }
            backend.stats().slices
        });
        let after = cache.stats();
        let hits = after.hits - before.hits;
        gate.op(if resubmit_slices == 0 && hits == self.served() as u64 {
            Ok(())
        } else {
            Err(format!(
                "{}: resubmission dispatched {resubmit_slices} slices, hit {hits} of {}",
                self.name,
                self.served()
            ))
        });
        self.cache_stats = [after.hits, after.misses, after.inserts];
        self.resubmit_slices = resubmit_slices;

        Ok(PassStats {
            wall_s: cold_s + hit_s,
            cold_points: self.items.len() + usize::from(self.observed.is_some()),
            cold_s,
            hit_points: self.served(),
            hit_s,
            packets,
            digest: digest.value(),
            rss_mb: measure::peak_rss_mb()?,
        })
    }

    fn layers(&mut self, tracer: &Arc<Tracer>, _gate: &mut Gate) -> Layers {
        let mut out = Layers::new();
        let secs = |name: &str, tag: Option<&str>| -> Vec<f64> {
            tracer.named(name, tag).iter().map(|s| s.secs()).collect()
        };
        out.insert(
            "scenario.parse_us".into(),
            measure::mean(&secs("scenario.parse", None)) * 1e6,
        );
        for (i, item) in self.items.iter().enumerate() {
            let Some(report) = &self.reports[i] else {
                continue;
            };
            let tag = item.tag;
            let run_s = measure::median(&secs("engine.run", Some(tag)));
            let events = report.events as f64;
            let hops =
                report.delivered as f64 * measure::hops_per_delivery(self.scenario(i), report);
            out.insert(
                format!("topology.build_s.{tag}"),
                measure::median(&secs("topology.build", Some(tag))),
            );
            out.insert(format!("engine.run_s.{tag}"), run_s);
            out.insert(format!("engine.events.{tag}"), events);
            out.insert(
                format!("engine.events_per_packet.{tag}"),
                events / report.generated.max(1) as f64,
            );
            out.insert(
                format!("engine.ns_per_event.{tag}"),
                run_s / events.max(1.0) * 1e9,
            );
            out.insert(
                format!("engine.ns_per_hop.{tag}"),
                run_s / hops.max(1.0) * 1e9,
            );
        }
        if let Some(i) = self.observed {
            let tag = self.items[i].tag;
            let observed = measure::median(&secs("engine.run_observed", Some(tag)));
            let plain = measure::median(&secs("engine.run", Some(tag)));
            out.insert("observe.overhead_ratio".into(), observed / plain);
        }
        out.insert(
            "report.serialize_us".into(),
            measure::mean(&secs("report.serialize", None)) * 1e6,
        );
        out.insert(
            "report.parse_us".into(),
            measure::mean(&secs("report.parse", None)) * 1e6,
        );
        let bytes: Vec<f64> = self.texts.iter().map(|t| t.len() as f64).collect();
        out.insert("report.bytes".into(), measure::mean(&bytes));
        out.insert(
            "grid.hash_us".into(),
            measure::mean(&secs("grid.hash", None)) * 1e6,
        );
        out.insert(
            "grid.cache.get_us".into(),
            measure::mean(&secs("grid.cache.get", None)) * 1e6,
        );
        out.insert(
            "grid.cache.put_us".into(),
            measure::mean(&secs("grid.cache.put", None)) * 1e6,
        );
        let [hits, misses, inserts] = self.cache_stats;
        out.insert("grid.cache.hits".into(), hits as f64);
        out.insert("grid.cache.misses".into(), misses as f64);
        out.insert("grid.cache.inserts".into(), inserts as f64);
        out.insert(
            "grid.cache.hit_ratio.resubmit".into(),
            hits as f64 / (hits + misses).max(1) as f64,
        );
        out.insert(
            "grid.dispatch.slices.resubmit".into(),
            self.resubmit_slices as f64,
        );
        out
    }
}
