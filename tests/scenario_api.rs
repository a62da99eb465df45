//! The unified `Scenario` API's core guarantees, tested:
//!
//! 1. **Differential equivalence** — for every scheme × arrival model ×
//!    contention policy × discipline × topology, `Scenario::run()` is a
//!    pure function of the spec: reruns are byte-identical, observed runs
//!    (`run_observed`, which drives the engine through `&mut dyn
//!    Observer`) produce byte-identical reports to unobserved runs (which
//!    monomorphise the observer away), and the boxed `Simulator` dispatch
//!    equals the direct path. These are the invariants the retired
//!    legacy-vs-scenario differential suite pinned down, ported onto the
//!    scenario API now that the legacy entry points are gone.
//! 2. **Serde round-trip stability** — `Scenario → JSON → Scenario` is
//!    the identity, and (property-tested over random specs) the
//!    round-tripped scenario's report equals the original's bit for bit.

use hyperroute::prelude::*;
use proptest::prelude::*;

fn hypercube_scenario(
    scheme: Scheme,
    arrivals: ArrivalModel,
    contention: ContentionPolicy,
    dest: DestinationSpec,
    seed: u64,
) -> Scenario {
    Scenario::builder(Topology::Hypercube { dim: 4 })
        .lambda(1.0)
        .p(0.5)
        .scheme(scheme)
        .arrivals(arrivals)
        .dest(dest)
        .contention(contention)
        .horizon(400.0)
        .warmup(80.0)
        .seed(seed)
        .build()
        .expect("valid scenario")
}

/// The three equivalent execution paths of one scenario, compared
/// bit-exactly: plain `run` (monomorphised `NullObserver`), `run_observed`
/// behind `&mut dyn Observer`, and the boxed `Simulator` dispatch.
fn assert_paths_agree(scenario: &Scenario) -> Report {
    let direct = scenario.run().expect("scenario runs");
    let mut null = NullObserver;
    let observed = scenario
        .run_observed(&mut null)
        .expect("observed run completes");
    assert_eq!(direct, observed, "dyn-observer path diverged");
    let boxed = scenario
        .into_simulator()
        .expect("validates")
        .run_unobserved();
    assert_eq!(direct, boxed, "boxed dispatch diverged");
    direct
}

#[test]
fn hypercube_execution_paths_agree_across_full_matrix() {
    let schemes = [Scheme::Greedy, Scheme::RandomOrder, Scheme::TwoPhaseValiant];
    let arrivals = [
        ArrivalModel::Poisson,
        ArrivalModel::Slotted { slots_per_unit: 2 },
    ];
    let contentions = [
        ContentionPolicy::Fifo,
        ContentionPolicy::Lifo,
        ContentionPolicy::Random,
    ];
    for (i, &scheme) in schemes.iter().enumerate() {
        for (j, &arrival) in arrivals.iter().enumerate() {
            for (k, &contention) in contentions.iter().enumerate() {
                let seed = 0x5CE9 + (i * 100 + j * 10 + k) as u64;
                let scenario =
                    hypercube_scenario(scheme, arrival, contention, DestinationSpec::BitFlip, seed);
                let report = assert_paths_agree(&scenario);
                assert!(report.generated > 0, "degenerate case {scheme:?}");
                assert_eq!(report, scenario.run().unwrap(), "rerun diverged");
                let ReportExt::Hypercube(_) = &report.ext else {
                    panic!("wrong report extension");
                };
            }
        }
    }
}

#[test]
fn hypercube_paths_agree_with_custom_pmf() {
    let dest = DestinationSpec::product_of_flips(&[0.9, 0.3, 0.3, 0.1]);
    let scenario = hypercube_scenario(
        Scheme::Greedy,
        ArrivalModel::Poisson,
        ContentionPolicy::Fifo,
        dest,
        77,
    );
    let report = assert_paths_agree(&scenario);
    assert!(report.generated > 0);
}

#[test]
fn butterfly_execution_paths_agree() {
    for (arrivals, seed) in [
        (ArrivalModel::Poisson, 9u64),
        (ArrivalModel::Slotted { slots_per_unit: 3 }, 10),
    ] {
        let scenario = Scenario::builder(Topology::Butterfly { dim: 4 })
            .lambda(1.2)
            .p(0.4)
            .arrivals(arrivals)
            .horizon(400.0)
            .warmup(80.0)
            .seed(seed)
            .build()
            .expect("valid scenario");
        let report = assert_paths_agree(&scenario);
        assert_eq!(report.generated, report.delivered);
        let ReportExt::Butterfly(ext) = &report.ext else {
            panic!("wrong report extension");
        };
        assert_eq!(ext.straight_rate_per_level.len(), 4);
    }
}

#[test]
fn ring_execution_paths_agree_both_variants() {
    for (bidirectional, lambda, seed) in [(false, 0.15, 3u64), (true, 0.3, 4)] {
        let scenario = Scenario::builder(Topology::Ring {
            nodes: 12,
            bidirectional,
        })
        .lambda(lambda)
        .horizon(400.0)
        .warmup(80.0)
        .seed(seed)
        .build()
        .expect("valid scenario");
        let report = assert_paths_agree(&scenario);
        assert_eq!(report.generated, report.delivered);
        let ReportExt::Ring(ext) = &report.ext else {
            panic!("wrong report extension");
        };
        if !bidirectional {
            assert_eq!(ext.counter_clockwise_arc_rate, 0.0);
        }
    }
}

#[test]
fn eqnet_execution_paths_agree_both_disciplines() {
    use hyperroute::routing::equivalent_network::Discipline;
    for discipline in [Discipline::Fifo, Discipline::Ps] {
        let scenario = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim: 3 },
            record_departures: true,
            occupancy_cap: 4,
        })
        .lambda(1.2)
        .p(0.5)
        .discipline(discipline)
        .horizon(400.0)
        .warmup(80.0)
        .seed(55)
        .build()
        .expect("valid scenario");
        let report = assert_paths_agree(&scenario);
        let ReportExt::EqNet(ext) = &report.ext else {
            panic!("wrong report extension");
        };
        assert!(!ext.departures.is_empty());
        assert_eq!(ext.occupancy_fractions[0].len(), 4);
    }
}

#[test]
fn pipelined_execution_paths_agree() {
    let scenario = Scenario::builder(Topology::Pipelined { dim: 4, rounds: 80 })
        .lambda(0.05)
        .p(0.5)
        .seed(0x717E)
        .build()
        .expect("valid scenario");
    let report = assert_paths_agree(&scenario);
    assert!(report.delivered > 0);
    let ReportExt::Pipelined(ext) = &report.ext else {
        panic!("wrong report extension");
    };
    assert!(ext.mean_round_length >= 1.0);
}

#[test]
fn time_series_probe_does_not_change_reports() {
    let scenario = Scenario::builder(Topology::Hypercube { dim: 4 })
        .lambda(1.4)
        .horizon(500.0)
        .warmup(100.0)
        .seed(33)
        .build()
        .expect("valid scenario");
    let unobserved = scenario.run().unwrap();
    let mut probe = TimeSeriesProbe::new(25.0, scenario.run.horizon);
    let observed = scenario.run_observed(&mut probe).unwrap();
    assert_eq!(unobserved, observed);
    let samples = probe.into_samples();
    assert!(samples.len() >= 10);
    assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
}

/// Counts each arc's `on_hop` calls at `warmup <= t < horizon`: the
/// packets that joined the arc inside the measurement window.
struct WindowHops {
    warmup: f64,
    horizon: f64,
    per_arc: Vec<u64>,
}

impl Observer for WindowHops {
    fn on_hop(&mut self, t: f64, _packet_id: u64, _node: u32, arc: u32, _queue_depth: u32) {
        if self.warmup <= t && t < self.horizon {
            let arc = arc as usize;
            if arc >= self.per_arc.len() {
                self.per_arc.resize(arc + 1, 0);
            }
            self.per_arc[arc] += 1;
        }
    }
}

/// Every rate field of every corpus report on the packet engine is
/// exactly the in-window hops an observer saw: each count recovered from
/// the report as `(rate · span · arcs).round()` equals the observer's
/// count over the same arcs (Prop. 5's per-dimension rates, Prop. 15's
/// per-level rates, the ring's per-direction rates and the graph rate
/// summary).
#[test]
fn every_corpus_rate_field_counts_the_in_window_hops() {
    use hyperroute::topology::{ArcKind, ButterflyArc, HypercubeArc, RingDirection};
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    let mut kinds = std::collections::BTreeSet::new();
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable scenario");
        let scenario = Scenario::from_json(&text).expect("corpus scenario parses");
        if matches!(
            scenario.topology,
            Topology::EqNet { .. } | Topology::Pipelined { .. }
        ) {
            continue;
        }
        let mut hops = WindowHops {
            warmup: scenario.run.warmup,
            horizon: scenario.run.horizon,
            per_arc: Vec::new(),
        };
        let report = scenario.run_observed(&mut hops).expect("scenario runs");
        let span = scenario.run.horizon - scenario.run.warmup;
        let counted = |rate: f64, arcs: f64| (rate * span * arcs).round() as u64;
        // The observer's count over the arcs `select` keeps.
        let seen = |select: &dyn Fn(usize) -> bool| -> u64 {
            (hops.per_arc.iter().enumerate())
                .filter(|&(arc, _)| select(arc))
                .map(|(_, &n)| n)
                .sum()
        };
        let name = path.display();
        match &report.ext {
            ReportExt::Hypercube(ext) => {
                let d = ext.per_dim_arc_rate.len();
                let arcs_per_dim = (1u64 << d) as f64;
                for (dim, &rate) in ext.per_dim_arc_rate.iter().enumerate() {
                    let observed = seen(&|arc| HypercubeArc::from_index(arc, d).dim == dim);
                    assert_eq!(counted(rate, arcs_per_dim), observed, "{name} dim {dim}");
                }
                kinds.insert("hypercube");
            }
            ReportExt::Butterfly(ext) => {
                let d = ext.straight_rate_per_level.len();
                let arcs_per_level = (1u64 << d) as f64;
                for (kind, rates) in [
                    (ArcKind::Straight, &ext.straight_rate_per_level),
                    (ArcKind::Vertical, &ext.vertical_rate_per_level),
                ] {
                    for (level, &rate) in rates.iter().enumerate() {
                        let observed = seen(&|arc| {
                            let a = ButterflyArc::from_index(arc, d);
                            (a.kind, a.level) == (kind, level)
                        });
                        let recovered = counted(rate, arcs_per_level);
                        assert_eq!(recovered, observed, "{name} {kind:?} level {level}");
                    }
                }
                kinds.insert("butterfly");
            }
            ReportExt::Ring(ext) => {
                let Topology::Ring {
                    nodes,
                    bidirectional,
                } = scenario.topology
                else {
                    panic!("{name}: a ring report from another topology");
                };
                let ring = Ring::new(nodes, bidirectional);
                for (direction, rate) in [
                    (RingDirection::Clockwise, ext.clockwise_arc_rate),
                    (
                        RingDirection::CounterClockwise,
                        ext.counter_clockwise_arc_rate,
                    ),
                ] {
                    let observed = seen(&|arc| ring.arc_from_index(arc).1 == direction);
                    let recovered = counted(rate, nodes as f64);
                    assert_eq!(recovered, observed, "{name} {direction:?}");
                }
                kinds.insert("ring");
            }
            ReportExt::Graph(ext) => {
                let live = (ext.arcs - ext.dead_arcs) as f64;
                assert_eq!(counted(ext.mean_arc_rate, live), seen(&|_| true), "{name}");
                let busiest = hops.per_arc.iter().copied().max().unwrap_or(0);
                assert_eq!(counted(ext.max_arc_rate, 1.0), busiest, "{name}");
                kinds.insert("graph");
            }
            _ => panic!("{name}: no packet-engine report extension"),
        }
    }
    assert_eq!(
        kinds.into_iter().collect::<Vec<_>>(),
        ["butterfly", "graph", "hypercube", "ring"],
        "every rate-bearing extension is checked"
    );
}

// ---------------------------------------------------------------------
// Serde round-trips.
// ---------------------------------------------------------------------

fn scenario_strategy() -> impl Strategy<Value = Scenario> {
    (
        2usize..=5,
        0.05f64..1.6,
        0.05f64..=0.95,
        any::<u64>(),
        0usize..3,
        0usize..3,
        0usize..2,
    )
        .prop_map(|(dim, lambda, p, seed, scheme_i, contention_i, slotted)| {
            let slotted = slotted == 1;
            let schemes = [Scheme::Greedy, Scheme::RandomOrder, Scheme::TwoPhaseValiant];
            let contentions = [
                ContentionPolicy::Fifo,
                ContentionPolicy::Lifo,
                ContentionPolicy::Random,
            ];
            Scenario::builder(Topology::Hypercube { dim })
                .lambda(lambda)
                .p(p)
                .scheme(schemes[scheme_i])
                .contention(contentions[contention_i])
                .arrivals(if slotted {
                    ArrivalModel::Slotted { slots_per_unit: 2 }
                } else {
                    ArrivalModel::Poisson
                })
                .horizon(150.0)
                .warmup(30.0)
                .seed(seed)
                .build()
                .expect("valid scenario")
        })
}

fn ring_scenario_strategy() -> impl Strategy<Value = Scenario> {
    (3usize..=24, any::<bool>(), 0.02f64..0.2, any::<u64>()).prop_map(
        |(nodes, bidirectional, lambda, seed)| {
            Scenario::builder(Topology::Ring {
                nodes,
                bidirectional,
            })
            .lambda(lambda)
            .horizon(150.0)
            .warmup(30.0)
            .seed(seed)
            .build()
            .expect("valid scenario")
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// `Scenario → JSON → Scenario` is the identity, and the round-tripped
    /// scenario reproduces the original's report bit for bit.
    #[test]
    fn scenario_json_round_trip_preserves_reports(scenario in scenario_strategy()) {
        let text = scenario.to_json();
        let back = Scenario::from_json(&text).expect("round-trip parses");
        prop_assert_eq!(&scenario, &back);
        let original = scenario.run().expect("original runs");
        let replayed = back.run().expect("replay runs");
        prop_assert_eq!(original, replayed);
    }

    /// Reports themselves survive JSON round-trips bit-exactly.
    #[test]
    fn report_json_round_trip(scenario in scenario_strategy()) {
        let report = scenario.run().expect("scenario runs");
        let text = serde_json::to_string(&report).expect("serialises");
        let back: Report = serde_json::from_str(&text).expect("parses");
        prop_assert_eq!(report, back);
    }

    /// The new topology rides the same serde machinery: ring scenarios and
    /// their reports round-trip bit-exactly.
    #[test]
    fn ring_json_round_trip(scenario in ring_scenario_strategy()) {
        let text = scenario.to_json();
        let back = Scenario::from_json(&text).expect("round-trip parses");
        prop_assert_eq!(&scenario, &back);
        let original = scenario.run().expect("original runs");
        let replayed = back.run().expect("replay runs");
        prop_assert_eq!(&original, &replayed);
        let rendered = serde_json::to_string(&original).expect("serialises");
        let parsed: Report = serde_json::from_str(&rendered).expect("parses");
        prop_assert_eq!(original, parsed);
    }
}
