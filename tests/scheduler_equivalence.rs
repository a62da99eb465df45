//! Differential tests of the two scheduler kinds.
//!
//! Under `SchedulerKind::Calendar` (the default) the packet engine keeps
//! its pending service completions in a unit-service FIFO;
//! `SchedulerKind::Heap` selects the reference binary heap. The
//! equivalent network runs that heap under either kind, so its runs here
//! check only that the kind does not leak into its reports. The contract
//! is not "statistically equivalent" but **bit-identical**: for a fixed
//! seed, the FIFO must pop every event in exactly the same order as the
//! heap, consume exactly the same random draws, and therefore produce
//! byte-for-byte equal reports. These tests run every simulator (through
//! the unified `Scenario` spec, varying only `RunControl::scheduler`)
//! across schemes, arrival models, and contention policies under both
//! kinds and compare full reports with `==` (two reports are equal when
//! their JSON texts are). Debug builds also assert on every FIFO push
//! that its time does not precede the last one, so each run here checks
//! the argument that makes the FIFO exact.

use hyperroute::prelude::*;
use hyperroute_desim::SchedulerKind;

fn hypercube_report(
    scheme: Scheme,
    arrivals: ArrivalModel,
    contention: ContentionPolicy,
    dest: DestinationSpec,
    seed: u64,
    kind: SchedulerKind,
) -> Report {
    Scenario::builder(Topology::Hypercube { dim: 4 })
        .lambda(1.0)
        .p(0.5)
        .scheme(scheme)
        .arrivals(arrivals)
        .dest(dest)
        .contention(contention)
        .scheduler(kind)
        .horizon(400.0)
        .warmup(80.0)
        .seed(seed)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs")
}

#[test]
fn hypercube_reports_identical_across_schemes_arrivals_contention() {
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
                let seed = 1000 + (i * 10 + j * 100 + k) as u64;
                let heap = hypercube_report(
                    scheme,
                    arrival,
                    contention,
                    DestinationSpec::BitFlip,
                    seed,
                    SchedulerKind::Heap,
                );
                let calendar = hypercube_report(
                    scheme,
                    arrival,
                    contention,
                    DestinationSpec::BitFlip,
                    seed,
                    SchedulerKind::Calendar,
                );
                assert_eq!(
                    heap, calendar,
                    "backends diverged: {scheme:?} / {arrival:?} / {contention:?} / seed {seed}"
                );
                assert!(heap.generated > 0, "degenerate case {scheme:?}");
            }
        }
    }
}

#[test]
fn hypercube_reports_identical_with_custom_destination_pmf() {
    for seed in [7u64, 8, 9] {
        let dest = DestinationSpec::product_of_flips(&[0.9, 0.3, 0.3, 0.1]);
        let heap = hypercube_report(
            Scheme::Greedy,
            ArrivalModel::Poisson,
            ContentionPolicy::Fifo,
            dest.clone(),
            seed,
            SchedulerKind::Heap,
        );
        let calendar = hypercube_report(
            Scheme::Greedy,
            ArrivalModel::Poisson,
            ContentionPolicy::Fifo,
            dest,
            seed,
            SchedulerKind::Calendar,
        );
        assert_eq!(heap, calendar, "seed {seed}");
    }
}

#[test]
fn hypercube_observed_trajectories_identical() {
    let run = |kind| {
        let scenario = Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.4)
            .p(0.5)
            .scheduler(kind)
            .horizon(500.0)
            .warmup(100.0)
            .seed(33)
            .build()
            .expect("valid scenario");
        let mut probe = TimeSeriesProbe::new(25.0, scenario.run.horizon);
        let report = scenario.run_observed(&mut probe).expect("scenario runs");
        (report, probe.into_samples())
    };
    let (rh, sh) = run(SchedulerKind::Heap);
    let (rc, sc) = run(SchedulerKind::Calendar);
    assert_eq!(rh, rc);
    assert_eq!(sh, sc, "number-in-system sample paths diverged");
    assert!(sh.len() >= 10);
}

#[test]
fn butterfly_reports_identical_both_arrival_models() {
    for (arrivals, seed) in [
        (ArrivalModel::Poisson, 21u64),
        (ArrivalModel::Slotted { slots_per_unit: 2 }, 22),
        (ArrivalModel::Poisson, 0xDEAD),
    ] {
        let run = |kind| {
            Scenario::builder(Topology::Butterfly { dim: 4 })
                .lambda(1.2)
                .p(0.4)
                .arrivals(arrivals)
                .scheduler(kind)
                .horizon(400.0)
                .warmup(80.0)
                .seed(seed)
                .build()
                .expect("valid scenario")
                .run()
                .expect("scenario runs")
        };
        let heap = run(SchedulerKind::Heap);
        let calendar = run(SchedulerKind::Calendar);
        assert_eq!(heap, calendar, "{arrivals:?} / seed {seed}");
        assert!(heap.generated > 0);
    }
}

#[test]
fn ring_reports_identical_across_variants_and_arrivals() {
    for (bidirectional, arrivals, seed) in [
        (false, ArrivalModel::Poisson, 61u64),
        (true, ArrivalModel::Poisson, 62),
        (true, ArrivalModel::Slotted { slots_per_unit: 2 }, 63),
    ] {
        let run = |kind| {
            Scenario::builder(Topology::Ring {
                nodes: 12,
                bidirectional,
            })
            .lambda(0.12)
            .arrivals(arrivals)
            .scheduler(kind)
            .horizon(400.0)
            .warmup(80.0)
            .seed(seed)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
        };
        let heap = run(SchedulerKind::Heap);
        let calendar = run(SchedulerKind::Calendar);
        assert_eq!(heap, calendar, "bidir={bidirectional} / {arrivals:?}");
        assert!(heap.generated > 0);
    }
}

#[test]
fn equivalent_network_reports_identical_both_disciplines() {
    for discipline in [Discipline::Fifo, Discipline::Ps] {
        let run = |kind| {
            Scenario::builder(Topology::EqNet {
                net: EqNetSpec::HypercubeQ { dim: 3 },
                record_departures: true,
                occupancy_cap: 0,
            })
            .lambda(1.2)
            .p(0.5)
            .discipline(discipline)
            .scheduler(kind)
            .horizon(400.0)
            .warmup(80.0)
            .seed(55)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
        };
        let heap = run(SchedulerKind::Heap);
        let calendar = run(SchedulerKind::Calendar);
        assert_eq!(heap, calendar, "{discipline:?}");
        assert!(heap.generated > 0);
    }
}

#[test]
fn near_zero_rate_identical_and_terminates() {
    // λ so small that the first merged arrival lands ~1e19 time units out,
    // far past the horizon: the run must terminate, and both completion
    // lists must agree on it.
    let run = |kind| {
        Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(1e-20)
            .p(0.5)
            .scheduler(kind)
            .horizon(100.0)
            .warmup(10.0)
            .seed(5)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
    };
    let heap = run(SchedulerKind::Heap);
    let calendar = run(SchedulerKind::Calendar);
    assert_eq!(heap, calendar);
}

#[test]
fn instability_probe_without_drain_identical() {
    // ρ > 1: unstable, queues grow, horizon cut without drain — the
    // backends must agree on the truncated run too.
    let run = |kind| {
        Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(2.6)
            .p(0.5)
            .scheduler(kind)
            .horizon(150.0)
            .warmup(30.0)
            .seed(99)
            .drain(false)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
    };
    let heap = run(SchedulerKind::Heap);
    let calendar = run(SchedulerKind::Calendar);
    assert_eq!(heap, calendar);
    assert!(
        heap.generated > heap.delivered,
        "expected backlog at ρ = 1.3"
    );
}

/// Every packet-engine corpus scenario (`scenarios/*.json`) under each
/// backend, compared as report JSON bytes. The only heap/FIFO check for
/// the torus, de Bruijn, fat tree and sparse topologies, and for the
/// faulty, dynamic-fault, `Escape` and hub-index runs.
#[test]
fn corpus_reports_byte_identical_under_both_backends() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .expect("scenario directory")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "json"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no scenarios in {dir}");
    for path in &paths {
        let text = std::fs::read_to_string(path).expect("readable scenario");
        let scenario = Scenario::from_json(&text).expect("corpus scenario parses");
        // Only the packet engine has a completion list for the kind to
        // select; the equivalent network and the pipelined scheme have
        // none (`run-corpus` gates their bytes, and
        // `equivalent_network_reports_identical_both_disciplines` checks
        // that the kind does not leak into an equivalent-network report).
        if matches!(
            scenario.topology,
            Topology::EqNet { .. } | Topology::Pipelined { .. }
        ) {
            continue;
        }
        let report_json = |kind| {
            let mut scenario = scenario.clone();
            scenario.run.scheduler = kind;
            let report = scenario.run().expect("scenario runs");
            serde_json::to_string_pretty(&report).expect("reports serialise")
        };
        assert_eq!(
            report_json(SchedulerKind::Heap),
            report_json(SchedulerKind::Calendar),
            "backends diverged on {}",
            path.display()
        );
    }
}
