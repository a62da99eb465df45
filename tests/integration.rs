//! Cross-crate integration tests: the packet-level simulators, the
//! abstract equivalent networks, and the closed-form bounds must all agree
//! with each other — every system expressed as one `Scenario`.

use hyperroute::prelude::*;
use hyperroute::routing::stability::{probe_butterfly, probe_hypercube, probe_ring};

fn hypercube(dim: usize) -> Scenario {
    Scenario::builder(Topology::Hypercube { dim })
        .build()
        .expect("valid scenario")
}

/// §3.1: the hypercube under greedy routing IS the network Q. The
/// packet-level simulator and the abstract FIFO network simulator are
/// independent implementations; their stationary delays must coincide
/// (after conditioning on packets that actually move — Q has no zero-hop
/// customers).
#[test]
fn packet_sim_equals_equivalent_network_q() {
    let (d, lambda, p) = (4usize, 1.2f64, 0.5f64);
    let horizon = 4_000.0;

    let packet = Scenario::builder(Topology::Hypercube { dim: d })
        .lambda(lambda)
        .p(p)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(101)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs");

    let eq = Scenario::builder(Topology::EqNet {
        net: EqNetSpec::HypercubeQ { dim: d },
        record_departures: false,
        occupancy_cap: 0,
    })
    .lambda(lambda)
    .p(p)
    .horizon(horizon)
    .warmup(horizon * 0.2)
    .seed(202) // independent seed: distributional, not pathwise, equality
    .build()
    .expect("valid scenario")
    .run()
    .expect("scenario runs");

    // Packet-sim delay averages over ALL packets incl. zero-hop ones
    // (fraction (1-p)^d with delay 0); Q only sees moving packets.
    let moving = 1.0 - (1.0 - p).powi(d as i32);
    let packet_conditional = packet.delay.mean / moving;
    let rel = (packet_conditional - eq.delay.mean).abs() / eq.delay.mean;
    assert!(
        rel < 0.05,
        "packet sim {packet_conditional} vs equivalent network {} (rel {rel})",
        eq.delay.mean
    );
}

/// The three layers of Prop. 12's proof, measured:
/// packet-level T ≤ PS-network T̄ (Prop. 11) ≤ closed form dp/(1-ρ).
#[test]
fn three_layer_upper_bound_chain() {
    let (d, lambda, p) = (4usize, 1.4f64, 0.5f64); // ρ = 0.7
    let horizon = 6_000.0;

    let packet = Scenario::builder(Topology::Hypercube { dim: d })
        .lambda(lambda)
        .p(p)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(11)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs");

    let ps = Scenario::builder(Topology::EqNet {
        net: EqNetSpec::HypercubeQ { dim: d },
        record_departures: false,
        occupancy_cap: 0,
    })
    .lambda(lambda)
    .p(p)
    .discipline(Discipline::Ps)
    .horizon(horizon)
    .warmup(horizon * 0.2)
    .seed(12)
    .build()
    .expect("valid scenario")
    .run()
    .expect("scenario runs");

    let moving = 1.0 - (1.0 - p).powi(d as i32);
    let t_packet_cond = packet.delay.mean / moving;
    let closed_form = greedy_upper_bound(d, lambda, p) / moving;
    assert!(
        t_packet_cond <= ps.delay.mean * 1.05,
        "packet {t_packet_cond} above PS network {}",
        ps.delay.mean
    );
    assert!(
        ps.delay.mean <= closed_form * 1.05,
        "PS network {} above closed form {closed_form}",
        ps.delay.mean
    );
}

/// Hypercube and butterfly brackets hold at a matrix of parameter points —
/// expressed as one deterministic `Sweep` per topology.
#[test]
fn delay_brackets_hold_meshwide() {
    let p = 0.5;
    for &(d, rho) in &[(3usize, 0.4f64), (4, 0.7), (5, 0.85)] {
        let lambda = rho / p;
        let horizon = 4_000.0;
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(31 + d as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        let b = greedy_delay_bounds(d, lambda, p);
        assert!(
            b.contains(r.delay.mean, 0.05),
            "hypercube d={d} ρ={rho}: {} outside [{}, {}]",
            r.delay.mean,
            b.lower,
            b.upper
        );
    }

    for &(d, lambda, p) in &[(3usize, 1.0f64, 0.5f64), (4, 1.4, 0.3)] {
        let horizon = 4_000.0;
        let r = Scenario::builder(Topology::Butterfly { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(41 + d as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        let lb = butterfly_bounds::universal_lower_bound(d, lambda, p);
        let ub = butterfly_bounds::greedy_upper_bound(d, lambda, p);
        assert!(
            r.delay.mean >= lb * 0.95 && r.delay.mean <= ub * 1.05,
            "butterfly d={d}: {} outside [{lb}, {ub}]",
            r.delay.mean
        );
    }
}

/// Stability frontiers: both networks flip from stable to unstable exactly
/// where their load factors cross 1.
#[test]
fn stability_frontiers() {
    // Hypercube: ρ = λp.
    assert!(probe_hypercube(4, 1.7, 0.5, Scheme::Greedy, 3_000.0, 51).stable);
    assert!(!probe_hypercube(4, 2.4, 0.5, Scheme::Greedy, 3_000.0, 52).stable);
    // Butterfly: ρ_bf = λ·max{p, 1-p}; skew p breaks it sooner.
    assert!(probe_butterfly(4, 1.2, 0.5, 3_000.0, 53).stable);
    assert!(!probe_butterfly(4, 1.2, 0.1, 3_000.0, 54).stable); // ρ_bf=1.08
                                                                // Ring (clockwise-only n=9): ρ_ring = λ(n-1)/2 crosses 1 at λ = 0.25.
    assert!(probe_ring(9, false, 0.2, 3_000.0, 55).stable); // ρ = 0.8
    assert!(!probe_ring(9, false, 0.32, 3_000.0, 56).stable); // ρ = 1.28
}

/// Slotted arrivals obey the §3.4 bound and approach the continuous delay
/// as slots shrink.
#[test]
fn slotted_time_consistency() {
    let (d, lambda, p) = (4usize, 1.2f64, 0.5f64);
    let horizon = 4_000.0;
    let run = |arrivals| {
        Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .arrivals(arrivals)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(61)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
            .delay
            .mean
    };
    let continuous = run(ArrivalModel::Poisson);
    let coarse = run(ArrivalModel::Slotted { slots_per_unit: 1 });
    let fine = run(ArrivalModel::Slotted { slots_per_unit: 8 });
    let bound = hyperroute::analysis::hypercube_bounds::slotted_upper_bound(d, lambda, p, 1.0);
    assert!(
        coarse <= bound * 1.03,
        "coarse slotted {coarse} above {bound}"
    );
    // Finer slots converge towards the continuous model.
    assert!(
        (fine - continuous).abs() < (coarse - continuous).abs() + 0.15,
        "fine {fine} not closer to continuous {continuous} than coarse {coarse}"
    );
}

/// A `Sweep` over the default hypercube scenario reproduces what running
/// each expanded scenario by hand produces, in grid order.
#[test]
fn sweep_matches_pointwise_runs() {
    use hyperroute::routing::scenario::{Axis, SweepParam};
    let mut base = hypercube(4);
    base.run.horizon = 400.0;
    base.run.warmup = 80.0;
    let sweep = Sweep::new(
        base,
        vec![Axis::new(SweepParam::Lambda, vec![0.8, 1.2, 1.6])],
    );
    let grid = sweep.run(0).expect("sweep runs");
    let pointwise: Vec<Report> = sweep
        .scenarios()
        .expect("expands")
        .iter()
        .map(|s| s.run().expect("runs"))
        .collect();
    assert_eq!(grid, pointwise);
}

/// The experiment harness end-to-end: every registered experiment
/// (E01–E29) renders a non-empty table at Quick scale, the scale
/// `examples/generate_experiments.rs --quick` runs.
#[test]
fn all_experiments_render() {
    for (name, f) in hyperroute::experiments::all_experiments() {
        let t = f(Scale::Quick);
        assert!(!t.rows.is_empty(), "{name} produced an empty table");
        assert!(t.render().contains("=="));
    }
}
