//! Hypercube instantiation of the generic engine — the paper's model,
//! exactly (§1.1, §3).
//!
//! One deterministic unit-service FIFO queue per directed arc; packets
//! cross the dimensions their destination requires in the order the scheme
//! dictates; contention is resolved FIFO (or by the configured ablation
//! policy); no idling. Per-node Poisson sources are merged into one
//! network-wide Poisson process of rate `λ·2^d` with uniform node
//! assignment (superposition is exact, and keeps the event set small).
//!
//! Everything event-loop-shaped lives in [`crate::engine`]; this module is
//! only the hypercube's routing law ([`HypercubeSpec`]), its per-dimension
//! statistics, and its [`Report`] assembly. Construct through
//! [`crate::scenario::Scenario`] with
//! [`crate::scenario::Topology::Hypercube`].

use crate::config::{DestinationSpec, Scheme};
use crate::engine::{Advance, ArcChoice, Engine, EngineCfg, EnginePacket, EngineSpec, Spawn};
use crate::observe::{NullObserver, Observer};
use crate::packet::{next_dim, sample_flip_mask, MaskSampler, Packet, NO_SECOND_LEG};
use crate::scenario::{HypercubeExt, Report, ReportExt, Scenario, Topology};
use hyperroute_desim::{SimRng, TimeIntegral};
use hyperroute_topology::Hypercube;

impl EnginePacket for Packet {
    #[inline]
    fn born(&self) -> f64 {
        self.born
    }

    #[inline]
    fn set_trace_id(&mut self, id: u32) {
        self.trace = id;
    }

    #[inline]
    fn trace_id(&self) -> u32 {
        self.trace
    }
}

/// Bits of the packed arc word holding the arc's target node (`d ≤ 26` ⇒
/// nodes fit in 26 bits, below the dimension field and the engine's busy
/// bit).
const ARC_NODE_MASK: u32 = (1 << 26) - 1;

/// Bit offset of the arc's dimension in the packed arc word (bits 26..31).
const ARC_DIM_SHIFT: u32 = 26;

/// The hypercube's per-topology half of the generic engine: destination
/// law (Eq. (1) bit-flips or a mask pmf), scheme-ordered dimension
/// crossing (greedy / random-order / two-phase Valiant), and the Prop. 5 /
/// Prop. 13 per-dimension measurements.
pub struct HypercubeSpec {
    dim: usize,
    p: f64,
    scheme: Scheme,
    mask_sampler: Option<MaskSampler>,
    warmup: f64,
    horizon: f64,
    dim_arrivals: Vec<u64>,
    /// Time-weighted total occupancy per dimension (all 2^d arcs pooled).
    dim_occupancy: Vec<TimeIntegral>,
    dim_occ_reset_done: bool,
}

impl HypercubeSpec {
    /// Track the pooled occupancy of one dimension's arcs; integration
    /// restarts at the warm-up boundary and freezes at the horizon, like
    /// the main collector's number-in-system signal.
    fn bump_dim_occupancy(&mut self, t: f64, dim: usize, delta: f64) {
        if !self.dim_occ_reset_done && t >= self.warmup {
            let w = self.warmup;
            for tw in &mut self.dim_occupancy {
                tw.add(w, 0.0);
                tw.reset(w);
            }
            self.dim_occ_reset_done = true;
        }
        if t < self.horizon {
            self.dim_occupancy[dim].add(t, delta);
        }
    }

    /// One destination mask from the configured distribution.
    fn sample_dest_mask(&mut self, rng: &mut SimRng) -> u32 {
        match &self.mask_sampler {
            Some(sampler) => sampler.sample(rng),
            None => sample_flip_mask(rng, self.dim, self.p),
        }
    }
}

impl EngineSpec for HypercubeSpec {
    type Pkt = Packet;

    fn num_sources(&self) -> usize {
        1 << self.dim
    }

    fn num_arcs(&self) -> usize {
        self.dim << self.dim
    }

    fn arc_meta(&self, arc: usize) -> u32 {
        let (node, d) = ((arc / self.dim) as u32, arc % self.dim);
        (node ^ (1 << d)) | ((d as u32) << ARC_DIM_SHIFT)
    }

    fn mean_hops_hint(&self) -> f64 {
        self.dim as f64
    }

    fn generate(&mut self, t: f64, source: u32, dest_rng: &mut SimRng) -> Spawn<Packet> {
        match self.scheme {
            Scheme::Greedy | Scheme::RandomOrder => {
                let mask = self.sample_dest_mask(dest_rng);
                if mask == 0 {
                    Spawn::SelfDeliver
                } else {
                    Spawn::Route(Packet::new(t, mask, NO_SECOND_LEG))
                }
            }
            Scheme::TwoPhaseValiant => {
                // Leg 1: uniformly random intermediate node ⇒ the leg mask
                // flips each bit with probability 1/2.
                let inter_mask = sample_flip_mask(dest_rng, self.dim, 0.5);
                let dest_mask = self.sample_dest_mask(dest_rng);
                let final_dest = source ^ dest_mask;
                if inter_mask == 0 && source == final_dest {
                    Spawn::SelfDeliver
                } else if inter_mask == 0 {
                    // Degenerate leg 1; go straight to leg 2.
                    Spawn::Route(Packet::new(t, source ^ final_dest, NO_SECOND_LEG))
                } else {
                    Spawn::Route(Packet::new(t, inter_mask, final_dest))
                }
            }
        }
    }

    fn choose_arc(
        &mut self,
        t: f64,
        in_window: bool,
        node: u32,
        pkt: &mut Packet,
        route_rng: &mut SimRng,
    ) -> ArcChoice {
        debug_assert!(pkt.remaining != 0);
        let dim = next_dim(self.scheme, pkt.remaining, route_rng);
        pkt.remaining &= !(1u32 << dim);
        if in_window {
            self.dim_arrivals[dim] += 1;
        }
        self.bump_dim_occupancy(t, dim, 1.0);
        ArcChoice::Arc((node as usize * self.dim + dim) as u32)
    }

    fn note_service_end(&mut self, t: f64, meta: u32) {
        self.bump_dim_occupancy(t, (meta >> ARC_DIM_SHIFT) as usize, -1.0);
    }

    fn advance(&mut self, meta: u32, pkt: &mut Packet) -> Advance {
        pkt.hops += 1;
        let node = meta & ARC_NODE_MASK;
        if pkt.remaining != 0 {
            Advance::Forward(node)
        } else if pkt.second_leg_dest != NO_SECOND_LEG {
            let mask = node ^ pkt.second_leg_dest;
            pkt.second_leg_dest = NO_SECOND_LEG;
            if mask == 0 {
                Advance::Deliver(pkt.hops)
            } else {
                pkt.remaining = mask;
                Advance::Forward(node)
            }
        } else {
            Advance::Deliver(pkt.hops)
        }
    }

    fn note_deliver(&mut self, _pkt: &Packet, _in_window: bool) {}
}

/// The hypercube simulator: a [`HypercubeSpec`] driven by the generic
/// [`Engine`]. Built by the scenario layer; run with [`HypercubeSim::run`]
/// or [`HypercubeSim::run_observed`].
pub struct HypercubeSim {
    engine: Engine<HypercubeSpec>,
}

impl HypercubeSim {
    /// Build the simulator from a validated hypercube scenario.
    pub(crate) fn from_scenario(s: &Scenario) -> HypercubeSim {
        let Topology::Hypercube { dim } = s.topology else {
            unreachable!("hypercube simulator on a non-hypercube scenario");
        };
        let cube = Hypercube::new(dim);
        let mask_sampler = match &s.workload.dest {
            DestinationSpec::BitFlip => None,
            DestinationSpec::MaskPmf(pmf) => Some(MaskSampler::new(pmf)),
            DestinationSpec::NodePmf(_) | DestinationSpec::RingPowerLaw { .. } => {
                unreachable!("node-addressed laws are rejected for the hypercube")
            }
        };
        let spec = HypercubeSpec {
            dim,
            p: s.workload.p,
            scheme: s.policy.scheme,
            mask_sampler,
            warmup: s.run.warmup,
            horizon: s.run.horizon,
            dim_arrivals: vec![0; dim],
            dim_occupancy: (0..dim).map(|_| TimeIntegral::new(0.0, 0.0)).collect(),
            dim_occ_reset_done: s.run.warmup == 0.0,
        };
        let cfg = EngineCfg {
            lambda: s.workload.lambda,
            arrivals: s.workload.arrivals,
            contention: s.policy.contention,
            scheduler: s.run.scheduler,
            horizon: s.run.horizon,
            warmup: s.run.warmup,
            seed: s.run.seed,
            drain: s.run.drain,
        };
        debug_assert_eq!(cube.num_arcs(), dim << dim);
        HypercubeSim {
            engine: Engine::new(spec, cfg),
        }
    }

    /// Run to completion and summarise.
    pub fn run(self) -> Report {
        self.run_observed(&mut NullObserver)
    }

    /// Run to completion under a streaming [`Observer`] and summarise.
    ///
    /// The observer sees every event (before it is applied) and every
    /// delivery; it never changes the simulation — reports are
    /// bit-identical to an unobserved [`HypercubeSim::run`].
    pub fn run_observed<O: Observer>(mut self, obs: &mut O) -> Report {
        self.engine.drive(obs);
        self.report()
    }

    fn report(&self) -> Report {
        let engine = &self.engine;
        let (spec, cfg, collector) = (engine.spec(), engine.cfg(), engine.collector());
        let span = cfg.horizon - cfg.warmup;
        let arcs_per_dim = (1usize << spec.dim) as f64;
        let per_dim_arc_rate: Vec<f64> = spec
            .dim_arrivals
            .iter()
            .map(|&c| c as f64 / (span * arcs_per_dim))
            .collect();
        let per_dim_mean_queue: Vec<f64> = spec
            .dim_occupancy
            .iter()
            .map(|tw| tw.mean(cfg.horizon) / arcs_per_dim)
            .collect();
        Report {
            delay: collector.delay_stats(),
            mean_in_system: collector.mean_in_system(cfg.horizon),
            peak_in_system: collector.peak_in_system(),
            throughput: collector.throughput(cfg.horizon),
            little_error: collector.little_check(cfg.horizon).relative_error(),
            generated: collector.generated(),
            delivered: collector.delivered_total(),
            events: engine.events_processed(),
            ext: ReportExt::Hypercube(HypercubeExt {
                rho: cfg.lambda * spec.p,
                mean_hops: collector.mean_hops(),
                zero_hop_fraction: collector.zero_hop_fraction(),
                per_dim_arc_rate,
                per_dim_mean_queue,
            }),
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{ArrivalModel, ConfigError, ContentionPolicy};
    use crate::scenario::Scenario;
    use hyperroute_analysis::hypercube_bounds;

    fn base_scenario() -> Scenario {
        Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.2)
            .p(0.5) // ρ = 0.6
            .horizon(3_000.0)
            .warmup(500.0)
            .seed(12)
            .build()
            .expect("valid scenario")
    }

    fn run(s: &Scenario) -> Report {
        HypercubeSim::from_scenario(s).run()
    }

    fn hc(r: &Report) -> &HypercubeExt {
        let ReportExt::Hypercube(ext) = &r.ext else {
            panic!("wrong report extension");
        };
        ext
    }

    #[test]
    fn everything_generated_is_delivered_with_drain() {
        let r = run(&base_scenario());
        assert_eq!(r.generated, r.delivered);
        assert!(r.generated > 50_000, "generated {}", r.generated);
    }

    #[test]
    fn delay_within_paper_bracket() {
        let r = run(&base_scenario());
        let lb = hypercube_bounds::greedy_lower_bound(4, 1.2, 0.5);
        let ub = hypercube_bounds::greedy_upper_bound(4, 1.2, 0.5);
        assert!(
            r.delay.mean >= lb * 0.97 && r.delay.mean <= ub * 1.03,
            "measured {} outside [{lb}, {ub}]",
            r.delay.mean
        );
    }

    #[test]
    fn mean_hops_matches_dp_and_zero_hop_fraction() {
        let r = run(&base_scenario());
        assert!(
            (hc(&r).mean_hops - 2.0).abs() < 0.05,
            "mean hops {} vs dp = 2",
            hc(&r).mean_hops
        );
        // (1-p)^d = 0.0625.
        assert!(
            (hc(&r).zero_hop_fraction - 0.0625).abs() < 0.01,
            "zero-hop {}",
            hc(&r).zero_hop_fraction
        );
    }

    #[test]
    fn proposition_5_arc_rates() {
        let r = run(&base_scenario());
        for (dim, &rate) in hc(&r).per_dim_arc_rate.iter().enumerate() {
            assert!(
                (rate - 0.6).abs() < 0.03,
                "dimension {dim}: per-arc rate {rate} vs ρ=0.6"
            );
        }
    }

    #[test]
    fn little_law_holds() {
        let r = run(&base_scenario());
        assert!(r.little_error < 0.05, "little error {}", r.little_error);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run(&base_scenario());
        let b = run(&base_scenario());
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delay.mean, b.delay.mean);
        let mut s2 = base_scenario();
        s2.run.seed ^= 1;
        let c = run(&s2);
        assert_ne!(a.delay.mean, c.delay.mean);
    }

    #[test]
    fn p_one_matches_exact_formula() {
        // §3.3 end: p = 1 ⇒ T = d + ρ/(2(1-ρ)) exactly (disjoint paths).
        let s = Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(0.7)
            .p(1.0)
            .horizon(4_000.0)
            .warmup(500.0)
            .seed(5)
            .build()
            .unwrap();
        let r = run(&s);
        let exact = hypercube_bounds::p_one_exact_delay(4, 0.7);
        assert!(
            (r.delay.mean - exact).abs() / exact < 0.02,
            "measured {} vs exact {exact}",
            r.delay.mean
        );
        // Every packet takes exactly d hops.
        assert!((hc(&r).mean_hops - 4.0).abs() < 1e-9);
        assert_eq!(hc(&r).zero_hop_fraction, 0.0);
    }

    #[test]
    fn rejects_zero_slots_per_unit() {
        let err = Scenario::builder(Topology::Hypercube { dim: 4 })
            .arrivals(ArrivalModel::Slotted { slots_per_unit: 0 })
            .build()
            .unwrap_err();
        assert_eq!(err, ConfigError::SlotsPerUnit);
    }

    #[test]
    fn p_zero_all_packets_self_delivered() {
        let s = Scenario::builder(Topology::Hypercube { dim: 5 })
            .lambda(1.0)
            .p(0.0)
            .horizon(200.0)
            .warmup(10.0)
            .seed(8)
            .build()
            .unwrap();
        let r = run(&s);
        assert_eq!(hc(&r).zero_hop_fraction, 1.0);
        assert_eq!(r.delay.mean, 0.0);
        assert_eq!(hc(&r).mean_hops, 0.0);
    }

    #[test]
    fn random_order_scheme_also_stable_and_shortest_path() {
        let mut s = base_scenario();
        s.policy.scheme = Scheme::RandomOrder;
        s.run.horizon = 2_000.0;
        let r = run(&s);
        assert_eq!(r.generated, r.delivered);
        // Shortest paths: mean hops still dp.
        assert!(
            (hc(&r).mean_hops - 2.0).abs() < 0.06,
            "hops {}",
            hc(&r).mean_hops
        );
    }

    #[test]
    fn valiant_doubles_path_length() {
        let mut s = base_scenario();
        s.policy.scheme = Scheme::TwoPhaseValiant;
        s.workload.lambda = 0.4; // keep effective load below 1
        s.run.horizon = 2_000.0;
        let r = run(&s);
        assert_eq!(r.generated, r.delivered);
        // Expected hops = d/2 (leg 1) + dp (leg 2) = 2 + 2 = 4.
        assert!(
            (hc(&r).mean_hops - 4.0).abs() < 0.1,
            "hops {}",
            hc(&r).mean_hops
        );
        // Delay strictly worse than direct greedy at the same (λ, p).
        let mut direct = s.clone();
        direct.policy.scheme = Scheme::Greedy;
        assert!(r.delay.mean > run(&direct).delay.mean);
    }

    #[test]
    fn slotted_arrivals_obey_slotted_bound() {
        let s = Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.0)
            .p(0.5)
            .arrivals(ArrivalModel::Slotted { slots_per_unit: 2 })
            .horizon(3_000.0)
            .warmup(500.0)
            .seed(77)
            .build()
            .unwrap();
        let r = run(&s);
        let ub = hypercube_bounds::slotted_upper_bound(4, 1.0, 0.5, 0.5);
        assert!(
            r.delay.mean <= ub * 1.03,
            "slotted delay {} above bound {ub}",
            r.delay.mean
        );
        assert_eq!(r.generated, r.delivered);
    }

    #[test]
    fn proposition_13_per_dimension_occupancy() {
        // Eq. (16): dimension-0 arcs are exactly M/D/1, so their mean
        // occupancy is ρ + ρ²/(2(1-ρ)); Eq. (15) machinery: every deeper
        // dimension holds at least ρ (service alone) and at most the
        // product-form ρ/(1-ρ).
        let rho: f64 = 0.6;
        let r = run(&base_scenario());
        let queue = &hc(&r).per_dim_mean_queue;
        let md1_exact = rho + rho * rho / (2.0 * (1.0 - rho));
        assert!(
            (queue[0] - md1_exact).abs() < 0.02,
            "dim 0 occupancy {} vs M/D/1 {md1_exact}",
            queue[0]
        );
        for (dim, &n) in queue.iter().enumerate().skip(1) {
            assert!(n >= rho * 0.97, "dim {dim} occupancy {n} below ρ = {rho}");
            assert!(
                n <= rho / (1.0 - rho) * 1.05,
                "dim {dim} occupancy {n} above product-form cap"
            );
        }
        // Deterministic unit service smooths traffic, so deeper dimensions
        // see a stream more regular than Poisson and queue less than the
        // M/D/1 first dimension.
        assert!(queue[3] <= queue[0] + 0.02, "{queue:?}");
    }

    #[test]
    fn contention_policies_share_mean_but_not_tail() {
        // Non-preemptive work-conserving policies that ignore service
        // times have (near-)identical mean delay; LIFO fattens the tail.
        let run_policy = |contention| {
            let mut s = base_scenario();
            s.policy.contention = contention;
            s.run.horizon = 6_000.0;
            s.run.warmup = 1_000.0;
            run(&s)
        };
        let fifo = run_policy(ContentionPolicy::Fifo);
        let lifo = run_policy(ContentionPolicy::Lifo);
        let rand = run_policy(ContentionPolicy::Random);
        let rel = |a: f64, b: f64| (a - b).abs() / a;
        assert!(
            rel(fifo.delay.mean, lifo.delay.mean) < 0.06,
            "means diverge: fifo {} lifo {}",
            fifo.delay.mean,
            lifo.delay.mean
        );
        assert!(rel(fifo.delay.mean, rand.delay.mean) < 0.06);
        assert!(
            lifo.delay.p99 > fifo.delay.p99,
            "LIFO p99 {} not above FIFO p99 {}",
            lifo.delay.p99,
            fifo.delay.p99
        );
    }

    #[test]
    fn custom_destination_equivalent_to_bitflip() {
        // A product-of-flips pmf with uniform q must match BitFlip(q) in
        // law; same seed gives close statistics (not identical draws: the
        // samplers consume different variates).
        let base = base_scenario();
        let bitflip = run(&base);
        let mut custom = base.clone();
        custom.workload.dest = DestinationSpec::product_of_flips(&[0.5; 4]);
        let custom = run(&custom);
        assert!(
            (bitflip.delay.mean - custom.delay.mean).abs() / bitflip.delay.mean < 0.05,
            "bitflip {} vs custom {}",
            bitflip.delay.mean,
            custom.delay.mean
        );
        assert!((hc(&bitflip).mean_hops - hc(&custom).mean_hops).abs() < 0.1);
    }

    #[test]
    fn skewed_destination_loads_bottleneck_dimension() {
        // Flip dim 0 always, others rarely: arc rate in dim 0 is λ, in the
        // others λ·0.1 (Prop. 5's generalisation: rate_j = λ·p_j).
        let lambda = 0.8;
        let s = Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(lambda)
            .dest(DestinationSpec::product_of_flips(&[1.0, 0.1, 0.1, 0.1]))
            .horizon(3_000.0)
            .warmup(500.0)
            .seed(99)
            .build()
            .unwrap();
        let r = run(&s);
        let rates = &hc(&r).per_dim_arc_rate;
        assert!((rates[0] - lambda).abs() < 0.04, "dim0 rate {}", rates[0]);
        for (dim, &rate) in rates.iter().enumerate().skip(1) {
            assert!((rate - lambda * 0.1).abs() < 0.02, "dim{dim} rate {rate}");
        }
        // No packet is self-destined (dim 0 always flips).
        assert_eq!(hc(&r).zero_hop_fraction, 0.0);
    }

    #[test]
    fn observed_run_produces_monotone_timestamps() {
        let mut probe = crate::observe::TimeSeriesProbe::new(50.0, 3_000.0);
        HypercubeSim::from_scenario(&base_scenario()).run_observed(&mut probe);
        let samples = probe.into_samples();
        assert!(samples.len() >= 50);
        assert!(samples.windows(2).all(|w| w[0].0 < w[1].0));
        // In a stable run the trajectory stays bounded.
        let max_n = samples.iter().map(|&(_, n)| n).fold(0.0, f64::max);
        assert!(max_n < 2_000.0, "suspicious queue growth: {max_n}");
    }
}
