//! Butterfly instantiation of the generic engine (paper §4).
//!
//! Packets are generated at level-0 nodes by independent Poisson sources
//! (merged network-wide, like the hypercube's) and must reach a random
//! level-`d` node chosen by bit-flips with probability `p`. The path is
//! unique, so greedy routing is the only non-idling choice; FIFO resolves
//! contention. A packet whose destination row equals its origin row still
//! crosses all `d` straight arcs — the butterfly has no zero-hop
//! deliveries.
//!
//! The event loop lives in [`crate::engine`]; this module is the
//! butterfly's routing law ([`ButterflySpec`]), its per-level Prop. 15
//! statistics, and its [`Report`] assembly. Construct through
//! [`crate::scenario::Scenario`] with
//! [`crate::scenario::Topology::Butterfly`].

use crate::engine::{Advance, ArcChoice, Engine, EngineCfg, EnginePacket, EngineSpec, Spawn};
use crate::observe::{NullObserver, Observer};
use crate::packet::sample_flip_mask;
use crate::scenario::{ButterflyExt, Report, ReportExt, Scenario, Topology};
use hyperroute_desim::{SimRng, Tally};
use hyperroute_topology::{ArcKind, Butterfly, ButterflyArc};

/// An in-flight butterfly packet. Its current node (row, level) is implied
/// by the arc queue holding it, so only the destination row rides along.
#[derive(Clone, Copy, Debug)]
pub struct BfPacket {
    born: f64,
    dest: u32,
    verticals: u16,
}

impl EnginePacket for BfPacket {
    #[inline]
    fn born(&self) -> f64 {
        self.born
    }
}

/// Bits of the packed arc word holding the arc's head row (`d ≤ 24`).
const ARC_ROW_MASK: u32 = (1 << 24) - 1;

/// Bit offset of the arc's level (bits 24..29).
const ARC_LEVEL_SHIFT: u32 = 24;

/// Vertical-arc flag (bit 29).
const ARC_VERTICAL: u32 = 1 << 29;

/// The butterfly's per-topology half of the generic engine. Engine nodes
/// encode `[row; level]` as `level·2^d + row` (the same encoding the
/// [`hyperroute_topology::RoutingTopology`] impl uses), so a source id
/// (level 0) is just the row.
pub struct ButterflySpec {
    dim: usize,
    p: f64,
    straight_arrivals: Vec<u64>,
    vertical_arrivals: Vec<u64>,
    vertical_stats: Tally,
}

impl EngineSpec for ButterflySpec {
    type Pkt = BfPacket;

    fn num_sources(&self) -> usize {
        1 << self.dim
    }

    fn num_arcs(&self) -> usize {
        self.dim << (self.dim + 1)
    }

    fn arc_meta(&self, arc: usize) -> u32 {
        let a = ButterflyArc::from_index(arc, self.dim);
        let vertical = if a.kind == ArcKind::Vertical {
            ARC_VERTICAL
        } else {
            0
        };
        a.to_row().0 as u32 | ((a.level as u32) << ARC_LEVEL_SHIFT) | vertical
    }

    fn mean_hops_hint(&self) -> f64 {
        self.dim as f64
    }

    fn generate(&mut self, t: f64, source: u32, dest_rng: &mut SimRng) -> Spawn<BfPacket> {
        let mask = sample_flip_mask(dest_rng, self.dim, self.p);
        // Even a same-row destination crosses d straight arcs: never a
        // self-delivery.
        Spawn::Route(BfPacket {
            born: t,
            dest: source ^ mask,
            verticals: 0,
        })
    }

    fn choose_arc(
        &mut self,
        _t: f64,
        in_window: bool,
        node: u32,
        pkt: &mut BfPacket,
        _route_rng: &mut SimRng,
    ) -> ArcChoice {
        let row = node & ((1 << self.dim) - 1);
        let level = (node >> self.dim) as usize;
        debug_assert!(level < self.dim);
        let vertical = (row >> level) & 1 != (pkt.dest >> level) & 1;
        if in_window {
            if vertical {
                self.vertical_arrivals[level] += 1;
            } else {
                self.straight_arrivals[level] += 1;
            }
        }
        // Dense butterfly arc index: ((level·2^d) + row)·2 + kind.
        ArcChoice::Arc(((((level << self.dim) + row as usize) << 1) | vertical as usize) as u32)
    }

    fn note_service_end(&mut self, _t: f64, _meta: u32) {}

    fn advance(&mut self, meta: u32, pkt: &mut BfPacket) -> Advance {
        if meta & ARC_VERTICAL != 0 {
            pkt.verticals += 1;
        }
        let row = meta & ARC_ROW_MASK;
        let level = ((meta >> ARC_LEVEL_SHIFT) & 0x1F) as usize + 1;
        if level == self.dim {
            Advance::Deliver(self.dim as u16)
        } else {
            Advance::Forward(((level << self.dim) as u32) | row)
        }
    }

    fn note_deliver(&mut self, pkt: &BfPacket, in_window: bool) {
        if in_window {
            self.vertical_stats.push(pkt.verticals as f64);
        }
    }
}

/// The butterfly simulator: a [`ButterflySpec`] driven by the generic
/// [`Engine`].
pub struct ButterflySim {
    engine: Engine<ButterflySpec>,
}

impl ButterflySim {
    /// Build the simulator from a validated butterfly scenario.
    pub(crate) fn from_scenario(s: &Scenario) -> ButterflySim {
        let Topology::Butterfly { dim } = s.topology else {
            unreachable!("butterfly simulator on a non-butterfly scenario");
        };
        let bf = Butterfly::new(dim);
        let spec = ButterflySpec {
            dim,
            p: s.workload.p,
            straight_arrivals: vec![0; dim],
            vertical_arrivals: vec![0; dim],
            vertical_stats: Tally::new(),
        };
        debug_assert_eq!(bf.num_arcs(), dim << (dim + 1));
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
        ButterflySim {
            engine: Engine::new(spec, cfg),
        }
    }

    /// Run to completion and summarise.
    pub fn run(self) -> Report {
        self.run_observed(&mut NullObserver)
    }

    /// Run to completion under a streaming [`Observer`] and summarise.
    ///
    /// The observer never changes the simulation — reports are
    /// bit-identical to an unobserved [`ButterflySim::run`].
    pub fn run_observed<O: Observer>(mut self, obs: &mut O) -> Report {
        self.engine.drive(obs);
        self.report()
    }

    fn report(&self) -> Report {
        let engine = &self.engine;
        let (spec, cfg, collector) = (engine.spec(), engine.cfg(), engine.collector());
        let span = cfg.horizon - cfg.warmup;
        let arcs_per_level = (1usize << spec.dim) as f64;
        let straight: Vec<f64> = spec
            .straight_arrivals
            .iter()
            .map(|&c| c as f64 / (span * arcs_per_level))
            .collect();
        let vertical: Vec<f64> = spec
            .vertical_arrivals
            .iter()
            .map(|&c| c as f64 / (span * arcs_per_level))
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
            ext: ReportExt::Butterfly(ButterflyExt {
                rho: cfg.lambda * spec.p.max(1.0 - spec.p),
                mean_vertical_hops: spec.vertical_stats.mean(),
                straight_rate_per_level: straight,
                vertical_rate_per_level: vertical,
            }),
            telemetry: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArrivalModel;
    use hyperroute_analysis::butterfly_bounds;

    fn base_scenario() -> Scenario {
        Scenario::builder(Topology::Butterfly { dim: 4 })
            .lambda(1.2)
            .p(0.5) // ρ_bf = 0.6
            .horizon(3_000.0)
            .warmup(500.0)
            .seed(21)
            .build()
            .expect("valid scenario")
    }

    fn run(s: &Scenario) -> Report {
        ButterflySim::from_scenario(s).run()
    }

    fn bf(r: &Report) -> &ButterflyExt {
        let ReportExt::Butterfly(ext) = &r.ext else {
            panic!("wrong report extension");
        };
        ext
    }

    #[test]
    fn all_delivered_and_delay_at_least_d() {
        let r = run(&base_scenario());
        assert_eq!(r.generated, r.delivered);
        assert!(r.delay.p50 >= 4.0);
        assert!(r.delay.mean >= 4.0);
    }

    #[test]
    fn delay_within_paper_bracket() {
        let r = run(&base_scenario());
        let lb = butterfly_bounds::universal_lower_bound(4, 1.2, 0.5);
        let ub = butterfly_bounds::greedy_upper_bound(4, 1.2, 0.5);
        assert!(
            r.delay.mean >= lb * 0.97 && r.delay.mean <= ub * 1.03,
            "measured {} outside [{lb}, {ub}]",
            r.delay.mean
        );
    }

    #[test]
    fn proposition_15_arc_rates() {
        let r = run(&base_scenario());
        for lvl in 0..4 {
            assert!(
                (bf(&r).straight_rate_per_level[lvl] - 0.6).abs() < 0.035,
                "straight level {lvl}: {}",
                bf(&r).straight_rate_per_level[lvl]
            );
            assert!(
                (bf(&r).vertical_rate_per_level[lvl] - 0.6).abs() < 0.035,
                "vertical level {lvl}: {}",
                bf(&r).vertical_rate_per_level[lvl]
            );
        }
    }

    #[test]
    fn asymmetric_p_rates() {
        let mut s = base_scenario();
        s.workload.p = 0.25;
        s.workload.lambda = 1.0;
        let r = run(&s);
        // Straight ≈ 0.75, vertical ≈ 0.25 at every level.
        for lvl in 0..4 {
            assert!((bf(&r).straight_rate_per_level[lvl] - 0.75).abs() < 0.035);
            assert!((bf(&r).vertical_rate_per_level[lvl] - 0.25).abs() < 0.035);
        }
        // Mean vertical hops ≈ dp = 1.
        assert!((bf(&r).mean_vertical_hops - 1.0).abs() < 0.05);
    }

    #[test]
    fn little_and_determinism() {
        let a = run(&base_scenario());
        assert!(a.little_error < 0.05, "little {}", a.little_error);
        let b = run(&base_scenario());
        assert_eq!(a.delay.mean, b.delay.mean);
    }

    #[test]
    fn zero_load_edge() {
        let mut s = base_scenario();
        s.workload.lambda = 0.0;
        let r = run(&s);
        assert_eq!(r.generated, 0);
    }

    #[test]
    fn slotted_butterfly_obeys_bound_plus_slot() {
        // §4.3 end: slotted time treated as §3.4 — delay within
        // UB + r (same coupling argument as the hypercube case).
        let mut s = base_scenario();
        s.workload.arrivals = ArrivalModel::Slotted { slots_per_unit: 2 };
        let r = run(&s);
        assert_eq!(r.generated, r.delivered);
        let ub = butterfly_bounds::greedy_upper_bound(4, 1.2, 0.5) + 0.5;
        assert!(
            r.delay.mean <= ub * 1.03,
            "slotted butterfly delay {} above {ub}",
            r.delay.mean
        );
        // All arrivals happen on the slot grid: delays keep the d floor.
        assert!(r.delay.p50 >= 4.0);
    }

    #[test]
    fn p_one_quantiles_match_md1_distribution() {
        // At p = 1 the butterfly's first-level vertical arc is M/D/1 and
        // deeper levels never queue (regular departures), so delay
        // quantiles are d - 1 + (M/D/1 sojourn quantile).
        let s = Scenario::builder(Topology::Butterfly { dim: 4 })
            .lambda(0.7)
            .p(1.0)
            .horizon(12_000.0)
            .warmup(2_000.0)
            .seed(5)
            .build()
            .unwrap();
        let r = run(&s);
        for (q, measured) in [(0.5, r.delay.p50), (0.9, r.delay.p90)] {
            let predicted = 4.0 + hyperroute_queueing::md1::wait_quantile(0.7, q);
            assert!(
                (measured - predicted).abs() <= 0.35,
                "q={q}: measured {measured} vs M/D/1 prediction {predicted}"
            );
        }
    }
}
