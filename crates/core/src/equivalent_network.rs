//! Simulation of the abstract levelled queueing networks `Q` and `R`
//! (paper §3.1, §4.3) under FIFO **or** Processor-Sharing service, with
//! coupled sample paths.
//!
//! The paper's upper-bound proof (Lemmas 9–10, Prop. 11) couples a FIFO
//! network and its PS counterpart on the *same sample path ω*: identical
//! external arrival times and identical **positional** routing decisions
//! (the k-th service completion at a given server makes the same choice in
//! both systems, regardless of which packet it carries). This simulator
//! reproduces that coupling exactly: per-server arrival streams and
//! per-server routing-decision streams are seeded deterministically from
//! `(seed, server)`, so running the same network with
//! [`Discipline::Fifo`] and [`Discipline::Ps`] at the same seed yields the
//! paper's coupled pair, and the dominance checks `B(t) ≥ B̄(t)`,
//! `N(t) ≤ N̄(t)` are sample-path exact.
//!
//! This is the one simulator that does **not** ride the generic
//! packet-over-arcs engine ([`crate::engine`]): its service model is
//! per-*server* (including Processor Sharing with superseded tentative
//! departures) and its randomness is per-server-positional rather than
//! per-packet — the coupling above is the whole point. Its PS servers
//! schedule departures at arbitrary times, so its future-event list is
//! the [`EventQueue`] binary heap under either
//! [`hyperroute_desim::SchedulerKind`] (the kind only selects the packet
//! engine's completion list). It shares the metrics, observers and the
//! [`Report`] surface, and is constructed exclusively through
//! [`crate::scenario::Scenario`] with [`crate::scenario::Topology::EqNet`].

use crate::metrics::MetricsCollector;
use crate::observe::{NullObserver, Observer};
use crate::pool::{ArcList, SlabPool};
use crate::scenario::{EqNetExt, Report, ReportExt, RunControl, Scenario, Topology};
use hyperroute_desim::{EventQueue, OccupancyHistogram, SimRng};
use hyperroute_queueing::PsServer;
use hyperroute_topology::LevelledNetwork;
use serde::{Deserialize, Serialize};

/// Service discipline for every server of the network.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum Discipline {
    /// Deterministic unit-service FIFO (the real network).
    #[default]
    Fifo,
    /// Deterministic unit-work Processor Sharing (the product-form
    /// comparison network Q̄ / R̄).
    Ps,
}

impl std::fmt::Display for Discipline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Discipline::Fifo => "fifo",
            Discipline::Ps => "ps",
        })
    }
}

/// Largest accepted occupancy tracking size of [`Topology::EqNet`]:
/// `occupancy_cap` times the network's server count (`d·2^d` for
/// `HypercubeQ`, `d·2^(d+1)` for `ButterflyR`, 3 for `Fig2`). Tracking
/// allocates every bin up front (8 bytes each) and the report carries one
/// fraction per bin, so an absurd cap or a large network would abort the
/// process on allocation instead of failing validation. The largest use
/// in the repository is 24 servers × 8 bins.
pub const MAX_OCCUPANCY_BINS: usize = 1 << 22;

/// Run parameters extracted from the scenario.
#[derive(Clone, Copy, Debug)]
struct Params {
    discipline: Discipline,
    horizon: f64,
    warmup: f64,
    drain: bool,
    record_departures: bool,
    occupancy_cap: usize,
}

#[derive(Debug)]
enum Ev {
    Arrival(u32),
    FifoComplete(u32),
    PsTentative { server: u32, generation: u32 },
}

/// The equivalent-network simulator. Built by the scenario layer
/// ([`crate::scenario::Topology::EqNet`]).
///
/// A customer is its birth time: the only thing the network remembers
/// about it is the time's bits, carried as its token in the FIFO slab
/// and as its `PsServer` job id, so memory is bounded by the population
/// in the network, not by the customers generated over the horizon.
pub struct EqNetSim {
    cfg: Params,
    routes: Vec<Vec<(u32, f64)>>,
    /// Slab of queued customer tokens (birth-time bits); FIFO servers
    /// hold intrusive lists whose front is the customer in service.
    fifo_pool: SlabPool<u64>,
    fifo_queues: Vec<ArcList>,
    ps_servers: Vec<PsServer>,
    ps_generation: Vec<u32>,
    arrival_rngs: Vec<SimRng>,
    route_rngs: Vec<SimRng>,
    external_rate: Vec<f64>,
    events: EventQueue<Ev>,
    events_processed: u64,
    collector: MetricsCollector,
    departures: Vec<f64>,
    occupancy: Vec<OccupancyHistogram>,
    occ_count: Vec<usize>,
}

impl EqNetSim {
    /// Build a simulator over a validated eqnet scenario (the network was
    /// materialised from its [`crate::scenario::EqNetSpec`]).
    pub(crate) fn from_scenario(net: &LevelledNetwork, s: &Scenario) -> EqNetSim {
        let Topology::EqNet {
            record_departures,
            occupancy_cap,
            ..
        } = &s.topology
        else {
            unreachable!("eqnet simulator on a non-eqnet scenario");
        };
        EqNetSim::with_network(
            net,
            s.policy.discipline,
            &s.run,
            *record_departures,
            *occupancy_cap,
        )
    }

    /// Build a simulator over an **arbitrary** levelled network with
    /// explicit run control — the engine-level hook for networks that are
    /// not expressible as a [`crate::scenario::EqNetSpec`], e.g. the
    /// property tests that check Lemma 10 on randomly generated levelled
    /// networks. Scenario-driven runs go through [`Scenario::run`].
    ///
    /// `run.horizon`/`run.warmup` must form a valid measurement window
    /// (finite, `0 ≤ warmup < horizon`); the metrics collector asserts it.
    pub fn with_network(
        net: &LevelledNetwork,
        discipline: Discipline,
        run: &RunControl,
        record_departures: bool,
        occupancy_cap: usize,
    ) -> EqNetSim {
        let cfg = Params {
            discipline,
            horizon: run.horizon,
            warmup: run.warmup,
            drain: run.drain,
            record_departures,
            occupancy_cap,
        };
        let n = net.num_servers();
        let routes: Vec<Vec<(u32, f64)>> = net
            .servers()
            .map(|srv| {
                net.routes(srv)
                    .iter()
                    .map(|&(t, q)| (t.0 as u32, q))
                    .collect()
            })
            .collect();
        let external_rate: Vec<f64> = net.servers().map(|srv| net.external_rate(srv)).collect();

        // Per-server streams derived from (seed, server, salt): identical
        // across disciplines, which is precisely the paper's coupling.
        let seed = run.seed;
        let arrival_rngs: Vec<SimRng> = (0..n)
            .map(|srv| SimRng::new(seed ^ (srv as u64).wrapping_mul(0x9E3779B97F4A7C15)))
            .collect();
        let route_rngs: Vec<SimRng> = (0..n)
            .map(|srv| SimRng::new(seed ^ (srv as u64).wrapping_mul(0xC2B2AE3D27D4EB4F) ^ 0xABCD))
            .collect();

        let mut events = EventQueue::new();
        let mut arrival_rngs = arrival_rngs;
        for srv in 0..n {
            if external_rate[srv] > 0.0 {
                let t = arrival_rngs[srv].exp(external_rate[srv]);
                if t < cfg.horizon {
                    events.push(t, Ev::Arrival(srv as u32));
                }
            }
        }

        let total_rate: f64 = external_rate.iter().sum();
        let expected = (total_rate * (cfg.horizon - cfg.warmup)).max(64.0);
        let collector = MetricsCollector::new(
            cfg.warmup,
            cfg.horizon,
            (expected / 32.0).ceil() as u64,
            seed,
        );
        let occupancy = if cfg.occupancy_cap > 0 {
            (0..n)
                .map(|_| OccupancyHistogram::new(0.0, 0, cfg.occupancy_cap))
                .collect()
        } else {
            Vec::new()
        };
        EqNetSim {
            cfg,
            routes,
            fifo_pool: SlabPool::with_capacity(256),
            fifo_queues: vec![ArcList::EMPTY; n],
            ps_servers: vec![PsServer::unit(); n],
            ps_generation: vec![0; n],
            arrival_rngs,
            route_rngs,
            external_rate,
            events,
            events_processed: 0,
            collector,
            departures: Vec::new(),
            occupancy,
            occ_count: vec![0; n],
        }
    }

    /// Run to completion and summarise.
    pub fn run(self) -> Report {
        self.run_observed(&mut NullObserver)
    }

    /// Run to completion under a streaming [`Observer`] and summarise.
    ///
    /// The observer never changes the simulation — reports are
    /// bit-identical to an unobserved [`EqNetSim::run`].
    pub fn run_observed<O: Observer>(mut self, obs: &mut O) -> Report {
        self.drive(obs);
        let cfg = &self.cfg;
        let occupancy_fractions = self
            .occupancy
            .iter()
            .map(|h| {
                (0..cfg.occupancy_cap)
                    .map(|n| h.fraction(n, cfg.horizon))
                    .collect()
            })
            .collect();
        let ext = ReportExt::EqNet(EqNetExt {
            departures: self.departures,
            occupancy_fractions,
        });
        self.collector.report(self.events_processed, ext)
    }

    fn drive<O: Observer>(&mut self, obs: &mut O) {
        while let Some((t, ev)) = self.events.pop() {
            obs.on_event(t, self.collector.current_in_system());
            self.events_processed += 1;
            match ev {
                Ev::Arrival(srv) => self.on_arrival(t, srv as usize),
                Ev::FifoComplete(srv) => self.on_fifo_complete(t, srv as usize, obs),
                Ev::PsTentative { server, generation } => {
                    self.on_ps_tentative(t, server as usize, generation, obs)
                }
            }
            if !self.cfg.drain && t >= self.cfg.horizon {
                break;
            }
        }
    }

    fn on_arrival(&mut self, t: f64, srv: usize) {
        let next = t + self.arrival_rngs[srv].exp(self.external_rate[srv]);
        if next < self.cfg.horizon {
            self.events.push(next, Ev::Arrival(srv as u32));
        }
        self.collector.on_generated(t);
        self.join(t, srv, t.to_bits());
    }

    /// Customer `token` (its birth time's bits) joins server `srv` at `t`.
    fn join(&mut self, t: f64, srv: usize, token: u64) {
        self.occ_bump(t, srv, 1);
        match self.cfg.discipline {
            Discipline::Fifo => {
                // A list of one: the server was idle and serves `token` now.
                if self.fifo_queues[srv].push_back(&mut self.fifo_pool, token) == 1 {
                    self.events.push(t + 1.0, Ev::FifoComplete(srv as u32));
                }
            }
            Discipline::Ps => {
                self.ps_servers[srv].arrive(t, token);
                self.reschedule_ps(srv);
            }
        }
    }

    fn reschedule_ps(&mut self, srv: usize) {
        self.ps_generation[srv] = self.ps_generation[srv].wrapping_add(1);
        if let Some(next) = self.ps_servers[srv].next_departure_time() {
            self.events.push(
                next,
                Ev::PsTentative {
                    server: srv as u32,
                    generation: self.ps_generation[srv],
                },
            );
        }
    }

    fn on_fifo_complete<O: Observer>(&mut self, t: f64, srv: usize, obs: &mut O) {
        let token = self.fifo_queues[srv]
            .pop_front(&mut self.fifo_pool)
            .expect("completion on empty queue");
        if !self.fifo_queues[srv].is_empty() {
            self.events.push(t + 1.0, Ev::FifoComplete(srv as u32));
        }
        self.route(t, srv, token, obs);
    }

    fn on_ps_tentative<O: Observer>(&mut self, t: f64, srv: usize, generation: u32, obs: &mut O) {
        if generation != self.ps_generation[srv] {
            return; // superseded by a later arrival/departure
        }
        let token = self.ps_servers[srv].complete_next(t);
        self.reschedule_ps(srv);
        self.route(t, srv, token, obs);
    }

    /// Positional routing decision: the k-th completion at server `srv`
    /// consumes the k-th draw of `route_rngs[srv]` (same in FIFO and PS).
    fn route<O: Observer>(&mut self, t: f64, srv: usize, token: u64, obs: &mut O) {
        self.occ_bump(t, srv, -1);
        let decision = self.route_rngs[srv].route(&self.routes[srv]);
        match decision {
            Some(next) => self.join(t, next as usize, token),
            None => {
                let born = f64::from_bits(token);
                self.collector.on_delivered(t, born, 0);
                obs.on_delivered(t, born);
                if self.cfg.record_departures {
                    self.departures.push(t);
                }
            }
        }
    }

    fn occ_bump(&mut self, t: f64, srv: usize, delta: i64) {
        if self.occupancy.is_empty() {
            return;
        }
        let c = (self.occ_count[srv] as i64 + delta).max(0) as usize;
        self.occ_count[srv] = c;
        self.occupancy[srv].set(t.min(self.cfg.horizon), c);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::EqNetSpec;
    use hyperroute_queueing::sample_path::counting_dominates;

    fn q_scenario(dim: usize, lambda: f64, p: f64) -> Scenario {
        Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim },
            record_departures: true,
            occupancy_cap: 0,
        })
        .lambda(lambda)
        .p(p)
        .build()
        .expect("valid scenario")
    }

    fn run_pair(mut base: Scenario, seed: u64, horizon: f64) -> (Report, Report) {
        base.run.seed = seed;
        base.run.horizon = horizon;
        base.run.warmup = horizon * 0.2;
        let mut fifo = base.clone();
        fifo.policy.discipline = Discipline::Fifo;
        let mut ps = base;
        ps.policy.discipline = Discipline::Ps;
        (fifo.run().unwrap(), ps.run().unwrap())
    }

    fn departures(r: &Report) -> &[f64] {
        &r.eqnet().expect("eqnet report").departures
    }

    #[test]
    fn coupled_runs_share_arrivals() {
        let (fifo, ps) = run_pair(q_scenario(3, 1.0, 0.5), 42, 500.0);
        assert_eq!(fifo.generated, ps.generated);
        assert_eq!(fifo.delivered, ps.delivered);
        assert_eq!(fifo.generated, fifo.delivered);
    }

    #[test]
    fn lemma_10_departure_dominance() {
        // B(t) ≥ B̄(t) for every t: FIFO departures (sorted) pointwise
        // precede PS departures on the coupled path.
        for seed in [1u64, 2, 3, 4, 5] {
            let (fifo, ps) = run_pair(q_scenario(3, 1.2, 0.5), seed, 400.0); // ρ = 0.6
            assert!(
                counting_dominates(departures(&fifo), departures(&ps), 1e-7),
                "seed {seed}: PS departures got ahead of FIFO"
            );
        }
    }

    #[test]
    fn proposition_11_mean_occupancy_dominance() {
        // E[N(t)] ≤ E[N̄(t)]: the FIFO time-average is below PS's.
        let (fifo, ps) = run_pair(q_scenario(3, 1.4, 0.5), 9, 2_000.0); // ρ = 0.7
        assert!(
            fifo.mean_in_system <= ps.mean_in_system * 1.02,
            "FIFO {} vs PS {}",
            fifo.mean_in_system,
            ps.mean_in_system
        );
    }

    #[test]
    fn ps_network_matches_product_form_mean() {
        // Q̄ product form: N̄ = d·2^d·ρ/(1-ρ) (proof of Prop. 12).
        let (d, lambda, p) = (3usize, 1.0, 0.5);
        let rho: f64 = lambda * p;
        let mut s = q_scenario(d, lambda, p);
        s.policy.discipline = Discipline::Ps;
        s.run.horizon = 8_000.0;
        s.run.warmup = 1_000.0;
        s.run.seed = 11;
        let r = s.run().unwrap();
        let expect = (d as f64) * 8.0 * rho / (1.0 - rho);
        assert!(
            (r.mean_in_system - expect).abs() / expect < 0.05,
            "PS N̄ {} vs product form {expect}",
            r.mean_in_system
        );
    }

    #[test]
    fn ps_occupancy_is_geometric() {
        // Per-server occupancy of the PS network is geometric(ρ).
        let rho: f64 = 0.6;
        let s = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim: 2 },
            record_departures: false,
            occupancy_cap: 6,
        })
        .lambda(1.2)
        .p(0.5)
        .discipline(Discipline::Ps)
        .horizon(20_000.0)
        .warmup(2_000.0)
        .seed(13)
        .build()
        .unwrap();
        let r = s.run().unwrap();
        let fractions = &r.eqnet().unwrap().occupancy_fractions;
        // Average the empirical distribution across servers (they are
        // exchangeable) and compare with (1-ρ)ρ^n.
        let servers = fractions.len() as f64;
        for n in 0..4usize {
            let avg: f64 = fractions.iter().map(|f| f[n]).sum::<f64>() / servers;
            let expect = (1.0 - rho) * rho.powi(n as i32);
            assert!(
                (avg - expect).abs() < 0.02,
                "occupancy {n}: measured {avg} vs geometric {expect}"
            );
        }
    }

    #[test]
    fn fifo_network_delay_matches_packet_sim_bracket() {
        // The Q network under FIFO *is* the hypercube under greedy routing:
        // its delay must sit in the Prop. 12/13 bracket too.
        let (d, lambda, p) = (4usize, 1.2, 0.5);
        let mut s = q_scenario(d, lambda, p);
        s.run.horizon = 3_000.0;
        s.run.warmup = 500.0;
        s.run.seed = 17;
        let r = s.run().unwrap();
        let lb = hyperroute_analysis::hypercube_bounds::greedy_lower_bound(d, lambda, p);
        let ub = hyperroute_analysis::hypercube_bounds::greedy_upper_bound(d, lambda, p);
        // Q measures delay only for packets that move (mask ≠ 0), so
        // compare against the conditional bracket after rescaling by the
        // moving fraction.
        let moving = 1.0 - (1.0f64 - p).powi(d as i32);
        let t_uncond = r.delay.mean * moving;
        assert!(
            t_uncond >= lb * 0.93 && t_uncond <= ub * 1.05,
            "rescaled delay {t_uncond} outside [{lb}, {ub}]"
        );
    }

    #[test]
    fn fig2_network_runs_both_disciplines() {
        let base = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::Fig2 {
                rate1: 0.5,
                rate2: 0.5,
                rate3: 0.3,
                q1: 0.6,
                q2: 0.6,
            },
            record_departures: true,
            occupancy_cap: 0,
        })
        .build()
        .unwrap();
        let (fifo, ps) = run_pair(base, 23, 2_000.0);
        assert!(counting_dominates(departures(&fifo), departures(&ps), 1e-7));
        assert!(fifo.delay.mean <= ps.delay.mean * 1.05);
    }

    #[test]
    fn little_law_in_both_disciplines() {
        let (fifo, ps) = run_pair(q_scenario(3, 1.0, 0.5), 31, 3_000.0);
        assert!(
            fifo.little_error < 0.05,
            "FIFO little {}",
            fifo.little_error
        );
        assert!(ps.little_error < 0.05, "PS little {}", ps.little_error);
    }
}
