//! Levelled queueing networks with Markovian routing (paper §3.1, §4.3).
//!
//! Under greedy routing the hypercube is *equivalent* to a queueing network
//! `Q` with one deterministic unit-service FIFO server per arc, organised in
//! `d` levels (one per dimension), independent external Poisson arrivals
//! (Property A), level-increasing movement (Property B), and Markovian
//! routing (Property C / Lemma 4). The butterfly reduces likewise to a
//! network `R`. This module represents such networks explicitly: they drive
//! the abstract simulator in `hyperroute-core`, the product-form computation
//! in `hyperroute-queueing`, and the Fig. 1b / Fig. 3b exports.

use crate::arcs::{ArcKind, ButterflyArc, HypercubeArc};
use crate::butterfly::Butterfly;
use crate::hypercube::Hypercube;
use serde::{Deserialize, Serialize};

/// Index of a server ("arc") in a [`LevelledNetwork`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ServerId(pub usize);

/// A feed-forward ("levelled") queueing network with Markovian routing.
///
/// Each server has a *level*; customers finishing service at a server either
/// move to a server of a **strictly higher** level (with fixed
/// probabilities) or depart. All servers are deterministic with unit service
/// time in the paper's model; service discipline (FIFO vs PS) is chosen by
/// the simulator, not encoded here.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct LevelledNetwork {
    level: Vec<usize>,
    external_rate: Vec<f64>,
    /// Forwarding alternatives per server; residual probability = departure.
    routing: Vec<Vec<(ServerId, f64)>>,
    labels: Vec<String>,
    num_levels: usize,
}

impl LevelledNetwork {
    /// Build a network from raw parts and validate it.
    ///
    /// Panics when the data violate the levelled-network invariants
    /// (see [`LevelledNetwork::validate`]); the long-form constructors below
    /// are the usual entry points, and [`LevelledNetwork::try_new`] is the
    /// fallible form.
    pub fn new(
        level: Vec<usize>,
        external_rate: Vec<f64>,
        routing: Vec<Vec<(ServerId, f64)>>,
        labels: Vec<String>,
    ) -> LevelledNetwork {
        LevelledNetwork::try_new(level, external_rate, routing, labels)
            .unwrap_or_else(|e| panic!("invalid levelled network: {e}"))
    }

    /// Build a network from raw parts, returning the first broken
    /// invariant (see [`LevelledNetwork::validate`]) as an error.
    pub fn try_new(
        level: Vec<usize>,
        external_rate: Vec<f64>,
        routing: Vec<Vec<(ServerId, f64)>>,
        labels: Vec<String>,
    ) -> Result<LevelledNetwork, String> {
        let num_levels = level.iter().copied().max().map_or(0, |m| m + 1);
        let net = LevelledNetwork {
            level,
            external_rate,
            routing,
            labels,
            num_levels,
        };
        net.validate()?;
        Ok(net)
    }

    /// Number of servers.
    #[inline]
    pub fn num_servers(&self) -> usize {
        self.level.len()
    }

    /// Number of levels (1 + maximum level index).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.num_levels
    }

    /// Level of server `s`.
    #[inline]
    pub fn level(&self, s: ServerId) -> usize {
        self.level[s.0]
    }

    /// External Poisson arrival rate of server `s` (Property A).
    #[inline]
    pub fn external_rate(&self, s: ServerId) -> f64 {
        self.external_rate[s.0]
    }

    /// Forwarding alternatives `(next, probability)` of server `s`; the
    /// residual probability is the departure probability.
    #[inline]
    pub fn routes(&self, s: ServerId) -> &[(ServerId, f64)] {
        &self.routing[s.0]
    }

    /// Probability that a customer departs the network after server `s`.
    pub fn departure_prob(&self, s: ServerId) -> f64 {
        1.0 - self.routing[s.0].iter().map(|&(_, q)| q).sum::<f64>()
    }

    /// Human-readable label of server `s` (used by the DOT export).
    pub fn label(&self, s: ServerId) -> &str {
        &self.labels[s.0]
    }

    /// Iterator over all server ids.
    pub fn servers(&self) -> impl ExactSizeIterator<Item = ServerId> {
        (0..self.num_servers()).map(ServerId)
    }

    /// Check the structural invariants:
    /// vectors agree in length, rates are finite and non-negative,
    /// forwarding probabilities are in `[0, 1]` and sum to at most 1, and
    /// every route targets a server of a **strictly higher** level
    /// (Property B).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.level.len();
        if self.external_rate.len() != n || self.routing.len() != n || self.labels.len() != n {
            return Err("length mismatch between per-server vectors".into());
        }
        for s in 0..n {
            let rate = self.external_rate[s];
            if !rate.is_finite() || rate < 0.0 {
                return Err(format!("server {s}: bad external rate {rate}"));
            }
            let mut sum = 0.0;
            for &(t, q) in &self.routing[s] {
                if t.0 >= n {
                    return Err(format!("server {s}: route to missing server {}", t.0));
                }
                if !(0.0..=1.0).contains(&q) {
                    return Err(format!("server {s}: bad probability {q}"));
                }
                if self.level[t.0] <= self.level[s] {
                    return Err(format!(
                        "server {s} (level {}) routes to server {} (level {}): not levelled",
                        self.level[s], t.0, self.level[t.0]
                    ));
                }
                sum += q;
            }
            if sum > 1.0 + 1e-9 {
                return Err(format!("server {s}: forwarding probabilities sum to {sum}"));
            }
        }
        Ok(())
    }

    /// Total (external + internal) arrival rate of every server, obtained by
    /// solving the traffic equations level by level — exact because the
    /// network is feed-forward.
    ///
    /// For the hypercube network `Q` this equals `λp` at every server
    /// (Proposition 5); for the butterfly network `R` it is `λ(1-p)` at
    /// straight and `λp` at vertical servers (Proposition 15).
    pub fn total_arrival_rates(&self) -> Vec<f64> {
        let n = self.num_servers();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&s| self.level[s]);
        let mut rate = self.external_rate.clone();
        for &s in &order {
            let r = rate[s];
            for &(t, q) in &self.routing[s] {
                rate[t.0] += r * q;
            }
        }
        rate
    }

    /// Largest per-server utilisation (arrival rate × unit service time);
    /// the network is stable iff this is `< 1` (Theorem 2A of \[Bor87\] as
    /// invoked by Propositions 6 and 16).
    pub fn max_utilization(&self) -> f64 {
        self.total_arrival_rates()
            .into_iter()
            .fold(0.0_f64, f64::max)
    }

    /// Aggregate external arrival rate into the network.
    pub fn total_external_rate(&self) -> f64 {
        self.external_rate.iter().sum()
    }

    // -----------------------------------------------------------------
    // The paper's concrete networks.
    // -----------------------------------------------------------------

    /// Network `Q`: the queueing network equivalent to the `d`-cube under
    /// greedy routing with per-node generation rate `lambda` and bit-flip
    /// probability `p` (paper §3.1, Fig. 1b).
    ///
    /// One server per hypercube arc (dense arc index); level = dimension.
    /// * Property A: external rate at arc `(x, x ⊕ e_i)` is
    ///   `λ p (1-p)^i` (0-based `i`).
    /// * Property C: after crossing dimension `i` at node `y'`, a packet
    ///   joins `(y', e_j)` with probability `p (1-p)^(j-i-1)` for
    ///   `j = i+1..d`, and departs with probability `(1-p)^(d-1-i)`.
    pub fn equivalent_q(cube: Hypercube, lambda: f64, p: f64) -> LevelledNetwork {
        assert!(lambda >= 0.0, "negative arrival rate");
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
        let d = cube.dim();
        let n = cube.num_arcs();
        let mut level = vec![0usize; n];
        let mut external = vec![0.0f64; n];
        let mut routing: Vec<Vec<(ServerId, f64)>> = vec![Vec::new(); n];
        let mut labels = vec![String::new(); n];

        for arc in cube.arcs() {
            let s = arc.index(d);
            let i = arc.dim;
            level[s] = i;
            external[s] = lambda * p * (1.0 - p).powi(i as i32);
            labels[s] = format!("({},{})", arc.from, arc.to());
            let next_node = arc.to();
            let mut routes = Vec::with_capacity(d - i - 1);
            for j in (i + 1)..d {
                let q = p * (1.0 - p).powi((j - i - 1) as i32);
                if q > 0.0 {
                    let t = HypercubeArc {
                        from: next_node,
                        dim: j,
                    }
                    .index(d);
                    routes.push((ServerId(t), q));
                }
            }
            routing[s] = routes;
        }
        LevelledNetwork::new(level, external, routing, labels)
    }

    /// Network `R`: the queueing network equivalent to the `d`-dimensional
    /// butterfly under greedy routing (paper §4.3, Fig. 3b).
    ///
    /// One server per butterfly arc; level = arc level. External arrivals
    /// only at level-0 arcs: rate `λ(1-p)` straight, `λp` vertical. After
    /// any level-`j` arc a packet continues straight with probability
    /// `1-p` and vertically with probability `p` (Property B of §4.3),
    /// departing after level `d-1`.
    pub fn equivalent_r(bf: Butterfly, lambda: f64, p: f64) -> LevelledNetwork {
        assert!(lambda >= 0.0, "negative arrival rate");
        assert!((0.0..=1.0).contains(&p), "p must lie in [0, 1]");
        let d = bf.dim();
        let n = bf.num_arcs();
        let mut level = vec![0usize; n];
        let mut external = vec![0.0f64; n];
        let mut routing: Vec<Vec<(ServerId, f64)>> = vec![Vec::new(); n];
        let mut labels = vec![String::new(); n];

        for arc in bf.arcs() {
            let s = arc.index(d);
            level[s] = arc.level;
            if arc.level == 0 {
                external[s] = match arc.kind {
                    ArcKind::Straight => lambda * (1.0 - p),
                    ArcKind::Vertical => lambda * p,
                };
            }
            labels[s] = arc.to_string();
            if arc.level + 1 < d {
                let row = arc.to_row();
                let straight = ButterflyArc {
                    row,
                    level: arc.level + 1,
                    kind: ArcKind::Straight,
                }
                .index(d);
                let vertical = ButterflyArc {
                    row,
                    level: arc.level + 1,
                    kind: ArcKind::Vertical,
                }
                .index(d);
                let mut routes = Vec::with_capacity(2);
                if 1.0 - p > 0.0 {
                    routes.push((ServerId(straight), 1.0 - p));
                }
                if p > 0.0 {
                    routes.push((ServerId(vertical), p));
                }
                routing[s] = routes;
            }
        }
        LevelledNetwork::new(level, external, routing, labels)
    }

    /// The three-server network `G` of Lemma 9 (paper Fig. 2a): servers
    /// `S1`, `S2` on level 0 feeding server `S3` on level 1 with
    /// probabilities `q1`, `q2`; independent external arrivals at all three.
    ///
    /// Panics on a negative or non-finite rate or a probability outside
    /// `[0, 1]`; [`LevelledNetwork::try_fig2_network`] is the fallible form.
    pub fn fig2_network(rate1: f64, rate2: f64, rate3: f64, q1: f64, q2: f64) -> LevelledNetwork {
        LevelledNetwork::try_fig2_network(rate1, rate2, rate3, q1, q2)
            .unwrap_or_else(|e| panic!("invalid levelled network: {e}"))
    }

    /// [`LevelledNetwork::fig2_network`], returning the first broken
    /// invariant as an error instead of panicking.
    pub fn try_fig2_network(
        rate1: f64,
        rate2: f64,
        rate3: f64,
        q1: f64,
        q2: f64,
    ) -> Result<LevelledNetwork, String> {
        LevelledNetwork::try_new(
            vec![0, 0, 1],
            vec![rate1, rate2, rate3],
            vec![vec![(ServerId(2), q1)], vec![(ServerId(2), q2)], Vec::new()],
            vec!["S1".into(), "S2".into(), "S3".into()],
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const EPS: f64 = 1e-12;

    #[test]
    fn equivalent_q_structure_3cube() {
        // Fig. 1b: network Q of the 3-cube has 24 servers on 3 levels.
        let net = LevelledNetwork::equivalent_q(Hypercube::new(3), 0.5, 0.5);
        assert_eq!(net.num_servers(), 24);
        assert_eq!(net.num_levels(), 3);
        assert!(net.validate().is_ok());
        // Level sizes: 8 servers per dimension.
        for lvl in 0..3 {
            assert_eq!(net.servers().filter(|&s| net.level(s) == lvl).count(), 8);
        }
    }

    #[test]
    fn equivalent_q_external_rates_follow_property_a() {
        let (lambda, p) = (0.8, 0.3);
        let cube = Hypercube::new(4);
        let net = LevelledNetwork::equivalent_q(cube, lambda, p);
        for arc in cube.arcs() {
            let s = ServerId(arc.index(4));
            let expect = lambda * p * (1.0 - p).powi(arc.dim as i32);
            assert!((net.external_rate(s) - expect).abs() < EPS);
        }
    }

    #[test]
    fn equivalent_q_routing_probabilities_sum_to_departure() {
        // Property C: forward sum + departure = 1, departure = (1-p)^(d-1-i).
        let (d, p) = (5usize, 0.35);
        let net = LevelledNetwork::equivalent_q(Hypercube::new(d), 1.0, p);
        for s in net.servers() {
            let i = net.level(s);
            let dep = net.departure_prob(s);
            let expect = (1.0 - p).powi((d - 1 - i) as i32);
            assert!(
                (dep - expect).abs() < 1e-9,
                "server {s:?} level {i}: departure {dep} vs {expect}"
            );
        }
    }

    #[test]
    fn proposition_5_arc_rates_equal_rho() {
        // Prop. 5: total arrival rate at EVERY arc equals λp.
        for &(lambda, p) in &[(0.5, 0.5), (1.2, 0.7), (0.9, 0.25), (1.9, 1.0)] {
            let net = LevelledNetwork::equivalent_q(Hypercube::new(5), lambda, p);
            let rho = lambda * p;
            for (s, rate) in net.total_arrival_rates().into_iter().enumerate() {
                assert!(
                    (rate - rho).abs() < 1e-9,
                    "λ={lambda} p={p} server {s}: rate {rate} ≠ ρ {rho}"
                );
            }
            assert!((net.max_utilization() - rho).abs() < 1e-9);
        }
    }

    #[test]
    fn equivalent_r_structure_2butterfly() {
        // Fig. 3b: network R of the 2-dimensional butterfly: 16 servers,
        // 2 levels.
        let net = LevelledNetwork::equivalent_r(Butterfly::new(2), 0.5, 0.5);
        assert_eq!(net.num_servers(), 16);
        assert_eq!(net.num_levels(), 2);
        assert!(net.validate().is_ok());
    }

    #[test]
    fn proposition_15_butterfly_arc_rates() {
        // Prop. 15: straight arcs carry λ(1-p), vertical arcs carry λp,
        // at every level.
        let (lambda, p) = (0.9, 0.3);
        let bf = Butterfly::new(4);
        let net = LevelledNetwork::equivalent_r(bf, lambda, p);
        let rates = net.total_arrival_rates();
        for arc in bf.arcs() {
            let expect = match arc.kind {
                ArcKind::Straight => lambda * (1.0 - p),
                ArcKind::Vertical => lambda * p,
            };
            let got = rates[arc.index(4)];
            assert!(
                (got - expect).abs() < 1e-9,
                "{arc}: rate {got} vs expected {expect}"
            );
        }
    }

    #[test]
    fn butterfly_max_utilization_is_load_factor() {
        // ρ_bf = λ max{p, 1-p} (Prop. 16 / Eq. 17).
        for &(lambda, p) in &[(1.0, 0.3), (1.0, 0.5), (1.5, 0.6)] {
            let net = LevelledNetwork::equivalent_r(Butterfly::new(3), lambda, p);
            let expect = lambda * p.max(1.0 - p);
            assert!((net.max_utilization() - expect).abs() < 1e-9);
        }
    }

    #[test]
    fn fig2_network_shape() {
        let net = LevelledNetwork::fig2_network(0.3, 0.4, 0.1, 0.5, 0.8);
        assert_eq!(net.num_servers(), 3);
        assert_eq!(net.num_levels(), 2);
        let rates = net.total_arrival_rates();
        assert!((rates[2] - (0.1 + 0.3 * 0.5 + 0.4 * 0.8)).abs() < EPS);
        assert!((net.departure_prob(ServerId(0)) - 0.5).abs() < EPS);
        assert!((net.departure_prob(ServerId(2)) - 1.0).abs() < EPS);
    }

    #[test]
    #[should_panic(expected = "not levelled")]
    fn rejects_same_level_route() {
        LevelledNetwork::new(
            vec![0, 0],
            vec![0.1, 0.1],
            vec![vec![(ServerId(1), 0.5)], vec![]],
            vec!["a".into(), "b".into()],
        );
    }

    #[test]
    #[should_panic(expected = "sum to")]
    fn rejects_excess_probability() {
        LevelledNetwork::new(
            vec![0, 1],
            vec![0.1, 0.0],
            vec![vec![(ServerId(1), 0.7), (ServerId(1), 0.6)], vec![]],
            vec!["a".into(), "b".into()],
        );
    }

    #[test]
    fn degenerate_p_zero_and_one() {
        // p = 0: all packets stay home; every rate is 0.
        let net0 = LevelledNetwork::equivalent_q(Hypercube::new(3), 1.0, 0.0);
        assert!(net0.total_arrival_rates().iter().all(|&r| r.abs() < EPS));
        // p = 1: every packet crosses every dimension; rate λ on each arc,
        // routing after dim i goes to dim i+1 with probability 1.
        let net1 = LevelledNetwork::equivalent_q(Hypercube::new(3), 0.7, 1.0);
        for r in net1.total_arrival_rates() {
            assert!((r - 0.7).abs() < 1e-9);
        }
        for s in net1.servers() {
            if net1.level(s) < 2 {
                assert_eq!(net1.routes(s).len(), 1);
                assert!((net1.routes(s)[0].1 - 1.0).abs() < EPS);
            }
        }
    }
}
