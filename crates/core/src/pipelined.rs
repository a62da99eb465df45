//! The §2.3 non-greedy pipelined Valiant–Brebner scheme, simulated
//! faithfully.
//!
//! At each round start every node releases (at most) one stored packet; the
//! released batch is routed greedily as one static instance
//! ([`crate::batch::route_batch_greedy`]); the next round starts when the
//! batch completes. Packets generated during a round are stored at their
//! origins. Each node therefore behaves like an M/G/1 queue with service
//! time ≈ `R·d`, so the scheme destabilises once `λ·R·d ≥ 1` — at any
//! fixed load factor it fails for large `d`, which is the paper's §2.3
//! point (experiment E12).
//!
//! This scheme is round-driven, not event-driven: it shares the slab
//! pool, statistics and [`Report`] surface with the generic engine but
//! has no event queue at all (its `events` count is 0). Construct through
//! [`crate::scenario::Scenario`] with
//! [`crate::scenario::Topology::Pipelined`].

use crate::batch::route_batch_greedy;
use crate::config::ConfigError;
use crate::metrics::DelayStats;
use crate::observe::Observer;
use crate::packet::sample_flip_mask;
use crate::pool::{ArcList, SlabPool};
use crate::scenario::{PipelinedExt, Report, ReportExt, Scenario, Topology};
use hyperroute_desim::{SimRng, Welford};

/// Structured validation of the pipelined parameters (shared with
/// `Scenario::validate`, so the scenario checks can never drift from what
/// the round loop assumes).
pub(crate) fn check_params(
    dim: usize,
    lambda: f64,
    p: f64,
    rounds: usize,
) -> Result<(), ConfigError> {
    if !(1..=16).contains(&dim) {
        return Err(ConfigError::Dimension {
            dim,
            min: 1,
            max: 16,
        });
    }
    if !(lambda >= 0.0 && lambda.is_finite()) {
        return Err(ConfigError::Lambda(lambda));
    }
    if !(0.0..=1.0).contains(&p) {
        return Err(ConfigError::FlipProbability(p));
    }
    if rounds < 2 {
        return Err(ConfigError::Rounds(rounds));
    }
    Ok(())
}

/// Run the pipelined scheme under a streaming [`Observer`].
///
/// The observer sees one event per routing round (clock = accumulated
/// simulated time, signal = stored backlog at the round start) and every
/// delivered packet; it never changes the simulation.
pub(crate) fn simulate_pipelined_observed<O: Observer>(scenario: &Scenario, obs: &mut O) -> Report {
    let Topology::Pipelined { dim, rounds } = scenario.topology else {
        unreachable!("pipelined simulator on a non-pipelined scenario");
    };
    let (lambda, p, seed) = (
        scenario.workload.lambda,
        scenario.workload.p,
        scenario.run.seed,
    );
    let n = 1usize << dim;
    let mut rng = SimRng::new(seed);
    let mut arrival_rng = rng.split();
    let mut dest_rng = rng.split();

    // Per-node store of (birth time, destination mask): intrusive FIFO
    // lists over one shared slab, like the event-driven simulators.
    let mut pool: SlabPool<(f64, u32)> = SlabPool::with_capacity(n);
    let mut stores: Vec<ArcList> = vec![ArcList::EMPTY; n];
    let mut now = 0.0f64;
    let mut delays = Welford::new();
    let mut round_lengths = Welford::new();
    let mut backlog_at_round = Vec::with_capacity(rounds);
    let mut generated = 0u64;
    let mut delivered = 0u64;

    for _ in 0..rounds {
        obs.on_event(now, pool.len() as f64);
        backlog_at_round.push(pool.len() as f64);

        // Release at most one packet per node. Stores hold the destination
        // as an XOR mask relative to the origin (Lemma 1's bit-flips);
        // resolve to an absolute node id here.
        let mut batch: Vec<(u32, u32)> = Vec::new();
        let mut births: Vec<f64> = Vec::new();
        for (node, store) in stores.iter_mut().enumerate() {
            if let Some((born, mask)) = store.pop_front(&mut pool) {
                batch.push((node as u32, node as u32 ^ mask));
                births.push(born);
            }
        }

        // Round length: the batch's actual completion time; an empty round
        // idles for one unit (polling for new arrivals).
        let round_len = if batch.is_empty() {
            1.0
        } else {
            let result = route_batch_greedy(dim, &batch);
            for (i, &born) in births.iter().enumerate() {
                delays.push(now + result.completion[i] - born);
                obs.on_delivered(now + result.completion[i], born);
                delivered += 1;
            }
            // A batch of self-destined packets completes instantly; the
            // round still takes one unit of bookkeeping.
            result.makespan.max(1.0)
        };
        round_lengths.push(round_len);

        // Arrivals during [now, now + round_len): per-node Poisson batch
        // with uniform birth times (order within a store is by birth).
        for store in stores.iter_mut() {
            let k = arrival_rng.poisson(lambda * round_len);
            let mut times: Vec<f64> = (0..k)
                .map(|_| now + arrival_rng.uniform01() * round_len)
                .collect();
            times.sort_by(f64::total_cmp);
            for t in times {
                let dest_mask = sample_flip_mask(&mut dest_rng, dim, p);
                store.push_back(&mut pool, (t, dest_mask));
                generated += 1;
            }
        }
        now += round_len;
    }

    let slope = least_squares_slope(&backlog_at_round);
    let mean_round = round_lengths.mean();
    let mean_backlog = backlog_at_round.iter().sum::<f64>() / backlog_at_round.len() as f64;
    Report {
        delay: DelayStats {
            mean: delays.mean(),
            ci95: f64::NAN,
            p50: f64::NAN,
            p90: f64::NAN,
            p99: f64::NAN,
            count: delivered,
        },
        mean_in_system: mean_backlog,
        peak_in_system: f64::NAN,
        throughput: f64::NAN,
        little_error: f64::NAN,
        generated,
        delivered,
        events: 0,
        ext: ReportExt::Pipelined(PipelinedExt {
            mean_round_length: mean_round,
            round_constant: mean_round / dim as f64,
            mean_backlog,
            final_backlog: pool.len() as u64,
            backlog_slope_per_round: slope,
        }),
        telemetry: None,
    }
}

/// Least-squares slope of `y[i]` against `i`, over the second half of the
/// series (transient discarded).
pub fn least_squares_slope(ys: &[f64]) -> f64 {
    let half = &ys[ys.len() / 2..];
    let n = half.len() as f64;
    if half.len() < 2 {
        return 0.0;
    }
    let mean_x = (half.len() - 1) as f64 / 2.0;
    let mean_y = half.iter().sum::<f64>() / n;
    let mut num = 0.0;
    let mut den = 0.0;
    for (i, &y) in half.iter().enumerate() {
        let dx = i as f64 - mean_x;
        num += dx * (y - mean_y);
        den += dx * dx;
    }
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::observe::NullObserver;

    fn simulate_pipelined(s: &Scenario) -> Report {
        simulate_pipelined_observed(s, &mut NullObserver)
    }

    fn scenario(dim: usize, lambda: f64, p: f64, rounds: usize, seed: u64) -> Scenario {
        Scenario::builder(Topology::Pipelined { dim, rounds })
            .lambda(lambda)
            .p(p)
            .seed(seed)
            .build()
            .expect("valid scenario")
    }

    fn pipe(r: &Report) -> &PipelinedExt {
        r.pipelined().expect("pipelined report")
    }

    #[test]
    fn slope_of_linear_series() {
        let ys: Vec<f64> = (0..100).map(|i| 3.0 * i as f64 + 5.0).collect();
        assert!((least_squares_slope(&ys) - 3.0).abs() < 1e-9);
        let flat = vec![7.0; 50];
        assert_eq!(least_squares_slope(&flat), 0.0);
    }

    #[test]
    fn light_load_is_stable() {
        // λ well below 1/(Rd): backlog stays flat.
        let r = simulate_pipelined(&scenario(4, 0.02, 0.5, 300, 0x717E));
        let per_round_input = 0.02 * 16.0 * pipe(&r).mean_round_length;
        assert!(
            !pipe(&r).looks_unstable(per_round_input),
            "slope {} at light load",
            pipe(&r).backlog_slope_per_round
        );
        assert!(r.delivered > 0);
        assert!(pipe(&r).round_constant > 0.1 && pipe(&r).round_constant < 5.0);
    }

    #[test]
    fn moderate_load_unstable_where_greedy_would_sail() {
        // ρ = λp = 0.3 — trivially stable for greedy — swamps the pipeline
        // at d=6 (threshold λRd < 1 means λ < ~1/(1.1·6) ≈ 0.15 < 0.6).
        let r = simulate_pipelined(&scenario(6, 0.6, 0.5, 150, 3));
        let per_round_input = 0.6 * 64.0 * pipe(&r).mean_round_length;
        assert!(
            pipe(&r).looks_unstable(per_round_input),
            "expected instability, slope {}",
            pipe(&r).backlog_slope_per_round
        );
        assert!(
            pipe(&r).final_backlog > 1000,
            "backlog {}",
            pipe(&r).final_backlog
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let s = scenario(4, 0.05, 0.5, 400, 0x717E);
        let a = simulate_pipelined(&s);
        let b = simulate_pipelined(&s);
        assert_eq!(a.generated, b.generated);
        assert_eq!(a.delay.mean, b.delay.mean);
    }

    #[test]
    fn zero_lambda_never_generates() {
        let r = simulate_pipelined(&scenario(4, 0.0, 0.5, 10, 0x717E));
        assert_eq!(r.generated, 0);
        assert_eq!(r.delivered, 0);
    }

    #[test]
    fn builder_rejects_bad_params() {
        assert!(matches!(
            Scenario::builder(Topology::Pipelined { dim: 4, rounds: 1 })
                .build()
                .unwrap_err(),
            ConfigError::Rounds(1)
        ));
        assert!(matches!(
            Scenario::builder(Topology::Pipelined {
                dim: 17,
                rounds: 10
            })
            .build()
            .unwrap_err(),
            ConfigError::Dimension { dim: 17, .. }
        ));
    }
}
