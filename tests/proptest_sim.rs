//! Property-based tests of the packet-level simulators: structural
//! invariants that must hold for *any* stable configuration and seed —
//! plus the pop order of the `EventQueue` heap on random event streams,
//! checked against a plain-list model of `(time, insertion)` order.

use hyperroute::prelude::*;
use hyperroute_desim::{EventQueue, SchedulerKind};
use proptest::prelude::*;

/// The order `EventQueue` must pop in, which the equivalent network, the
/// engine's heap completion list and `batch.rs` rely on: pending events
/// kept in insertion order, each pop taking the earliest time by
/// `f64::total_cmp` and, among equal times, the earliest inserted
/// (`min_by` returns the first of equal minima).
#[derive(Default)]
struct ModelQueue(Vec<(f64, usize)>);

impl ModelQueue {
    fn push(&mut self, time: f64, payload: usize) {
        self.0.push((time, payload));
    }

    fn pop(&mut self) -> Option<(f64, usize)> {
        let next = (0..self.0.len()).min_by(|&a, &b| self.0[a].0.total_cmp(&self.0[b].0))?;
        Some(self.0.remove(next))
    }
}

/// Uniform draws from `0..end` essentially never repeat, so half of them
/// are snapped down to a quarter-unit grid: event streams then hold
/// duplicate times, and a zero gap schedules events at the current time.
fn half_on_quarter_grid(end: f64) -> impl Strategy<Value = f64> {
    (0.0..end).prop_map(move |x| {
        if x < end / 2.0 {
            (x * 4.0).floor() / 4.0
        } else {
            x
        }
    })
}

#[derive(Debug, Clone)]
struct SimCase {
    dim: usize,
    rho: f64,
    p: f64,
    seed: u64,
}

fn sim_case() -> impl Strategy<Value = SimCase> {
    (2usize..=4, 0.1f64..0.85, 0.2f64..=1.0, any::<u64>()).prop_map(|(dim, rho, p, seed)| SimCase {
        dim,
        rho,
        p,
        seed,
    })
}

fn run_case(c: &SimCase, horizon: f64) -> Report {
    Scenario::builder(Topology::Hypercube { dim: c.dim })
        .lambda(c.rho / c.p)
        .p(c.p)
        .horizon(horizon)
        .warmup(horizon * 0.2)
        .seed(c.seed)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conservation_and_quantile_order(c in sim_case()) {
        let r = run_case(&c, 400.0);
        // With drain enabled, everything generated is delivered.
        prop_assert_eq!(r.generated, r.delivered);
        // Quantiles are ordered and the mean is sane.
        if r.delay.count > 0 {
            prop_assert!(r.delay.p50 <= r.delay.p90 + 1e-9);
            prop_assert!(r.delay.p90 <= r.delay.p99 + 1e-9);
            prop_assert!(r.delay.mean >= 0.0 && r.delay.mean.is_finite());
        }
        // Hop counts cannot exceed the diameter (shortest-path routing).
        let ext = r.hypercube().expect("hypercube report");
        prop_assert!(ext.mean_hops <= c.dim as f64 + 1e-9);
        prop_assert!((0.0..=1.0).contains(&ext.zero_hop_fraction));
    }

    #[test]
    fn determinism_per_seed(c in sim_case()) {
        let a = run_case(&c, 300.0);
        let b = run_case(&c, 300.0);
        prop_assert_eq!(a.generated, b.generated);
        prop_assert_eq!(a.delay.mean, b.delay.mean);
        prop_assert_eq!(a.mean_in_system, b.mean_in_system);
    }

    #[test]
    fn delay_never_below_hops(c in sim_case()) {
        // Every hop takes at least one unit, so mean delay ≥ mean hops.
        let r = run_case(&c, 400.0);
        let hops = r.hypercube().expect("hypercube report").mean_hops;
        if r.delay.count > 0 {
            prop_assert!(
                r.delay.mean >= hops - 1e-9,
                "delay {} below hops {}", r.delay.mean, hops
            );
        }
    }

    #[test]
    fn upper_bound_holds_for_random_configs(c in sim_case()) {
        // Prop. 12 with CI slack; horizon long enough for rough convergence.
        let r = run_case(&c, 1_500.0);
        let ub = greedy_upper_bound(c.dim, c.rho / c.p, c.p);
        prop_assert!(
            r.delay.mean <= ub * 1.10 + 0.1,
            "T {} above UB {} for {:?}", r.delay.mean, ub, c
        );
    }

    #[test]
    fn event_queue_pops_like_the_model_on_batch_streams(
        times in prop::collection::vec(half_on_quarter_grid(50.0), 1..300),
    ) {
        // All events pushed up front, then drained: the heap must pop the
        // model's full (time, payload) sequence, including FIFO
        // tie-breaks for duplicate times.
        let mut heap = EventQueue::new();
        let mut model = ModelQueue::default();
        for (i, &t) in times.iter().enumerate() {
            heap.push(t, i);
            model.push(t, i);
        }
        for _ in 0..times.len() {
            prop_assert_eq!(heap.pop(), model.pop());
        }
        prop_assert_eq!(heap.pop(), None);
        prop_assert_eq!(model.pop(), None);
    }

    #[test]
    fn event_queue_pops_like_the_model_under_interleaving(
        gaps in prop::collection::vec((half_on_quarter_grid(2.5), 0u32..4), 10..200),
    ) {
        // DES-like interleaving: pop one event, then schedule `n` new ones
        // at `now + gap` (zero, sub-unit, unit, and multi-unit gaps mixed).
        let mut heap = EventQueue::new();
        let mut model = ModelQueue::default();
        heap.push(0.0, 0usize);
        model.push(0.0, 0usize);
        let mut id = 1usize;
        for &(gap, fanout) in &gaps {
            let (Some(a), Some(b)) = (heap.pop(), model.pop()) else {
                prop_assert!(heap.is_empty() && model.0.is_empty());
                break;
            };
            prop_assert_eq!(a, b);
            let now = a.0;
            for k in 0..fanout {
                let t = now + gap * (k as f64 + 0.5);
                heap.push(t, id);
                model.push(t, id);
                id += 1;
            }
            prop_assert_eq!(heap.len(), model.0.len());
        }
        while let Some(a) = heap.pop() {
            prop_assert_eq!(Some(a), model.pop());
        }
        prop_assert!(model.0.is_empty());
    }

    #[test]
    fn hypercube_backends_bit_identical_on_random_configs(c in sim_case()) {
        let run = |kind| {
            Scenario::builder(Topology::Hypercube { dim: c.dim })
                .lambda(c.rho / c.p)
                .p(c.p)
                .scheduler(kind)
                .horizon(250.0)
                .warmup(50.0)
                .seed(c.seed)
                .build()
                .expect("valid scenario")
                .run()
                .expect("scenario runs")
        };
        prop_assert_eq!(run(SchedulerKind::Heap), run(SchedulerKind::Calendar));
    }

    #[test]
    fn butterfly_invariants(
        dim in 2usize..=4,
        load in 0.1f64..0.8,
        p in 0.1f64..0.9,
        seed in any::<u64>(),
    ) {
        let lambda = load / p.max(1.0 - p);
        let r = Scenario::builder(Topology::Butterfly { dim })
            .lambda(lambda)
            .p(p)
            .horizon(400.0)
            .warmup(80.0)
            .seed(seed)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        prop_assert_eq!(r.generated, r.delivered);
        if r.delay.count > 0 {
            // Unique path of length d: delay at least d, verticals ≤ d.
            prop_assert!(r.delay.mean >= dim as f64 - 1e-9);
            prop_assert!(
                r.butterfly().expect("butterfly report").mean_vertical_hops
                    <= dim as f64 + 1e-9
            );
        }
    }
}
