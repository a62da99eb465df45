//! Criterion microbenches of the simulation kernels: event-queue
//! throughput (heap vs calendar backend), packet-level simulation rate
//! under both backends, PS-server churn, and static batch routing. These
//! are the ablation benches for the engine's design choices (arc-indexed
//! flat queues, merged Poisson arrivals, virtual-time PS, and the
//! calendar-queue scheduler). The end-to-end
//! engine grid with JSON output lives in the `engine_report` bench.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hyperroute_core::batch::{random_permutation_batch, route_batch_greedy};
use hyperroute_core::{Scenario, Topology};
use hyperroute_desim::{CalendarQueue, EventQueue, SchedulerKind, SimRng};
use hyperroute_queueing::PsServer;
use std::hint::black_box;

fn bench_event_queue(c: &mut Criterion) {
    c.bench_function("event_queue_push_pop_10k", |b| {
        let mut rng = SimRng::new(1);
        let times: Vec<f64> = (0..10_000).map(|_| rng.uniform01() * 1e6).collect();
        b.iter(|| {
            let mut q = EventQueue::with_capacity(times.len());
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i as u32);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v as u64);
            }
            black_box(acc)
        });
    });
    c.bench_function("calendar_queue_push_pop_10k", |b| {
        let mut rng = SimRng::new(1);
        let times: Vec<f64> = (0..10_000).map(|_| rng.uniform01() * 1e6).collect();
        b.iter(|| {
            // Deliberately mis-hinted by the spread (events span 1e6 time
            // units): exercises the overflow lane + epoch jumps too.
            let mut q = CalendarQueue::with_rate_hint(64.0);
            for (i, &t) in times.iter().enumerate() {
                q.push(t, i as u32);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v as u64);
            }
            black_box(acc)
        });
    });
    // The simulator's actual pattern: ~1600 pending events, 80% pushed at
    // now + 1.0 (service completions), 20% at now + Exp (arrivals).
    let mut group = c.benchmark_group("scheduler_steady_state");
    for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
        group.bench_function(kind.name(), |b| {
            let mut rng = SimRng::new(2);
            let mut q = hyperroute_desim::Scheduler::new(kind, 2048.0);
            for i in 0..1600u32 {
                q.push(rng.uniform01(), i);
            }
            let mut i = 0u64;
            b.iter(|| {
                let (t, v) = q.pop().expect("queue never drains");
                let dt = if i.is_multiple_of(5) {
                    rng.exp(400.0)
                } else {
                    1.0
                };
                q.push(t + dt, v);
                i += 1;
                black_box(v)
            });
        });
    }
    group.finish();
}

fn bench_hypercube_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("hypercube_sim");
    group.sample_size(10);
    for &(d, rho) in &[(6usize, 0.5f64), (8, 0.8)] {
        for kind in [SchedulerKind::Heap, SchedulerKind::Calendar] {
            group.bench_function(format!("d{d}_rho{rho}/{}", kind.name()), |b| {
                let scenario = Scenario::builder(Topology::Hypercube { dim: d })
                    .lambda(rho / 0.5)
                    .p(0.5)
                    .scheduler(kind)
                    .horizon(100.0)
                    .warmup(20.0)
                    .seed(7)
                    .build()
                    .expect("valid scenario");
                b.iter(|| black_box(scenario.run().expect("scenario runs").delivered));
            });
        }
    }
    group.finish();
}

fn bench_ps_server(c: &mut Criterion) {
    c.bench_function("ps_server_10k_cycles", |b| {
        b.iter_batched(
            PsServer::unit,
            |mut ps| {
                let mut t = 0.0;
                for i in 0..10_000u64 {
                    ps.arrive(t, i);
                    let d = ps.next_departure_time().unwrap();
                    ps.complete_next(d);
                    t = d + 0.1;
                }
                black_box(t)
            },
            BatchSize::SmallInput,
        );
    });
}

fn bench_batch_routing(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch_routing");
    group.sample_size(20);
    for &d in &[8usize, 10] {
        let mut rng = SimRng::new(11);
        let batch = random_permutation_batch(d, &mut rng);
        group.bench_function(format!("permutation_d{d}"), |b| {
            b.iter(|| black_box(route_batch_greedy(d, &batch).makespan));
        });
    }
    group.finish();
}

criterion_group!(
    kernels,
    bench_event_queue,
    bench_hypercube_sim,
    bench_ps_server,
    bench_batch_routing
);
criterion_main!(kernels);
