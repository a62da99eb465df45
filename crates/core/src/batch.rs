//! Static batch routing: route a fixed set of packets greedily from time 0
//! (no further arrivals).
//!
//! This is the inner step of the §2.3 pipelined Valiant–Brebner scheme —
//! "all selected packets are routed as in the first phase of \[VaB81\]" —
//! and doubles as a static permutation-routing facility: \[VaB81\] showed the
//! completion time of a random batch is `≤ R·d` with high probability for a
//! constant `R`.

use std::collections::VecDeque;

/// Result of routing one batch.
#[derive(Clone, Debug)]
pub struct BatchResult {
    /// Completion time of each input packet (0.0 for origin = destination).
    pub completion: Vec<f64>,
    /// Time the last packet arrived (`max(completion)`).
    pub makespan: f64,
    /// Total arc traversals.
    pub total_hops: u64,
}

#[derive(Clone, Copy, Debug)]
struct BPacket {
    id: u32,
    remaining: u32,
}

/// Schedule arc `arc`'s service completion at `time`. Every packet starts
/// at time 0 and every arc serves in one unit, so each completion is
/// pushed at `t + 1` for the time `t` being processed: push times never
/// decrease, and the FIFO pops exactly a heap's `(time, insertion)` order.
fn push_completion(events: &mut VecDeque<(f64, u32)>, time: f64, arc: u32) {
    debug_assert!(
        events.back().is_none_or(|&(last, _)| last <= time),
        "completion at {time} pushed behind a later one"
    );
    events.push_back((time, arc));
}

/// Route `packets` (pairs of origin/destination node ids) greedily on the
/// `d`-cube, all released at time 0. Dimensions are crossed in increasing
/// index order; FIFO per arc; ties broken by input order (deterministic).
pub fn route_batch_greedy(d: usize, packets: &[(u32, u32)]) -> BatchResult {
    assert!((1..=26).contains(&d));
    let nodes = 1u32 << d;
    let mut queues: Vec<VecDeque<BPacket>> = vec![VecDeque::new(); (d as u32 * nodes) as usize];
    let mut busy = vec![false; (d as u32 * nodes) as usize];
    let mut events: VecDeque<(f64, u32)> = VecDeque::with_capacity(packets.len());
    let mut completion = vec![0.0f64; packets.len()];
    let mut total_hops = 0u64;

    let enqueue = |queues: &mut Vec<VecDeque<BPacket>>,
                   busy: &mut Vec<bool>,
                   events: &mut VecDeque<(f64, u32)>,
                   t: f64,
                   node: u32,
                   pkt: BPacket| {
        debug_assert!(pkt.remaining != 0);
        let dim = pkt.remaining.trailing_zeros() as usize;
        let arc = node as usize * d + dim;
        let next = BPacket {
            id: pkt.id,
            remaining: pkt.remaining & !(1 << dim),
        };
        queues[arc].push_back(next);
        if !busy[arc] {
            busy[arc] = true;
            push_completion(events, t + 1.0, arc as u32);
        }
    };

    for (i, &(origin, dest)) in packets.iter().enumerate() {
        assert!(origin < nodes && dest < nodes, "node out of range");
        let remaining = origin ^ dest;
        if remaining != 0 {
            enqueue(
                &mut queues,
                &mut busy,
                &mut events,
                0.0,
                origin,
                BPacket {
                    id: i as u32,
                    remaining,
                },
            );
        }
    }

    let mut makespan = 0.0f64;
    while let Some((t, arc)) = events.pop_front() {
        let arc = arc as usize;
        let pkt = queues[arc].pop_front().expect("completion on empty queue");
        if queues[arc].is_empty() {
            busy[arc] = false;
        } else {
            push_completion(&mut events, t + 1.0, arc as u32);
        }
        total_hops += 1;
        let node = (arc / d) as u32 ^ (1u32 << (arc % d));
        if pkt.remaining == 0 {
            completion[pkt.id as usize] = t;
            if t > makespan {
                makespan = t;
            }
        } else {
            enqueue(&mut queues, &mut busy, &mut events, t, node, pkt);
        }
    }

    BatchResult {
        completion,
        makespan,
        total_hops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::sample_flip_mask;
    use hyperroute_desim::SimRng;

    /// A uniformly random permutation batch: node `i` sends one packet to
    /// `σ(i)` for a uniform permutation `σ` (the \[Val82\] permutation task).
    fn random_permutation_batch(d: usize, rng: &mut SimRng) -> Vec<(u32, u32)> {
        let n = 1u32 << d;
        let mut dests: Vec<u32> = (0..n).collect();
        // Fisher–Yates.
        for i in (1..n as usize).rev() {
            let j = rng.below(i + 1);
            dests.swap(i, j);
        }
        (0..n).map(|i| (i, dests[i as usize])).collect()
    }

    /// A random batch with one packet per node and bit-flip destinations
    /// with probability `p` (the §2.3 round workload).
    fn random_flip_batch(d: usize, p: f64, rng: &mut SimRng) -> Vec<(u32, u32)> {
        let n = 1u32 << d;
        (0..n)
            .map(|i| (i, i ^ sample_flip_mask(rng, d, p)))
            .collect()
    }

    #[test]
    fn single_packet_takes_hamming_distance() {
        let r = route_batch_greedy(4, &[(0b0000, 0b1011)]);
        assert_eq!(r.completion[0], 3.0);
        assert_eq!(r.makespan, 3.0);
        assert_eq!(r.total_hops, 3);
    }

    #[test]
    fn self_destination_completes_at_zero() {
        let r = route_batch_greedy(3, &[(5, 5)]);
        assert_eq!(r.completion[0], 0.0);
        assert_eq!(r.total_hops, 0);
    }

    #[test]
    fn two_packets_contending_for_one_arc() {
        // Both need arc (0, dim 0): second waits one unit.
        let r = route_batch_greedy(2, &[(0, 1), (0, 1)]);
        let mut c = r.completion.clone();
        c.sort_by(f64::total_cmp);
        assert_eq!(c, vec![1.0, 2.0]);
    }

    #[test]
    fn bit_reversal_style_worst_case_still_finishes() {
        // All nodes send to their complement: full d hops each, disjoint
        // canonical paths ⇒ makespan exactly d.
        let d = 5;
        let n = 1u32 << d;
        let batch: Vec<(u32, u32)> = (0..n).map(|i| (i, !i & (n - 1))).collect();
        let r = route_batch_greedy(d, &batch);
        assert_eq!(r.makespan, d as f64);
        assert_eq!(r.total_hops, (n as u64) * d as u64);
    }

    #[test]
    fn random_permutation_is_permutation() {
        let mut rng = SimRng::new(3);
        let batch = random_permutation_batch(4, &mut rng);
        let mut dests: Vec<u32> = batch.iter().map(|&(_, d)| d).collect();
        dests.sort_unstable();
        assert_eq!(dests, (0..16).collect::<Vec<_>>());
    }

    #[test]
    fn random_permutation_completes_within_constant_times_d() {
        // [VaB81]: completion ≤ R·d whp; empirically R is small.
        let mut rng = SimRng::new(7);
        for _ in 0..5 {
            let batch = random_permutation_batch(6, &mut rng);
            let r = route_batch_greedy(6, &batch);
            assert!(
                r.makespan <= 4.0 * 6.0,
                "permutation took {} > 4d",
                r.makespan
            );
            assert!(r.makespan >= 1.0);
        }
    }

    #[test]
    fn batch_routing_is_deterministic() {
        let mut rng = SimRng::new(5);
        let batch = random_flip_batch(5, 0.5, &mut rng);
        let a = route_batch_greedy(5, &batch);
        let b = route_batch_greedy(5, &batch);
        assert_eq!(a.completion, b.completion);
    }
}
