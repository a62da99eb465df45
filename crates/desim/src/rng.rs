//! Seedable random streams and the samplers the model needs.
//!
//! The paper's traffic model needs exactly three primitives: exponential
//! inter-arrival times (Poisson processes), Bernoulli bit-flips (Lemma 1's
//! destination sampling and Lemma 4's Markovian routing), and Poisson batch
//! sizes (slotted time, §3.4). All are implemented here over `rand`'s
//! `SmallRng` so no external distribution crate is needed and every stream
//! is reproducible from a `u64` seed.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random stream.
#[derive(Clone, Debug)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Stream seeded from a `u64`.
    pub fn new(seed: u64) -> SimRng {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child stream (e.g. one per node / per server)
    /// without correlating with future draws from `self`.
    pub fn split(&mut self) -> SimRng {
        SimRng::new(self.inner.next_u64())
    }

    /// Uniform draw in `[0, 1)`.
    #[inline]
    pub fn uniform01(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// 64 uniform random bits (one raw generator step — the cheapest draw;
    /// batch samplers slice it into independent sub-draws).
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }

    /// Uniform integer in `0..n`. Panics when `n == 0`.
    #[inline]
    pub fn below(&mut self, n: usize) -> usize {
        self.inner.gen_range(0..n)
    }

    /// Exponential variate with the given `rate` (mean `1/rate`).
    ///
    /// Inverse-CDF transform; uses `1 - U ∈ (0, 1]` so `ln` never sees 0.
    #[inline]
    pub fn exp(&mut self, rate: f64) -> f64 {
        debug_assert!(rate > 0.0, "exponential rate must be positive");
        let u = 1.0 - self.uniform01();
        -u.ln() / rate
    }

    /// Poisson variate with the given `mean`.
    ///
    /// Knuth's product method for small means; for large means the variate
    /// is split as a sum of two independent halves (Poisson additivity),
    /// which keeps the product above floating-point underflow while staying
    /// exact in distribution.
    pub fn poisson(&mut self, mean: f64) -> u64 {
        debug_assert!(mean >= 0.0, "Poisson mean must be non-negative");
        if mean == 0.0 {
            return 0;
        }
        if mean > 30.0 {
            // exp(-30) ≈ 9e-14 is still comfortably above underflow, so
            // recurse only above that.
            let half = mean / 2.0;
            return self.poisson(half) + self.poisson(half);
        }
        let threshold = (-mean).exp();
        let mut k = 0u64;
        let mut prod = 1.0;
        loop {
            prod *= self.uniform01();
            if prod <= threshold {
                return k;
            }
            k += 1;
        }
    }

    /// Sample an index from the discrete distribution given as
    /// `(index, probability)` pairs; returns `None` with the residual
    /// probability. This is exactly the paper's Markovian routing step
    /// (forward to one of the listed servers, or depart).
    pub fn route<T: Copy>(&mut self, alternatives: &[(T, f64)]) -> Option<T> {
        let mut u = self.uniform01();
        for &(t, q) in alternatives {
            if u < q {
                return Some(t);
            }
            u -= q;
        }
        None
    }

    /// Access the raw `rand` RNG (escape hatch for proptest interop).
    pub fn raw(&mut self) -> &mut impl Rng {
        &mut self.inner
    }
}

/// SplitMix64 finaliser: a high-quality bijective mixing of a `u64`.
///
/// Used for *derived-seed* schemes — e.g. a parameter sweep gives grid
/// point `i` the seed `splitmix64(base + (i+1)·GOLDEN)` so every point
/// gets an independent, reproducible stream that is a pure function of
/// `(base, i)` and never collides across neighbouring points (the
/// function is a bijection). Reference: Steele, Lea & Flood,
/// "Fast Splittable Pseudorandom Number Generators" (OOPSLA 2014).
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_given_seed() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.uniform01(), b.uniform01());
        }
        let mut c = SimRng::new(43);
        assert_ne!(a.uniform01(), c.uniform01());
    }

    #[test]
    fn split_streams_diverge() {
        let mut root = SimRng::new(7);
        let mut s1 = root.split();
        let mut s2 = root.split();
        let xs: Vec<f64> = (0..10).map(|_| s1.uniform01()).collect();
        let ys: Vec<f64> = (0..10).map(|_| s2.uniform01()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn exponential_mean_and_positivity() {
        let mut rng = SimRng::new(1);
        let rate = 2.5;
        let n = 200_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let x = rng.exp(rate);
            assert!(x > 0.0);
            sum += x;
        }
        let mean = sum / n as f64;
        assert!(
            (mean - 1.0 / rate).abs() < 0.01,
            "empirical mean {mean} vs {}",
            1.0 / rate
        );
    }

    #[test]
    fn exponential_memoryless_tail() {
        // P(X > 1) = e^{-rate}.
        let mut rng = SimRng::new(2);
        let rate = 1.0;
        let n = 100_000;
        let tail = (0..n).filter(|_| rng.exp(rate) > 1.0).count() as f64 / n as f64;
        assert!((tail - (-1.0f64).exp()).abs() < 0.01);
    }

    #[test]
    fn poisson_mean_and_variance_small() {
        let mut rng = SimRng::new(4);
        let mean = 3.2;
        let n = 100_000;
        let samples: Vec<u64> = (0..n).map(|_| rng.poisson(mean)).collect();
        let m = samples.iter().sum::<u64>() as f64 / n as f64;
        let v = samples.iter().map(|&x| (x as f64 - m).powi(2)).sum::<f64>() / n as f64;
        assert!((m - mean).abs() < 0.05, "mean {m}");
        assert!((v - mean).abs() < 0.1, "variance {v}");
    }

    #[test]
    fn poisson_large_mean_splits_correctly() {
        let mut rng = SimRng::new(5);
        let mean = 250.0;
        let n = 20_000;
        let m = (0..n).map(|_| rng.poisson(mean)).sum::<u64>() as f64 / n as f64;
        assert!((m - mean).abs() < 1.0, "mean {m}");
    }

    #[test]
    fn poisson_zero_mean() {
        let mut rng = SimRng::new(6);
        assert_eq!(rng.poisson(0.0), 0);
    }

    #[test]
    fn route_respects_probabilities() {
        let mut rng = SimRng::new(8);
        let alts = [(0usize, 0.2), (1usize, 0.5)];
        let n = 200_000;
        let mut counts = [0usize; 3];
        for _ in 0..n {
            match rng.route(&alts) {
                Some(i) => counts[i] += 1,
                None => counts[2] += 1,
            }
        }
        let f: Vec<f64> = counts.iter().map(|&c| c as f64 / n as f64).collect();
        assert!((f[0] - 0.2).abs() < 0.01);
        assert!((f[1] - 0.5).abs() < 0.01);
        assert!((f[2] - 0.3).abs() < 0.01);
    }

    #[test]
    fn route_empty_always_departs() {
        let mut rng = SimRng::new(9);
        let alts: [(usize, f64); 0] = [];
        assert_eq!(rng.route(&alts), None);
    }

    #[test]
    fn poisson_process_via_exponential_count() {
        // Number of exp(rate) gaps fitting in [0, T] is Poisson(rate*T).
        let mut rng = SimRng::new(10);
        let (rate, horizon) = (0.7, 50.0);
        let reps = 2_000;
        let mut counts = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut t = rng.exp(rate);
            let mut k = 0u64;
            while t <= horizon {
                k += 1;
                t += rng.exp(rate);
            }
            counts.push(k);
        }
        let m = counts.iter().sum::<u64>() as f64 / reps as f64;
        assert!((m - rate * horizon).abs() < 0.5, "mean {m}");
    }
}
