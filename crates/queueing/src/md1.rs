//! M/D/1 stationary formulas (Pollaczek–Khinchine with deterministic
//! service).
//!
//! A single hypercube/butterfly arc fed only by exogenous Poisson traffic is
//! exactly an M/D/1 queue with unit service — the building block of the
//! paper's lower bounds (Prop. 3 proof, Prop. 13 for first-dimension arcs,
//! Prop. 14 for first-level butterfly arcs) and of the `p = 1` exact delay.

/// Mean sojourn time (wait + service) of M/D/1 with unit service and
/// utilisation `rho`: `1 + ρ / (2(1-ρ))` (\[Kle75\] as cited by the paper).
pub fn mean_sojourn(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 ≤ ρ < 1, got {rho}");
    1.0 + rho / (2.0 * (1.0 - rho))
}

/// Mean waiting time in queue: `ρ / (2(1-ρ))`.
pub fn mean_wait(rho: f64) -> f64 {
    mean_sojourn(rho) - 1.0
}

/// Mean number in system: `ρ + ρ² / (2(1-ρ))` (used in Eq. (16) of the
/// paper's Prop. 13 proof).
pub fn mean_number_in_system(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 ≤ ρ < 1, got {rho}");
    rho + rho * rho / (2.0 * (1.0 - rho))
}

/// The convex, increasing function `r ↦ r (1 + r/(2(1-r)))` minimised in the
/// Prop. 3 proof (rate-weighted M/D/1 delay).
pub fn rate_weighted_sojourn(r: f64) -> f64 {
    assert!((0.0..1.0).contains(&r));
    r * mean_sojourn(r)
}

/// Exact waiting-time distribution of M/D/1 with unit service (Erlang's
/// classical alternating-series formula):
/// `P(W_q ≤ t) = (1-ρ) Σ_{k=0}^{⌊t⌋} (ρ(k-t))^k e^{-ρ(k-t)} / k!`,
/// switched to the exact exponential tail asymptote
/// `1 - F(t) ≈ C·e^{-ηt}` (with `η` the unique positive root of
/// `ρ(e^η - 1) = η`) once the alternating series would cancel
/// catastrophically in f64 (around `ρ·t ≳ 14`). The prefactor `C` is
/// anchored at the last reliably computed point, keeping the CDF
/// continuous and monotone.
///
/// Lets the `p = 1` case be validated at the *quantile* level, not just in
/// the mean: there the whole delay is the path length plus exactly this
/// wait.
pub fn wait_cdf(rho: f64, t: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho), "need 0 ≤ ρ < 1, got {rho}");
    if t < 0.0 {
        return 0.0;
    }
    if rho == 0.0 {
        return 1.0;
    }
    let t_stable = 14.0 / rho;
    if t <= t_stable {
        return erlang_series(rho, t);
    }
    // Tail extrapolation from the anchor point.
    let anchor = t_stable.floor();
    let tail_at_anchor = (1.0 - erlang_series(rho, anchor)).max(0.0);
    if tail_at_anchor == 0.0 {
        return 1.0;
    }
    let eta = tail_decay_rate(rho);
    (1.0 - tail_at_anchor * (-eta * (t - anchor)).exp()).clamp(0.0, 1.0)
}

/// The alternating Erlang series (reliable only for `ρ·t ≲ 14`).
fn erlang_series(rho: f64, t: f64) -> f64 {
    let mut sum = 0.0f64;
    let kmax = t.floor() as i64;
    for k in 0..=kmax {
        let x = rho * (k as f64 - t); // ≤ 0, so x^k = (-1)^k·(-x)^k
        let mut term = (-x).powi(k as i32) / factorial(k as u32) * (-x).exp();
        if k % 2 == 1 {
            term = -term;
        }
        sum += term;
    }
    ((1.0 - rho) * sum).clamp(0.0, 1.0)
}

/// Decay rate of the M/D/1 waiting-time tail: the unique `η > 0` with
/// `ρ(e^η - 1) = η` (Cramér/large-deviations exponent for deterministic
/// service), found by bisection.
pub fn tail_decay_rate(rho: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho) && rho > 0.0);
    let f = |eta: f64| rho * (eta.exp() - 1.0) - eta;
    // f(0) = 0 with f'(0) = ρ-1 < 0; f → ∞: root in (0, hi).
    let mut hi = 1.0f64;
    while f(hi) < 0.0 {
        hi *= 2.0;
        assert!(hi < 1e3, "no tail root found");
    }
    let mut lo = 0.0f64;
    for _ in 0..100 {
        let mid = 0.5 * (lo + hi);
        if f(mid) < 0.0 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

/// Quantile of the M/D/1 waiting time: smallest `t` with
/// `P(W_q ≤ t) ≥ q`, found by bisection.
pub fn wait_quantile(rho: f64, q: f64) -> f64 {
    assert!((0.0..1.0).contains(&q), "quantile level must be in [0,1)");
    if q <= wait_cdf(rho, 0.0) {
        return 0.0;
    }
    let (mut lo, mut hi) = (0.0f64, 4.0f64);
    while wait_cdf(rho, hi) < q {
        hi *= 2.0;
        assert!(hi < 1e6, "quantile out of reach");
    }
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if wait_cdf(rho, mid) < q {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

fn factorial(k: u32) -> f64 {
    (1..=k).fold(1.0f64, |acc, i| acc * i as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn light_traffic_limit_is_pure_service() {
        assert!((mean_sojourn(0.0) - 1.0).abs() < 1e-12);
        assert_eq!(mean_wait(0.0), 0.0);
        assert_eq!(mean_number_in_system(0.0), 0.0);
    }

    #[test]
    fn little_consistency() {
        // N = ρ·T for unit-service M/D/1 (arrival rate = ρ).
        for &rho in &[0.1, 0.5, 0.9, 0.99] {
            let n = mean_number_in_system(rho);
            let t = mean_sojourn(rho);
            assert!((n - rho * t).abs() < 1e-12, "rho={rho}");
        }
    }

    #[test]
    fn md1_beats_mm1_in_wait_by_factor_two() {
        // Deterministic service halves the PK waiting time vs exponential.
        for &rho in &[0.3, 0.6, 0.9] {
            let md1_wait = mean_wait(rho);
            let mm1_wait = rho / (1.0 - rho); // M/M/1 wait with unit mean service
            assert!((mm1_wait / md1_wait - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn heavy_traffic_blowup() {
        assert!(mean_sojourn(0.999) > 400.0);
    }

    #[test]
    fn rate_weighted_is_convex_increasing() {
        let xs: Vec<f64> = (1..99).map(|i| i as f64 / 100.0).collect();
        let f: Vec<f64> = xs.iter().map(|&x| rate_weighted_sojourn(x)).collect();
        assert!(f.windows(2).all(|w| w[1] > w[0]), "not increasing");
        // Convexity: second differences non-negative.
        assert!(f.windows(3).all(|w| w[2] - 2.0 * w[1] + w[0] >= -1e-12));
    }

    #[test]
    #[should_panic(expected = "need 0 ≤ ρ < 1")]
    fn rejects_supercritical() {
        mean_sojourn(1.0);
    }

    #[test]
    fn wait_cdf_boundary_values() {
        for &rho in &[0.2, 0.5, 0.8] {
            // P(W_q = 0) = 1 - ρ (PASTA: arriving customer finds server idle).
            assert!((wait_cdf(rho, 0.0) - (1.0 - rho)).abs() < 1e-12, "ρ={rho}");
            assert_eq!(wait_cdf(rho, -1.0), 0.0);
            // Far tail reaches 1.
            assert!(wait_cdf(rho, 200.0) > 0.999, "ρ={rho}");
        }
    }

    #[test]
    fn wait_cdf_monotone() {
        let rho = 0.7;
        let mut last = 0.0;
        for i in 0..200 {
            let t = i as f64 * 0.25;
            let c = wait_cdf(rho, t);
            assert!(c >= last - 1e-12, "CDF dipped at t={t}");
            last = c;
        }
    }

    #[test]
    fn wait_cdf_mean_matches_pk() {
        // E[W] = ∫ (1 - F(t)) dt ≈ ρ/(2(1-ρ)).
        let rho = 0.6;
        let dt = 0.01;
        let mut mean = 0.0;
        let mut t = 0.0;
        while t < 60.0 {
            mean += (1.0 - wait_cdf(rho, t)) * dt;
            t += dt;
        }
        assert!(
            (mean - mean_wait(rho)).abs() < 0.01,
            "integrated mean {mean} vs PK {}",
            mean_wait(rho)
        );
    }

    #[test]
    fn wait_quantile_inverts_cdf() {
        let rho = 0.75;
        for &q in &[0.3, 0.5, 0.9, 0.99] {
            let t = wait_quantile(rho, q);
            assert!((wait_cdf(rho, t) - q).abs() < 1e-6, "q={q}: t={t}");
        }
        // Below the atom at zero the quantile is 0.
        assert_eq!(wait_quantile(0.5, 0.3), 0.0);
    }

    #[test]
    fn wait_cdf_matches_simulation() {
        // Means only: the exact M/D/s simulator at s = 1 must reproduce
        // the P-K mean sojourn 1 + E[W] within 3% at ρ = 0.7. Together
        // with `wait_cdf_mean_matches_pk` this ties the CDF to simulation
        // through its first moment; no test compares the empirical
        // distribution itself.
        use crate::mds::simulate_mean_sojourn;
        let rho = 0.7;
        let sim = simulate_mean_sojourn(1, rho, 150_000.0, 10_000.0, 3);
        let dist_mean = 1.0 + mean_wait(rho);
        assert!((sim - dist_mean).abs() / dist_mean < 0.03);
    }
}
