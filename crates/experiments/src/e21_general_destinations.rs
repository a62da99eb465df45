//! E21 — §2.2 generalisation: for any translation-invariant destination
//! distribution the necessary stability condition becomes
//! `ρ_gen = λ·max_j p_j < 1`, where `p_j` is the flip probability of
//! dimension `j`. A skewed distribution therefore loses capacity to its
//! bottleneck dimension — and the frontier sits exactly where the
//! generalised load factor says.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::load::dimension_load_factors;
use hyperroute_core::config::DestinationSpec;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::stability::probe_scenario;
use hyperroute_core::{Scenario, Topology};

/// Sweep λ across the *generalised* stability frontier of a skewed
/// destination distribution (dimension 0 always flips).
pub fn run(scale: Scale) -> Table {
    let d = 4usize;
    let horizon = scale.horizon(6_000.0);
    // Dimension 0 flips always, the rest rarely: p_j = (1, .2, .2, .2).
    let per_dim = [1.0, 0.2, 0.2, 0.2];
    let spec = DestinationSpec::product_of_flips(&per_dim);
    let DestinationSpec::MaskPmf(pmf) = spec.clone() else {
        unreachable!()
    };
    let lambdas = vec![0.5, 0.8, 0.95, 1.1, 1.3];

    let rows = parallel_map(lambdas, 0, |lambda| {
        let loads = dimension_load_factors(d, lambda, &|mask| pmf[mask as usize]);
        let rho_gen = loads.iter().copied().fold(0.0, f64::max);
        let scenario = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .dest(spec.clone())
            .horizon(horizon)
            .seed(0xE21 ^ (lambda * 100.0) as u64)
            .build()
            .expect("valid scenario");
        let v = probe_scenario(&scenario).expect("scenario probes");
        (lambda, rho_gen, v)
    });

    let mut t = Table::new(
        format!(
            "E21 §2.2 — generalised stability rho_gen = lambda*max_j p_j (d={d}, p=(1,.2,.2,.2))"
        ),
        &["lambda", "rho_gen", "drift", "stable", "paper", "agree"],
    );
    for (lambda, rho_gen, v) in rows {
        let paper_stable = rho_gen < 1.0;
        t.row(vec![
            f4(lambda),
            f4(rho_gen),
            f4(v.normalized_drift),
            yn(v.stable),
            yn(paper_stable),
            yn(v.stable == paper_stable),
        ]);
    }
    t.note("bottleneck is dimension 0 (always flipped): capacity caps at λ = 1 despite mean distance 1.6 < d/2");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generalised_frontier_matches() {
        let t = run(Scale::Quick);
        let agree = t.col("agree");
        for row in &t.rows {
            assert_eq!(row[agree], "yes", "{row:?}");
        }
        // The frontier must flip within the λ sweep.
        let st = t.col("stable");
        assert_eq!(t.rows.first().unwrap()[st], "yes");
        assert_eq!(t.rows.last().unwrap()[st], "NO");
    }
}
