//! E05 — Prop. 6: greedy routing is stable for **every** `ρ < 1`; queues
//! stay bounded even at ρ = 0.95–0.98, and the mean backlog respects the
//! product-form comparison `N ≤ d·2^d·ρ/(1-ρ)` (Eq. (13)).

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::stability::probe_hypercube;
use hyperroute_core::Scheme;

/// High-load stability probes plus backlog-vs-bound comparison.
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![4, 5],
        Scale::Full => vec![6, 8, 10],
    };
    let rhos = match scale {
        Scale::Quick => vec![0.9, 0.95],
        Scale::Full => vec![0.9, 0.95, 0.98],
    };
    let horizon = scale.horizon(20_000.0);
    let p = 0.5;

    let rows = parallel_map(cartesian(&dims, &rhos), 0, |(d, rho)| {
        let lambda = rho / p;
        let v = probe_hypercube(d, lambda, p, Scheme::Greedy, horizon, 0xE05 ^ d as u64);
        let bound = hypercube_bounds::product_form_mean_total(d, lambda, p);
        (d, rho, v, bound)
    });

    let mut t = Table::new(
        "E05 Prop.6 — greedy is stable throughout ρ < 1 (N vs Eq.(13) bound)",
        &[
            "d", "rho", "drift", "stable", "N_mean", "N_bound", "N<=bound",
        ],
    );
    for (d, rho, v, bound) in rows {
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(v.normalized_drift),
            yn(v.stable),
            f4(v.mean_in_system),
            f4(bound),
            yn(v.mean_in_system <= bound * 1.1),
        ]);
    }
    t.note("N_bound = d·2^d·ρ/(1-ρ), the product-form network mean (Prop. 11/12 machinery)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stable_and_bounded_everywhere() {
        let t = run(Scale::Quick);
        let (st, nb) = (t.col("stable"), t.col("N<=bound"));
        for row in &t.rows {
            assert_eq!(row[st], "yes", "{row:?}");
            assert_eq!(row[nb], "yes", "{row:?}");
        }
    }
}
