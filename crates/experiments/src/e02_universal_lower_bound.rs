//! E02 — Prop. 2: the universal delay lower bound
//! `T ≥ max{dp, p·D(2^d; ρ)}` holds for the measured greedy delay (it must
//! — it holds for *any* scheme).
//!
//! Both forms are reported: the provably valid workload bound and the
//! paper-printed heavy-traffic form (see `hyperroute_queueing::mds`).

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Measure T across (d, ρ) and compare with Prop. 2.
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![3, 5],
        Scale::Full => vec![4, 6, 8],
    };
    let rhos = [0.3, 0.6, 0.9];
    let horizon = scale.horizon(8_000.0);
    let p = 0.5;

    let rows = parallel_map(cartesian(&dims, &rhos), 0, |(d, rho)| {
        let lambda = rho / p;
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE02 ^ (d as u64) << 8 ^ (rho * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, rho, r.delay.mean, r.delay.ci95)
    });

    let mut t = Table::new(
        format!("E02 Prop.2 — universal lower bound (p={p})"),
        &[
            "d", "rho", "T_meas", "ci95", "LB_valid", "LB_paper", "T>=LB",
        ],
    );
    for (d, rho, tm, ci) in rows {
        let lambda = rho / p;
        let lb = hypercube_bounds::universal_lower_bound(d, lambda, p);
        let lbp = hypercube_bounds::universal_lower_bound_paper_form(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(tm),
            f4(ci),
            f4(lb),
            f4(lbp),
            yn(tm >= lb * 0.97),
        ]);
    }
    t.note(
        "LB_valid: workload-derived bound (provable); LB_paper: printed form, exact only as ρ→1",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bound_never_violated() {
        let t = run(Scale::Quick);
        let ok = t.col("T>=LB");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
