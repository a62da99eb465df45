//! E07 — Prop. 13: greedy delay satisfies `T ≥ dp + pρ/(2(1-ρ))`.

use crate::sweep::{cartesian, rho_grid_standard};
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Delay sweep against the Prop. 13 lower bound.
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![3, 5],
        Scale::Full => vec![4, 6, 8, 10],
    };
    let rhos = rho_grid_standard();
    let horizon = scale.horizon(10_000.0);
    let p = 0.5;

    let rows = parallel_map(cartesian(&dims, &rhos), 0, |(d, rho)| {
        let lambda = rho / p;
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE07 ^ (d as u64) << 8 ^ (rho * 1000.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, rho, r.delay.mean)
    });

    let mut t = Table::new(
        format!("E07 Prop.13 — T >= dp + p*rho/(2(1-rho)) (p={p})"),
        &["d", "rho", "T_meas", "LB", "T/LB", "T>=LB"],
    );
    for (d, rho, tm) in rows {
        let lambda = rho / p;
        let lb = hypercube_bounds::greedy_lower_bound(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(tm),
            f4(lb),
            f4(tm / lb),
            yn(tm >= lb * 0.97),
        ]);
    }
    t.note("tight at p=1 (disjoint paths); sharper than Prop. 3 by at most a factor 2");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lower_bound_holds_everywhere() {
        let t = run(Scale::Quick);
        let ok = t.col("T>=LB");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
