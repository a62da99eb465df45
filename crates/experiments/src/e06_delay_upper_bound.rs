//! E06 — Prop. 12 (the headline result): greedy delay satisfies
//! `T ≤ dp/(1-ρ)`: O(d) at fixed load, `1/(1-ρ)` blow-up at fixed d.

use crate::sweep::{cartesian, rho_grid_standard};
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// The main delay-vs-load sweep.
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
            .seed(0xE06 ^ (d as u64) << 8 ^ (rho * 1000.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, rho, r.delay.mean, r.delay.ci95)
    });

    let mut t = Table::new(
        format!("E06 Prop.12 — T <= dp/(1-rho) (p={p})"),
        &["d", "rho", "T_meas", "ci95", "UB", "T/UB", "T<=UB"],
    );
    for (d, rho, tm, ci) in rows {
        let lambda = rho / p;
        let ub = hypercube_bounds::greedy_upper_bound(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(tm),
            f4(ci),
            f4(ub),
            f4(tm / ub),
            yn(tm <= ub * 1.03),
        ]);
    }
    t.note("the paper conjectures the bound tight up to a d-independent factor for p∈(0,1)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_holds_everywhere() {
        let t = run(Scale::Quick);
        let ok = t.col("T<=UB");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }

    #[test]
    fn delay_grows_with_load_at_fixed_d() {
        let t = run(Scale::Quick);
        let (dcol, tcol) = (t.col("d"), t.col("T_meas"));
        // Rows for the first d come first (cartesian order); T must be
        // increasing in ρ.
        let d0 = t.rows[0][dcol].clone();
        let series: Vec<f64> = t
            .rows
            .iter()
            .filter(|r| r[dcol] == d0)
            .map(|r| r[tcol].parse::<f64>().unwrap())
            .collect();
        assert!(series.windows(2).all(|w| w[1] > w[0] * 0.99), "{series:?}");
    }
}
