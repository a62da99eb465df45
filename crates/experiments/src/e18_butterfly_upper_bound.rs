//! E18 — Prop. 17: butterfly greedy delay satisfies
//! `T ≤ dp/(1-λp) + d(1-p)/(1-λ(1-p))`.

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::butterfly_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Butterfly delay vs the Prop. 17 bound across (d, λ, p).
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![3, 5],
        Scale::Full => vec![4, 6, 8],
    };
    let loads = [0.4f64, 0.7, 0.9];
    let horizon = scale.horizon(8_000.0);
    let p = 0.5f64;

    let rows = parallel_map(cartesian(&dims, &loads), 0, |(d, rho_bf)| {
        let lambda = rho_bf / p.max(1.0 - p);
        let r = Scenario::builder(Topology::Butterfly { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE18 ^ (d as u64) << 8 ^ (rho_bf * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, lambda, r.delay.mean)
    });

    let mut t = Table::new(
        format!("E18 Prop.17 — butterfly upper bound (p={p})"),
        &["d", "lambda", "T_meas", "UB", "T/UB", "T<=UB"],
    );
    for (d, lambda, tm) in rows {
        let ub = butterfly_bounds::greedy_upper_bound(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(lambda),
            f4(tm),
            f4(ub),
            f4(tm / ub),
            yn(tm <= ub * 1.03),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn upper_bound_holds() {
        let t = run(Scale::Quick);
        let ok = t.col("T<=UB");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
