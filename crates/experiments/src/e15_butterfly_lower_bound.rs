//! E15 — Prop. 14: the butterfly universal lower bound
//! `T ≥ d + λp²/(2(1-λp)) + λ(1-p)²/(2(1-λ(1-p)))`.

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::butterfly_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Butterfly delay vs the Prop. 14 bound across (d, p).
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![3, 5],
        Scale::Full => vec![4, 8],
    };
    let ps = [0.3f64, 0.5, 0.7];
    let horizon = scale.horizon(8_000.0);
    let rho_bf = 0.7;

    let rows = parallel_map(cartesian(&dims, &ps), 0, |(d, p)| {
        let lambda = rho_bf / p.max(1.0 - p);
        let r = Scenario::builder(Topology::Butterfly { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE15 ^ (d as u64) << 8 ^ (p * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, lambda, p, r.delay.mean)
    });

    let mut t = Table::new(
        format!("E15 Prop.14 — butterfly universal lower bound (rho_bf={rho_bf})"),
        &["d", "lambda", "p", "T_meas", "LB", "T>=LB"],
    );
    for (d, lambda, p, tm) in rows {
        let lb = butterfly_bounds::universal_lower_bound(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(lambda),
            f4(p),
            f4(tm),
            f4(lb),
            yn(tm >= lb * 0.97),
        ]);
    }
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
