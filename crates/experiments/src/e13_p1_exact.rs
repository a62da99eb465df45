//! E13 — §3.3 end: for `p = 1` canonical paths from different origins are
//! arc-disjoint and the delay is exactly `T = d + ρ/(2(1-ρ))` — the one
//! point where the Prop. 13 lower bound is tight.

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Compare measured delay against the exact closed form at p = 1.
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![3, 5],
        Scale::Full => vec![4, 8],
    };
    let rhos = [0.5, 0.8];
    let horizon = scale.horizon(12_000.0);

    let rows = parallel_map(cartesian(&dims, &rhos), 0, |(d, rho)| {
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(rho) // p = 1 ⇒ ρ = λ
            .p(1.0)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE13 ^ (d as u64) << 8 ^ (rho * 10.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, rho, r.delay.mean)
    });

    let mut t = Table::new(
        "E13 §3.3 — p=1 exact delay T = d + rho/(2(1-rho))",
        &["d", "rho", "T_meas", "T_exact", "rel_err", "ok"],
    );
    for (d, rho, tm) in rows {
        let exact = hypercube_bounds::p_one_exact_delay(d, rho);
        let err = (tm - exact).abs() / exact;
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(tm),
            f4(exact),
            f4(err),
            yn(err < 0.03),
        ]);
    }
    t.note("disjoint paths: only the first arc queues (M/D/1); downstream arcs never do");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_formula_matches() {
        let t = run(Scale::Quick);
        let ok = t.col("ok");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
