//! E03 — Prop. 3: the sharper lower bound for oblivious schemes
//! `T ≥ max{dp, p(1 + ρ/(2(1-ρ)))}`. Greedy routing is oblivious, so its
//! measured delay must respect it.

use crate::sweep::cartesian;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Measure T across (d, ρ) and compare with Prop. 3.
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
            .seed(0xE03 ^ (d as u64) << 8 ^ (rho * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, rho, r.delay.mean)
    });

    let mut t = Table::new(
        format!("E03 Prop.3 — oblivious lower bound (p={p})"),
        &["d", "rho", "T_meas", "LB_oblivious", "LB/T", "T>=LB"],
    );
    for (d, rho, tm) in rows {
        let lambda = rho / p;
        let lb = hypercube_bounds::oblivious_lower_bound(d, lambda, p);
        t.row(vec![
            d.to_string(),
            f4(rho),
            f4(tm),
            f4(lb),
            f4(lb / tm),
            yn(tm >= lb * 0.97),
        ]);
    }
    t.note("greedy is oblivious and time-independent, so Prop. 3 applies to it");
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
