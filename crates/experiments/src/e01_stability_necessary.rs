//! E01 — Eq. (2): `ρ = λp < 1` is necessary for stability, and greedy
//! routing achieves it (Prop. 6), so the empirical stability frontier sits
//! exactly at `ρ = 1`.

use crate::sweep::rho_grid_boundary;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::stability::probe_hypercube;
use hyperroute_core::Scheme;

/// Sweep ρ across the stability boundary and report the queue drift.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(8);
    let horizon = scale.horizon(6_000.0);
    let p = 0.5;
    let rows = parallel_map(rho_grid_boundary(), 0, |rho| {
        let lambda = rho / p;
        let v = probe_hypercube(
            d,
            lambda,
            p,
            Scheme::Greedy,
            horizon,
            0xE01 + (rho * 100.0) as u64,
        );
        (rho, lambda, v)
    });

    let mut t = Table::new(
        format!("E01 Eq.(2)/Prop.6 — stability frontier at ρ=1 (d={d}, p={p})"),
        &["rho", "lambda", "drift", "stable", "paper", "agree"],
    );
    for (rho, lambda, v) in rows {
        let paper_stable = rho < 1.0;
        t.row(vec![
            f4(rho),
            f4(lambda),
            f4(v.normalized_drift),
            yn(v.stable),
            yn(paper_stable),
            yn(v.stable == paper_stable),
        ]);
    }
    t.note("drift = queue-growth slope / injection rate; paper predicts stable ⇔ ρ < 1");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_matches_paper() {
        let t = run(Scale::Quick);
        let agree = t.col("agree");
        for (i, row) in t.rows.iter().enumerate() {
            assert_eq!(row[agree], "yes", "row {i}: {row:?}");
        }
    }
}
