//! E17 — Prop. 16 / Eq. (17): the butterfly is stable iff
//! `λ·max{p, 1-p} < 1`. At fixed λ this carves a stability *window* around
//! `p = 1/2`: vertical arcs bottleneck for large `p`, straight arcs for
//! small `p` — the crossover the paper points out below Eq. (17).

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::stability::probe_butterfly;

/// Sweep p at fixed λ across the stability window.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(6);
    let horizon = scale.horizon(6_000.0);
    let lambda = 1.8;
    let ps = vec![0.2, 0.35, 0.45, 0.5, 0.55, 0.65, 0.8];

    let rows = parallel_map(ps, 0, |p| {
        let v = probe_butterfly(d, lambda, p, horizon, 0xE17 ^ (p * 100.0) as u64);
        (p, v)
    });

    let mut t = Table::new(
        format!("E17 Prop.16 — butterfly stability window around p=1/2 (d={d}, lambda={lambda})"),
        &[
            "p",
            "rho_bf",
            "bottleneck",
            "drift",
            "stable",
            "paper",
            "agree",
        ],
    );
    for (p, v) in rows {
        let rho = lambda * p.max(1.0 - p);
        let paper_stable = rho < 1.0;
        let bottleneck = if p > 0.5 {
            "vertical"
        } else if p < 0.5 {
            "straight"
        } else {
            "balanced"
        };
        t.row(vec![
            f4(p),
            f4(rho),
            bottleneck.into(),
            f4(v.normalized_drift),
            yn(v.stable),
            yn(paper_stable),
            yn(v.stable == paper_stable),
        ]);
    }
    t.note("stable window: p ∈ (1 - 1/λ, 1/λ) = (0.444, 0.556) at λ = 1.8");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_matches_paper() {
        let t = run(Scale::Quick);
        let agree = t.col("agree");
        for row in &t.rows {
            assert_eq!(row[agree], "yes", "{row:?}");
        }
    }
}
