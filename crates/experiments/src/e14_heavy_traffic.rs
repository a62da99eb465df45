//! E14 — heavy traffic (§3.3 end): for fixed `d`, the scaled delay
//! `(1-ρ)·T` stays within the `[p/2, dp]` bracket as `ρ → 1`.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::heavy_traffic;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Scaled-delay measurements approaching the boundary.
pub fn run(scale: Scale) -> Table {
    let d = match scale {
        Scale::Quick => 4,
        Scale::Full => 8,
    };
    let p = 0.5;
    let rhos: Vec<f64> = match scale {
        Scale::Quick => vec![0.9, 0.95],
        Scale::Full => vec![0.9, 0.95, 0.98, 0.99],
    };
    let (lo, hi) = heavy_traffic::hypercube_bracket(d, p);

    let rows = parallel_map(rhos, 0, |rho| {
        // Mixing time scales like 1/(1-ρ)²; stretch the horizon with it.
        let horizon = (scale.horizon(10_000.0) / (1.0 - rho)).min(300_000.0);
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(rho / p)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.3)
            .seed(0xE14 ^ (rho * 1000.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (rho, r.delay.mean)
    });

    let mut t = Table::new(
        format!(
            "E14 heavy traffic — (1-rho)*T within [p/2, dp] = [{}, {}] (d={d})",
            f4(lo),
            f4(hi)
        ),
        &["rho", "T_meas", "scaled", "in_bracket"],
    );
    for (rho, tm) in rows {
        let scaled = heavy_traffic::scaled_delay(rho, tm);
        t.row(vec![
            f4(rho),
            f4(tm),
            f4(scaled),
            yn(scaled >= lo * 0.9 && scaled <= hi * 1.05),
        ]);
    }
    t.note("paper conjectures the dp end tight for p∈(0,1); the gap is its stated open question");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaled_delay_in_bracket() {
        let t = run(Scale::Quick);
        let ok = t.col("in_bracket");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
