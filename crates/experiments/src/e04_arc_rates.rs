//! E04 — Prop. 5: under greedy routing every hypercube arc carries total
//! arrival rate exactly `ρ = λp`, uniformly across dimensions — even though
//! the *external* rates `λp(1-p)^i` are wildly asymmetric.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Measure per-dimension per-arc arrival rates for symmetric and skewed p.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(8);
    let horizon = scale.horizon(8_000.0);
    let cases = vec![(1.2f64, 0.5f64), (1.0, 0.3)];

    let reports = parallel_map(cases, 0, |(lambda, p)| {
        let report = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE04 ^ (p * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (lambda, p, report)
    });

    let mut t = Table::new(
        format!("E04 Prop.5 — per-arc arrival rate equals ρ in every dimension (d={d})"),
        &["lambda", "p", "dim", "rate_meas", "rho", "rel_err", "ok"],
    );
    for (lambda, p, r) in reports {
        let rho = lambda * p;
        let ext = r.hypercube().expect("hypercube report");
        for (dim, &rate) in ext.per_dim_arc_rate.iter().enumerate() {
            let rel = (rate - rho).abs() / rho;
            t.row(vec![
                f4(lambda),
                f4(p),
                dim.to_string(),
                f4(rate),
                f4(rho),
                f4(rel),
                yn(rel < 0.05),
            ]);
        }
    }
    t.note("external rates differ by (1-p)^i per dimension; internal traffic equalises them to ρ");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_dimensions_at_rho() {
        let t = run(Scale::Quick);
        let ok = t.col("ok");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
