//! E23 — inside the Prop. 13 proof: per-dimension queue occupancy.
//!
//! Eq. (16): dimension-0 arcs are *exactly* M/D/1, so their mean occupancy
//! is `ρ + ρ²/(2(1-ρ))`. Eq. (15): every dimension holds at least `ρ`
//! (each packet spends one service time per arc). The product-form
//! comparison network caps all of them at `ρ/(1-ρ)`.
//!
//! The table also records a finding the paper's conjecture discussion
//! (§3.3 end) invites: measured occupancy *decreases* with the dimension
//! index — deterministic unit service smooths traffic, so deeper
//! dimensions see streams more regular than Poisson. This is exactly why
//! the PS/product-form bound (geometric occupancy at *every* server) is
//! loose in the bulk.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};
use hyperroute_queueing::md1;

/// Per-dimension mean occupancy vs the Prop. 13 proof quantities.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(8);
    let horizon = scale.horizon(12_000.0);
    let p = 0.5;
    let rhos = [0.5, 0.8];

    let runs = parallel_map(rhos.to_vec(), 0, |rho| {
        let report = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(rho / p)
            .p(p)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE23 ^ (rho * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (rho, report)
    });

    let mut t = Table::new(
        format!("E23 Prop.13 internals — per-dimension arc occupancy (d={d}, p={p})"),
        &[
            "rho",
            "dim",
            "N_meas",
            "md1_exact",
            ">=rho",
            "<=pf_cap",
            "ok",
        ],
    );
    for (rho, r) in runs {
        let md1_exact = md1::mean_number_in_system(rho);
        let pf_cap = rho / (1.0 - rho);
        let ext = r.hypercube().expect("hypercube report");
        for (dim, &n) in ext.per_dim_mean_queue.iter().enumerate() {
            let md1_cell = if dim == 0 {
                f4(md1_exact)
            } else {
                "-".to_string()
            };
            let ok = if dim == 0 {
                (n - md1_exact).abs() < 0.04 * (1.0 + md1_exact)
            } else {
                n >= rho * 0.95 && n <= pf_cap * 1.05
            };
            t.row(vec![
                f4(rho),
                dim.to_string(),
                f4(n),
                md1_cell,
                yn(n >= rho * 0.95),
                yn(n <= pf_cap * 1.05),
                yn(ok),
            ]);
        }
    }
    t.note("dim 0 is exactly M/D/1 (Eq. 16); occupancy decreases with dim: deterministic service smooths traffic");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proof_quantities_hold() {
        let t = run(Scale::Quick);
        let ok = t.col("ok");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }

    #[test]
    fn smoothing_effect_visible() {
        // Last dimension's occupancy below dimension 0's (strictly, at
        // moderate load and after smoothing accumulates over d-1 stages).
        let t = run(Scale::Quick);
        let (dim_col, n_col, rho_col) = (t.col("dim"), t.col("N_meas"), t.col("rho"));
        let rho0 = t.rows[0][rho_col].clone();
        let first: f64 = t.rows[0][n_col].parse().unwrap();
        let last: f64 = t.rows.iter().rfind(|r| r[rho_col] == rho0).unwrap()[n_col]
            .parse()
            .unwrap();
        assert!(
            last <= first,
            "no smoothing: dim0 {first} vs last dim {last} (dim col {dim_col})"
        );
    }
}
