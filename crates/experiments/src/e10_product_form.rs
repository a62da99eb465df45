//! E10 — the product form of the PS comparison network Q̄ (\[Wal88\] as used
//! in §3.3): per-server occupancy is geometric(ρ) and
//! `N̄ = d·2^d·ρ/(1-ρ)`.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::equivalent_network::Discipline;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::scenario::EqNetSpec;
use hyperroute_core::{Scenario, Topology};

/// PS-network occupancy distribution vs geometric(ρ), plus the total mean.
pub fn run(scale: Scale) -> Table {
    let d = 3usize;
    let horizon = scale.horizon(30_000.0);
    let p = 0.5;
    let rhos = [0.5, 0.8];

    let runs = parallel_map(rhos.to_vec(), 0, |rho| {
        let lambda = rho / p;
        let report = Scenario::builder(Topology::EqNet {
            net: EqNetSpec::HypercubeQ { dim: d },
            record_departures: false,
            occupancy_cap: 8,
        })
        .lambda(lambda)
        .p(p)
        .discipline(Discipline::Ps)
        .horizon(horizon)
        .warmup(horizon * 0.15)
        .seed(0xE10 ^ (rho * 10.0) as u64)
        .build()
        .expect("valid scenario")
        .run()
        .expect("scenario runs");
        (rho, report)
    });

    let mut t = Table::new(
        format!("E10 product form of Q-bar (d={d}, p={p}) — geometric occupancy"),
        &["rho", "n", "frac_meas", "geometric", "abs_err", "ok"],
    );
    for (rho, r) in runs {
        let occupancy = &r.eqnet().expect("eqnet report").occupancy_fractions;
        let servers = occupancy.len() as f64;
        for n in 0..5usize {
            let avg: f64 = occupancy.iter().map(|f| f[n]).sum::<f64>() / servers;
            let geo = (1.0 - rho) * rho.powi(n as i32);
            let err = (avg - geo).abs();
            t.row(vec![
                f4(rho),
                n.to_string(),
                f4(avg),
                f4(geo),
                f4(err),
                yn(err < 0.02),
            ]);
        }
        // Total-mean row (n column marked "total").
        let expect = d as f64 * 8.0 * rho / (1.0 - rho);
        let err = (r.mean_in_system - expect).abs() / expect;
        t.row(vec![
            f4(rho),
            "total".into(),
            f4(r.mean_in_system),
            f4(expect),
            f4(err),
            yn(err < 0.08),
        ]);
    }
    t.note("'total' rows compare N̄ against d·2^d·ρ/(1-ρ) with relative error");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometric_everywhere() {
        let t = run(Scale::Quick);
        let ok = t.col("ok");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }
}
