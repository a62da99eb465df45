//! E19 — scheme ablation (§5 discussion + a design-choice ablation):
//! increasing dimension order vs per-hop random order vs
//! two-phase Valiant "mixing".
//!
//! Findings the table demonstrates:
//! * random order behaves like greedy in delay (the *levelled* structure is
//!   a proof device, not a performance requirement);
//! * Valiant mixing costs ~2× delay at low traffic **and halves the
//!   sustainable load** (effective per-arc rate `λ(1/2 + p)`), the trade-off
//!   §5 predicts.

use crate::runner::parallel_map;
use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::stability::probe_hypercube;
use hyperroute_core::{Scenario, Scheme, Topology};

/// Delay and stability of the three schemes across loads.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(8);
    let horizon = scale.horizon(6_000.0);
    let p = 0.5;
    let schemes = [Scheme::Greedy, Scheme::RandomOrder, Scheme::TwoPhaseValiant];
    let rhos = [0.3, 0.45, 0.8];

    let cases: Vec<(Scheme, f64)> = schemes
        .iter()
        .flat_map(|&s| rhos.iter().map(move |&r| (s, r)))
        .collect();

    let rows = parallel_map(cases, 0, |(scheme, rho)| {
        let lambda = rho / p;
        // Effective per-arc utilisation: ρ for the shortest-path schemes,
        // λ(1/2 + p) for Valiant's two legs.
        let eff = match scheme {
            Scheme::TwoPhaseValiant => lambda * (0.5 + p),
            _ => rho,
        };
        if eff >= 0.98 {
            // Don't run a full measurement on a saturated system; probe it.
            let v = probe_hypercube(d, lambda, p, scheme, horizon / 2.0, 0xE19);
            return (scheme, rho, eff, None, v.stable);
        }
        let r = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .scheme(scheme)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE19 ^ (rho * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (scheme, rho, eff, Some(r.delay.mean), true)
    });

    let mut t = Table::new(
        format!("E19 ablation — dimension order & Valiant mixing (d={d}, p={p})"),
        &["scheme", "rho", "eff_arc_load", "T_meas", "stable"],
    );
    for (scheme, rho, eff, tm, stable) in rows {
        t.row(vec![
            scheme.to_string(),
            f4(rho),
            f4(eff),
            tm.map_or("unstable".into(), f4),
            yn(stable),
        ]);
    }
    t.note("Valiant mixing halves the stability region (eff. load λ(1/2+p)) — the §5 trade-off");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_of_ablation() {
        let t = run(Scale::Quick);
        let (sc, rc, tc, st) = (
            t.col("scheme"),
            t.col("rho"),
            t.col("T_meas"),
            t.col("stable"),
        );
        // Greedy and random-order stable at every load; Valiant unstable at
        // ρ = 0.8 (effective load 1.6).
        let mut greedy_low = None;
        let mut valiant_low = None;
        for row in &t.rows {
            match (row[sc].as_str(), row[rc].as_str()) {
                ("greedy", _) | ("random-order", _) => assert_eq!(row[st], "yes", "{row:?}"),
                ("two-phase-valiant", "0.8000") => {
                    assert_eq!(row[tc], "unstable", "{row:?}")
                }
                _ => {}
            }
            if row[sc] == "greedy" && row[rc] == "0.3000" {
                greedy_low = Some(row[tc].parse::<f64>().unwrap());
            }
            if row[sc] == "two-phase-valiant" && row[rc] == "0.3000" {
                valiant_low = Some(row[tc].parse::<f64>().unwrap());
            }
        }
        // Mixing costs roughly double delay at low load.
        let (g, v) = (greedy_low.unwrap(), valiant_low.unwrap());
        assert!(v > 1.5 * g, "valiant {v} vs greedy {g}");
    }
}
