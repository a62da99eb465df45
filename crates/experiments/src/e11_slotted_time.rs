//! E11 — §3.4 slotted time: with slot length `r` and per-slot Poisson
//! batches the delay satisfies `T_slot ≤ dp/(1-ρ) + r`.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_analysis::hypercube_bounds;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{ArrivalModel, Scenario, Topology};

/// Slotted-vs-continuous comparison across slot lengths.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(6);
    let horizon = scale.horizon(10_000.0);
    let (lambda, p) = (1.4, 0.5); // ρ = 0.7
    let cases: Vec<Option<u32>> = vec![None, Some(1), Some(2), Some(4)];

    let rows = parallel_map(cases, 0, |slots| {
        let report = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(lambda)
            .p(p)
            .arrivals(match slots {
                None => ArrivalModel::Poisson,
                Some(m) => ArrivalModel::Slotted { slots_per_unit: m },
            })
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE11 ^ slots.unwrap_or(0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (slots, report)
    });

    let mut t = Table::new(
        format!("E11 §3.4 — slotted time: T <= dp/(1-rho) + r (d={d}, rho=0.7)"),
        &["model", "r", "T_meas", "bound", "T<=bound"],
    );
    for (slots, r) in rows {
        let (name, slot_len, bound) = match slots {
            None => (
                "continuous".to_string(),
                0.0,
                hypercube_bounds::greedy_upper_bound(d, lambda, p),
            ),
            Some(m) => {
                let sl = 1.0 / m as f64;
                (
                    format!("slotted 1/{m}"),
                    sl,
                    hypercube_bounds::slotted_upper_bound(d, lambda, p, sl),
                )
            }
        };
        t.row(vec![
            name,
            f4(slot_len),
            f4(r.delay.mean),
            f4(bound),
            yn(r.delay.mean <= bound * 1.03),
        ]);
    }
    t.note("batch arrivals make slotted delay slightly above continuous; the +r covers it");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slotted_bound_holds() {
        let t = run(Scale::Quick);
        let ok = t.col("T<=bound");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
    }

    #[test]
    fn coarser_slots_no_faster_than_continuous() {
        let t = run(Scale::Quick);
        let tm = t.col("T_meas");
        let continuous = t.cell_f64(0, tm);
        let slotted_full = t.cell_f64(1, tm); // r = 1
        assert!(
            slotted_full >= continuous * 0.98,
            "slotted r=1 ({slotted_full}) unexpectedly beats continuous ({continuous})"
        );
    }
}
