//! E22 — contention-rule ablation: the paper fixes FIFO priority ("the one
//! that arrived first"). Because all three candidate rules are
//! non-preemptive and work-conserving and ignore service times, the *mean*
//! delay is insensitive to the choice — but the delay distribution is not:
//! LIFO fattens the tail dramatically. FIFO is thus the right default for
//! a delay-bound guarantee, and the paper's mean-delay results are robust
//! to the rule.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::config::ContentionPolicy;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::{Scenario, Topology};

/// Mean and tail delay for each contention policy at moderate/high load.
pub fn run(scale: Scale) -> Table {
    let d = scale.dim(8);
    let horizon = scale.horizon(10_000.0);
    let p = 0.5;
    let policies = [
        ContentionPolicy::Fifo,
        ContentionPolicy::Lifo,
        ContentionPolicy::Random,
    ];
    let rhos = [0.6, 0.85];

    let cases: Vec<(ContentionPolicy, f64)> = policies
        .iter()
        .flat_map(|&c| rhos.iter().map(move |&r| (c, r)))
        .collect();

    let rows = parallel_map(cases, 0, |(contention, rho)| {
        let report = Scenario::builder(Topology::Hypercube { dim: d })
            .lambda(rho / p)
            .p(p)
            .contention(contention)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE22 ^ (rho * 100.0) as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (contention, rho, report)
    });

    // FIFO means per rho for the comparison column.
    let fifo_means: Vec<(f64, f64)> = rows
        .iter()
        .filter(|(c, _, _)| *c == ContentionPolicy::Fifo)
        .map(|(_, rho, r)| (*rho, r.delay.mean))
        .collect();

    let mut t = Table::new(
        format!("E22 ablation — contention rules (d={d}, p={p})"),
        &[
            "policy", "rho", "T_mean", "T/T_fifo", "p50", "p99", "mean_ok",
        ],
    );
    for (contention, rho, r) in rows {
        let fifo_mean = fifo_means
            .iter()
            .find(|(fr, _)| *fr == rho)
            .map(|(_, m)| *m)
            .expect("fifo baseline present");
        let ratio = r.delay.mean / fifo_mean;
        t.row(vec![
            contention.to_string(),
            f4(rho),
            f4(r.delay.mean),
            f4(ratio),
            f4(r.delay.p50),
            f4(r.delay.p99),
            yn((ratio - 1.0).abs() < 0.08),
        ]);
    }
    t.note("work conservation keeps means aligned; compare the p99 spread (LIFO ≫ FIFO)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn means_insensitive_tails_not() {
        let t = run(Scale::Quick);
        let ok = t.col("mean_ok");
        for row in &t.rows {
            assert_eq!(row[ok], "yes", "{row:?}");
        }
        // LIFO p99 above FIFO p99 at the higher load.
        let (pol, rho, p99) = (t.col("policy"), t.col("rho"), t.col("p99"));
        let find = |name: &str| {
            t.rows
                .iter()
                .find(|r| r[pol] == name && r[rho] == "0.8500")
                .map(|r| r[p99].parse::<f64>().unwrap())
                .expect("row present")
        };
        assert!(
            find("lifo") > find("fifo") * 1.3,
            "LIFO tail not fatter: {} vs {}",
            find("lifo"),
            find("fifo")
        );
    }
}
