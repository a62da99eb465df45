//! E12 — §2.3: the non-greedy pipelined Valiant–Brebner scheme is stable
//! only while `λ·R·d < 1`, so at a fixed load factor it collapses as `d`
//! grows — while greedy routing sails on. This is the paper's motivation
//! for studying the non-idling scheme.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::stability::probe_hypercube;
use hyperroute_core::{Scenario, Scheme, Topology};

/// Fixed ρ = 0.1, growing d: greedy vs pipelined stability.
pub fn run(scale: Scale) -> Table {
    let dims: Vec<usize> = match scale {
        Scale::Quick => vec![2, 3, 5, 6],
        Scale::Full => vec![2, 3, 4, 5, 6, 7, 8],
    };
    let rounds = match scale {
        Scale::Quick => 200,
        Scale::Full => 600,
    };
    let horizon = scale.horizon(4_000.0);
    let (rho, p) = (0.1, 0.5);
    let lambda = rho / p; // 0.2 per node

    let rows = parallel_map(dims, 0, |d| {
        let greedy = probe_hypercube(d, lambda, p, Scheme::Greedy, horizon, 0xE12 ^ d as u64);
        let pipe = Scenario::builder(Topology::Pipelined { dim: d, rounds })
            .lambda(lambda)
            .p(p)
            .seed(0xE12 ^ d as u64)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs");
        (d, greedy, pipe)
    });

    let mut t = Table::new(
        format!("E12 §2.3 — pipelined VaB vs greedy at fixed rho={rho} (lambda={lambda})"),
        &[
            "d",
            "greedy_stable",
            "R_hat",
            "lambda_R_d",
            "pipe_backlog_slope",
            "pipe_stable",
            "theory_pipe_stable",
        ],
    );
    for (d, greedy, pipe) in rows {
        let ext = pipe.pipelined().expect("pipelined report");
        let lrd = lambda * ext.mean_round_length;
        let per_round_input = lambda * (1usize << d) as f64 * ext.mean_round_length;
        let pipe_stable = !ext.looks_unstable(per_round_input);
        t.row(vec![
            d.to_string(),
            yn(greedy.stable),
            f4(ext.round_constant),
            f4(lrd),
            f4(ext.backlog_slope_per_round),
            yn(pipe_stable),
            yn(lrd < 1.0),
        ]);
    }
    t.note("theory: pipeline stable iff λ·R·d < 1 (each node is M/G/1 with service ≈ R·d)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn greedy_always_stable_pipeline_collapses() {
        let t = run(Scale::Quick);
        let (gs, ps) = (t.col("greedy_stable"), t.col("pipe_stable"));
        for row in &t.rows {
            assert_eq!(row[gs], "yes", "greedy unstable?! {row:?}");
        }
        // Smallest d: pipeline still fine; largest: swamped.
        assert_eq!(t.rows.first().unwrap()[ps], "yes");
        assert_eq!(t.rows.last().unwrap()[ps], "NO");
    }
}
