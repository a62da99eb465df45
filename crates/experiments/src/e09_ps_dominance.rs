//! E09 — Lemmas 9/10 and Prop. 11: on coupled sample paths, switching every
//! server of a levelled network from FIFO to PS only delays the departure
//! process (`B(t) ≥ B̄(t)` for all `t`) and hence inflates the number in
//! system. Checked on the Fig. 2 network and on equivalent networks `Q` of
//! small hypercubes.

use crate::table::{f4, yn, Table};
use crate::Scale;
use hyperroute_core::equivalent_network::Discipline;
use hyperroute_core::runner::parallel_map;
use hyperroute_core::scenario::EqNetSpec;
use hyperroute_core::{Scenario, Topology};
use hyperroute_queueing::sample_path::counting_dominates;

/// Run coupled FIFO/PS pairs and verify dominance.
pub fn run(scale: Scale) -> Table {
    let horizon = scale.horizon(3_000.0);
    let seeds: Vec<u64> = match scale {
        Scale::Quick => vec![1, 2, 3],
        Scale::Full => vec![1, 2, 3, 4, 5, 6, 7, 8],
    };

    // (name, network) cases: Fig. 2 plus Q(d) for small d.
    let mut cases: Vec<(String, EqNetSpec)> = vec![(
        "fig2(G)".into(),
        EqNetSpec::Fig2 {
            rate1: 0.5,
            rate2: 0.5,
            rate3: 0.3,
            q1: 0.6,
            q2: 0.6,
        },
    )];
    for d in 2..=3usize {
        cases.push((format!("Q(d={d})"), EqNetSpec::HypercubeQ { dim: d }));
    }

    let jobs: Vec<(String, EqNetSpec, u64)> = cases
        .into_iter()
        .flat_map(|(name, net)| {
            seeds
                .iter()
                .map(move |&s| (name.clone(), net.clone(), s))
                .collect::<Vec<_>>()
        })
        .collect();

    let rows = parallel_map(jobs, 0, |(name, net, seed)| {
        let mk = |discipline| {
            Scenario::builder(Topology::EqNet {
                net: net.clone(),
                record_departures: true,
                occupancy_cap: 0,
            })
            .lambda(1.2)
            .p(0.5)
            .discipline(discipline)
            .horizon(horizon)
            .warmup(horizon * 0.2)
            .seed(0xE09 ^ seed)
            .build()
            .expect("valid scenario")
            .run()
            .expect("scenario runs")
        };
        let fifo = mk(Discipline::Fifo);
        let ps = mk(Discipline::Ps);
        let dominates = counting_dominates(
            &fifo.eqnet().expect("eqnet report").departures,
            &ps.eqnet().expect("eqnet report").departures,
            1e-7,
        );
        (
            name,
            seed,
            fifo.delivered,
            dominates,
            fifo.mean_in_system,
            ps.mean_in_system,
        )
    });

    let mut t = Table::new(
        "E09 Lem.9/10, Prop.11 — coupled FIFO/PS dominance on levelled networks",
        &[
            "network",
            "seed",
            "departures",
            "B>=B_ps",
            "N_fifo",
            "N_ps",
            "N<=N_ps",
        ],
    );
    for (name, seed, deps, dom, nf, np) in rows {
        t.row(vec![
            name,
            seed.to_string(),
            deps.to_string(),
            yn(dom),
            f4(nf),
            f4(np),
            yn(nf <= np * 1.05),
        ]);
    }
    t.note("coupling: identical per-server arrival streams and positional routing decisions");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dominance_on_every_sample_path() {
        let t = run(Scale::Quick);
        let (b, n) = (t.col("B>=B_ps"), t.col("N<=N_ps"));
        for row in &t.rows {
            assert_eq!(row[b], "yes", "{row:?}");
            assert_eq!(row[n], "yes", "{row:?}");
        }
    }
}
