//! E27 — beyond the paper: multipath and retry routing make faults
//! survivable on unique-path topologies.
//!
//! E26 showed the detour fallback's limit: it only helps where the
//! topology offers a *same-kind* arc with strict shortest-path progress,
//! so the degree-2 de Bruijn graph and the unique-path butterfly get
//! almost nothing from it. This experiment re-runs E26's
//! delivery-vs-fault-fraction curves under the ranked-alternate
//! fallbacks of the multipath contract (`RoutingTopology::alternate_arcs`):
//!
//! * **Multipath** consults the topology's ranked alternate arcs —
//!   including deliberately-regressing ones like the de Bruijn sibling
//!   shift or the butterfly's fresh-pass back-route — before dropping.
//! * **Retry { budget }** pays for recoveries out of a per-packet
//!   deflection budget carried in the packet's spare header bytes.
//!
//! The headline: on the topologies where detour ≈ drop (de Bruijn) or is
//! rejected outright (butterfly — unique paths have no same-kind
//! alternative), the alternate-arc fallbacks recover most encounters
//! with dead arcs, at the price of a bounded number of extra hops.

use crate::table::{f4, Table};
use crate::Scale;
use hyperroute_core::config::{FaultFallback, FaultMode, FaultSpec};
use hyperroute_core::engine::{Engine, EngineCfg};
use hyperroute_core::graph_sim::{graph_ext, GraphDestination, GraphSpec};
use hyperroute_core::{NullObserver, Report, Scenario, Topology};
use hyperroute_topology::Butterfly;

/// The fallbacks E27 compares, with table labels.
fn fallbacks_for(topology: &Topology) -> Vec<(&'static str, FaultFallback)> {
    let mut out = vec![
        ("drop", FaultFallback::Drop),
        ("retry8", FaultFallback::Retry { budget: 8 }),
        ("multipath", FaultFallback::Multipath),
    ];
    // The butterfly rejects Detour (greedy paths are unique, so there is
    // never a same-kind arc with progress); everywhere else it is the
    // E26 baseline the new fallbacks must beat.
    if !matches!(topology, Topology::Butterfly { .. }) {
        out.insert(1, ("detour", FaultFallback::Detour));
    }
    // The expander routes greedily on the circular node-id metric, which
    // stalls at metric local minima even fault-free — exactly what the
    // GOAFR-style escape walk recovers and the ranked-alternate
    // fallbacks cannot (there is no strictly-improving alternate at a
    // local minimum).
    if matches!(topology, Topology::Expander { .. }) {
        out.push(("escape16", FaultFallback::Escape { ttl: 16 }));
    }
    out
}

/// The butterfly's drop baseline: validate the scenario with `Multipath`
/// (the user-facing way to run a faulty butterfly), then swap the
/// fallback to `Drop` and drive the graph engine directly. Identical
/// seeds, mask, and workload — only the dead-greedy-arc policy differs.
fn butterfly_counterfactual(
    build: impl Fn(FaultSpec) -> Scenario,
    spec: FaultSpec,
    dim: usize,
) -> Report {
    let mut s = build(FaultSpec {
        fallback: FaultFallback::Multipath,
        ..spec.clone()
    });
    s.workload.faults = Some(spec);
    let dest = GraphDestination::RowFlip {
        dim,
        p: s.workload.p,
    };
    Engine::new(
        GraphSpec::new(Butterfly::new(dim), dest, &s, graph_ext),
        EngineCfg::new(&s),
    )
    .run(&mut NullObserver)
}

/// Delivery rate vs dead-arc fraction, per topology × fallback, over the
/// four multipath-capable topologies.
pub fn run(scale: Scale) -> Table {
    let fractions: Vec<f64> = match scale {
        Scale::Quick => vec![0.0, 0.1, 0.25],
        Scale::Full => vec![0.0, 0.05, 0.1, 0.2, 0.3],
    };
    let horizon = scale.horizon(4_000.0);
    let topologies: Vec<(&str, Topology, f64)> = vec![
        ("hypercube", Topology::Hypercube { dim: 4 }, 0.8),
        ("debruijn", Topology::DeBruijn { dim: 6 }, 0.12),
        ("butterfly", Topology::Butterfly { dim: 4 }, 0.3),
        ("fattree", Topology::FatTree { levels: 4 }, 0.25),
        (
            "expander",
            Topology::Expander {
                nodes: 512,
                degree: 4,
                seed: 0xE27,
            },
            0.05,
        ),
    ];

    let mut t = Table::new(
        "E27 (beyond the paper) — delivery rate vs arc-fault fraction under \
         multipath/retry fallbacks",
        &[
            "topology",
            "fault_frac",
            "dead_arcs",
            "fallback",
            "delivered_frac",
            "dropped",
            "hops_meas",
        ],
    );

    for (name, topology, lambda) in &topologies {
        for &fraction in &fractions {
            for (label, fallback) in fallbacks_for(topology) {
                let spec = FaultSpec {
                    mode: FaultMode::Seeded {
                        fraction,
                        seed: 0xFA017 + (fraction * 100.0) as u64,
                    },
                    fallback,
                    dynamics: None,
                };
                let build = |spec: FaultSpec| {
                    Scenario::builder(topology.clone())
                        .lambda(*lambda)
                        .horizon(horizon)
                        .warmup(horizon * 0.15)
                        .seed(0xE27)
                        .faults(Some(spec))
                        .build()
                        .expect("valid scenario")
                };
                let report = match topology {
                    // Validation refuses Drop on the butterfly (any dead
                    // arc on a unique path is fatal), so the baseline is
                    // a counterfactual: assemble the graph engine
                    // directly on an otherwise-identical scenario.
                    Topology::Butterfly { dim } if fallback == FaultFallback::Drop => {
                        butterfly_counterfactual(build, spec, *dim)
                    }
                    _ => build(spec).run().expect("scenario runs"),
                };
                let ext = report.graph().expect("graph extension");
                assert_eq!(
                    report.generated,
                    report.delivered + ext.dropped,
                    "conservation"
                );
                t.row(vec![
                    name.to_string(),
                    f4(fraction),
                    ext.dead_arcs.to_string(),
                    label.to_string(),
                    f4(ext.delivery_fraction),
                    ext.dropped.to_string(),
                    f4(ext.mean_hops),
                ]);
            }
        }
    }
    t.note(
        "multipath consults the topology's ranked alternate arcs (de Bruijn sibling \
         shift, butterfly fresh-pass back-route, fat-tree flipped up arc) before \
         dropping; retry8 additionally charges recoveries against an 8-deflection \
         per-packet budget. The butterfly has no detour row: unique greedy paths \
         leave it no same-kind alternative, so Detour is rejected at validation. \
         The random 4-regular expander greedily routes on the circular node-id \
         metric and stalls at local minima even fault-free; escape16 adds the \
         GOAFR-style best-neighbour walk (TTL 16 paid hops), the only fallback \
         that recovers metric stalls rather than just dead arcs",
    );
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternate_arc_fallbacks_beat_the_e26_baselines() {
        let t = run(Scale::Quick);
        let (topo, frac, fb, del) = (
            t.col("topology"),
            t.col("fault_frac"),
            t.col("fallback"),
            t.col("delivered_frac"),
        );
        let get = |topology: &str, fraction: &str, fallback: &str| -> f64 {
            t.rows
                .iter()
                .find(|r| r[topo] == topology && r[frac] == fraction && r[fb] == fallback)
                .unwrap_or_else(|| panic!("row {topology}/{fraction}/{fallback}"))[del]
                .parse()
                .unwrap()
        };
        for topology in ["hypercube", "debruijn", "butterfly", "fattree"] {
            // No faults → full delivery under every fallback.
            assert_eq!(get(topology, "0", "drop"), 1.0, "{topology}");
            assert_eq!(get(topology, "0", "multipath"), 1.0, "{topology}");
            for fraction in ["0.1000", "0.2500"] {
                let drop = get(topology, fraction, "drop");
                let multipath = get(topology, fraction, "multipath");
                let retry = get(topology, fraction, "retry8");
                assert!(drop < 1.0, "{topology}@{fraction}: faults but no drops");
                assert!(
                    multipath >= drop && retry >= drop,
                    "{topology}@{fraction}: multipath {multipath} / retry {retry} \
                     below drop {drop}"
                );
            }
        }
        // The acceptance bars: the ranked-alternate fallbacks must show a
        // measurable gain (≥ 15% more deliveries) exactly where E26's
        // fallbacks fail — over detour on the de Bruijn graph, and over
        // drop on the butterfly (which rejects detour outright).
        for fraction in ["0.1000", "0.2500"] {
            let db_detour = get("debruijn", fraction, "detour");
            assert!(
                get("debruijn", fraction, "multipath") > db_detour * 1.15,
                "de Bruijn multipath gain over detour at {fraction}"
            );
            assert!(
                get("debruijn", fraction, "retry8") > db_detour * 1.15,
                "de Bruijn retry gain over detour at {fraction}"
            );
            let bf_drop = get("butterfly", fraction, "drop");
            assert!(
                get("butterfly", fraction, "multipath") > bf_drop * 1.15,
                "butterfly multipath gain over drop at {fraction}"
            );
            assert!(
                get("butterfly", fraction, "retry8") > bf_drop * 1.15,
                "butterfly retry gain over drop at {fraction}"
            );
        }
        // The expander's metric greedy stalls even fault-free: only the
        // escape walk recovers those, so it must beat drop everywhere —
        // including the zero-fault column where the alternate-arc
        // fallbacks recover nothing.
        for fraction in ["0", "0.1000", "0.2500"] {
            let ex_drop = get("expander", fraction, "drop");
            let ex_escape = get("expander", fraction, "escape16");
            assert!(
                ex_drop < 1.0,
                "expander@{fraction}: id-metric greedy should stall somewhere"
            );
            assert!(
                ex_escape > ex_drop,
                "expander@{fraction}: escape {ex_escape} not above drop {ex_drop}"
            );
            assert!(
                ex_escape >= get("expander", fraction, "multipath"),
                "expander@{fraction}: escape must recover at least what multipath does"
            );
        }
    }
}
