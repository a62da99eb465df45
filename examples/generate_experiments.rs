//! Regenerate EXPERIMENTS.md: run every experiment in `all_experiments()`
//! (E01–E29) plus the structural-figures table and archive the
//! paper-vs-measured tables. This is the one runner of the experiment
//! tables.
//!
//! `cargo run --release --example generate_experiments` (add `--quick` for
//! the small grids; the checked-in file uses the full grids). Set
//! `HYPERROUTE_ONLY=E21,E22` to run a subset and append it to the existing
//! EXPERIMENTS.md instead of rewriting it; the name `figures` selects the
//! structural-figures table.

use hyperroute::experiments::{all_experiments, figures, ExperimentEntry, Scale};
use std::fmt::Write as _;
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let quick = std::env::args().any(|a| a == "--quick");
    let scale = if quick { Scale::Quick } else { Scale::Full };
    if let Ok(only) = std::env::var("HYPERROUTE_ONLY") {
        let wanted: Vec<&str> = only.split(',').map(str::trim).collect();
        let mut md = String::new();
        let figures_entry: ExperimentEntry = ("figures", figures::run);
        let mut ran = 0;
        for (name, f) in std::iter::once(figures_entry).chain(all_experiments()) {
            if !wanted.contains(&name) {
                continue;
            }
            ran += 1;
            eprintln!("running {name} ...");
            let start = Instant::now();
            let table = f(scale);
            let secs = start.elapsed().as_secs_f64();
            md.push_str(&table.render_markdown());
            let _ = writeln!(md, "\n*({name} regenerated in {secs:.1}s)*\n");
        }
        let mut existing = std::fs::read_to_string("EXPERIMENTS.md").unwrap_or_default();
        existing.push_str(&md);
        std::fs::write("EXPERIMENTS.md", existing)?;
        eprintln!("appended {ran} table(s) to EXPERIMENTS.md");
        return Ok(());
    }

    let mut md = String::new();
    md.push_str("# EXPERIMENTS — paper vs. measured\n\n");
    md.push_str(
        "Reproduction record for *The Efficiency of Greedy Routing in Hypercubes and\n\
         Butterflies* (Stamoulis & Tsitsiklis, SPAA 1991). Every table below was\n\
         generated by the simulators in this repository; the experiment ids match\n\
         `all_experiments()`, and `HYPERROUTE_ONLY=ENN cargo run --release --example\n\
         generate_experiments` regenerates one table (appended to this file).\n\n",
    );
    let _ = writeln!(
        md,
        "Generated with `cargo run --release --example generate_experiments{}` (scale: {:?}).\n",
        if quick { " -- --quick" } else { "" },
        scale
    );
    md.push_str(
        "Reading the tables: the paper is analytical, so \"paper\" columns are its\n\
         closed-form bounds/predictions and \"measured\" columns are exact simulation.\n\
         The required shape: measured delays inside [LB, UB] brackets, stability\n\
         frontiers exactly at load factor 1, sample-path dominance with zero\n\
         violations, and closed-form special cases matched to statistical precision.\n\
         One caveat is carried through explicitly: the scanned paper garbles the\n\
         Brumelle M/D/s inequality it cites in Prop. 2, and the printed form is not a\n\
         valid pointwise bound at moderate load; tables report both the printed form\n\
         and a provably valid workload bound (see `hyperroute-queueing::mds`).\n\n",
    );

    md.push_str("## Structural figures\n\n");
    md.push_str(&figures::run(scale).render_markdown());
    md.push('\n');

    md.push_str("## Experiments\n\n");
    for (name, f) in all_experiments() {
        eprintln!("running {name} ...");
        let start = Instant::now();
        let table = f(scale);
        let secs = start.elapsed().as_secs_f64();
        eprintln!("  done in {secs:.1}s");
        md.push_str(&table.render_markdown());
        let _ = writeln!(md, "\n*({name} regenerated in {secs:.1}s)*\n");
    }

    md.push_str(
        "## Verdict\n\n\
         Every `ok`/`agree`/dominance column above must read `yes` (the test suite\n\
         asserts the same conditions at Quick scale on every run). Where the paper\n\
         gives exact expressions — the `p = 1` delay, the product-form occupancy,\n\
         Props. 5/15 arc rates — measured values match within simulation confidence\n\
         intervals. Where it gives brackets, measured delays sit inside them, with\n\
         the measured-to-upper-bound ratio shrinking as ρ grows (consistent with the\n\
         paper's conjecture that the upper bound is tight up to a d-independent\n\
         factor).\n",
    );

    std::fs::write("EXPERIMENTS.md", &md)?;
    eprintln!("wrote EXPERIMENTS.md ({} bytes)", md.len());
    Ok(())
}
