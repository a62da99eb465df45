//! Experiment harnesses reproducing every claim of the paper.
//!
//! Each `eNN_*` module regenerates one row of the experiment index
//! ([`all_experiments`]): it sweeps the relevant parameters, runs the exact
//! simulators from `hyperroute-core`, puts the measured values next to the
//! paper's closed-form predictions from `hyperroute-analysis`, and returns
//! a [`table::Table`]. The bench harness (`crates/bench`) prints these
//! tables; EXPERIMENTS.md archives them.
//!
//! Every experiment takes a [`Scale`]: `Quick` keeps runtimes test-friendly
//! (small `d`, short horizons), `Full` is the bench/EXPERIMENTS.md setting.
//! Both run the same code path — only grids and horizons change.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod runner;
pub mod sweep;
pub mod table;

pub mod e01_stability_necessary;
pub mod e02_universal_lower_bound;
pub mod e03_oblivious_lower_bound;
pub mod e04_arc_rates;
pub mod e05_greedy_stability;
pub mod e06_delay_upper_bound;
pub mod e07_greedy_lower_bound;
pub mod e08_fifo_ps_servers;
pub mod e09_ps_dominance;
pub mod e10_product_form;
pub mod e11_slotted_time;
pub mod e12_pipelined_instability;
pub mod e13_p1_exact;
pub mod e14_heavy_traffic;
pub mod e15_butterfly_lower_bound;
pub mod e16_butterfly_arc_rates;
pub mod e17_butterfly_stability;
pub mod e18_butterfly_upper_bound;
pub mod e19_scheme_ablation;
pub mod e20_markovian_routing;
pub mod e21_general_destinations;
pub mod e22_contention_policies;
pub mod e23_dimension_occupancy;
pub mod e24_ring_greedy;
pub mod e25_torus_greedy;
pub mod e26_fault_tolerance;
pub mod e27_multipath;
pub mod e28_smallworld;
pub mod e29_hyperbolic;
pub mod figures;

pub use table::Table;

/// Experiment size: `Quick` for tests, `Full` for the bench harness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// Small grids and horizons (seconds, debug-build friendly).
    Quick,
    /// The EXPERIMENTS.md setting (longer horizons, bigger `d`).
    Full,
}

impl Scale {
    /// Scale a horizon: `Full` uses the given value, `Quick` a fraction.
    pub fn horizon(self, full: f64) -> f64 {
        match self {
            Scale::Quick => (full / 6.0).max(400.0),
            Scale::Full => full,
        }
    }

    /// Cap a dimension for quick runs.
    pub fn dim(self, full: usize) -> usize {
        match self {
            Scale::Quick => full.min(5),
            Scale::Full => full,
        }
    }
}

/// One registered experiment: `(id, harness entry point)`.
pub type ExperimentEntry = (&'static str, fn(Scale) -> Table);

/// Every experiment in index order, for harnesses that run them all.
pub fn all_experiments() -> Vec<ExperimentEntry> {
    vec![
        ("E01", e01_stability_necessary::run),
        ("E02", e02_universal_lower_bound::run),
        ("E03", e03_oblivious_lower_bound::run),
        ("E04", e04_arc_rates::run),
        ("E05", e05_greedy_stability::run),
        ("E06", e06_delay_upper_bound::run),
        ("E07", e07_greedy_lower_bound::run),
        ("E08", e08_fifo_ps_servers::run),
        ("E09", e09_ps_dominance::run),
        ("E10", e10_product_form::run),
        ("E11", e11_slotted_time::run),
        ("E12", e12_pipelined_instability::run),
        ("E13", e13_p1_exact::run),
        ("E14", e14_heavy_traffic::run),
        ("E15", e15_butterfly_lower_bound::run),
        ("E16", e16_butterfly_arc_rates::run),
        ("E17", e17_butterfly_stability::run),
        ("E18", e18_butterfly_upper_bound::run),
        ("E19", e19_scheme_ablation::run),
        ("E20", e20_markovian_routing::run),
        ("E21", e21_general_destinations::run),
        ("E22", e22_contention_policies::run),
        ("E23", e23_dimension_occupancy::run),
        ("E24", e24_ring_greedy::run),
        ("E25", e25_torus_greedy::run),
        ("E26", e26_fault_tolerance::run),
        ("E27", e27_multipath::run),
        ("E28", e28_smallworld::run),
        ("E29", e29_hyperbolic::run),
    ]
}
