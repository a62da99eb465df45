//! Bench target regenerating the e19_scheme_ablation experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e19_scheme_ablation",
        hyperroute_experiments::e19_scheme_ablation::run,
    );
}
