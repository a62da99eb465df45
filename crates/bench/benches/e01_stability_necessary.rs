//! Bench target regenerating the e01_stability_necessary experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e01_stability_necessary",
        hyperroute_experiments::e01_stability_necessary::run,
    );
}
