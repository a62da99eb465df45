//! Bench target regenerating the e17_butterfly_stability experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e17_butterfly_stability",
        hyperroute_experiments::e17_butterfly_stability::run,
    );
}
