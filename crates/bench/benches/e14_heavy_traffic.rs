//! Bench target regenerating the e14_heavy_traffic experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e14_heavy_traffic",
        hyperroute_experiments::e14_heavy_traffic::run,
    );
}
