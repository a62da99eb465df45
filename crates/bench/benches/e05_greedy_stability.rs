//! Bench target regenerating the e05_greedy_stability experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e05_greedy_stability",
        hyperroute_experiments::e05_greedy_stability::run,
    );
}
