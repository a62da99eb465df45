//! Bench target regenerating the e07_greedy_lower_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e07_greedy_lower_bound",
        hyperroute_experiments::e07_greedy_lower_bound::run,
    );
}
