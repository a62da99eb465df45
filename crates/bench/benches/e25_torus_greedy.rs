//! Bench target regenerating the e25_torus_greedy experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e25_torus_greedy",
        hyperroute_experiments::e25_torus_greedy::run,
    );
}
