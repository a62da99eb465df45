//! Bench target regenerating the e24_ring_greedy experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e24_ring_greedy",
        hyperroute_experiments::e24_ring_greedy::run,
    );
}
