//! Bench target regenerating the e22_contention_policies experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e22_contention_policies",
        hyperroute_experiments::e22_contention_policies::run,
    );
}
