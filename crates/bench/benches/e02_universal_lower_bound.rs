//! Bench target regenerating the e02_universal_lower_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e02_universal_lower_bound",
        hyperroute_experiments::e02_universal_lower_bound::run,
    );
}
