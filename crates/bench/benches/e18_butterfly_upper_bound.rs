//! Bench target regenerating the e18_butterfly_upper_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e18_butterfly_upper_bound",
        hyperroute_experiments::e18_butterfly_upper_bound::run,
    );
}
