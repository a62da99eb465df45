//! Bench target regenerating the e15_butterfly_lower_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e15_butterfly_lower_bound",
        hyperroute_experiments::e15_butterfly_lower_bound::run,
    );
}
