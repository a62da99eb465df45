//! Bench target regenerating the e03_oblivious_lower_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e03_oblivious_lower_bound",
        hyperroute_experiments::e03_oblivious_lower_bound::run,
    );
}
