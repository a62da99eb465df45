//! Bench target regenerating the e06_delay_upper_bound experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e06_delay_upper_bound",
        hyperroute_experiments::e06_delay_upper_bound::run,
    );
}
