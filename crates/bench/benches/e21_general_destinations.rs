//! Bench target regenerating the e21_general_destinations experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e21_general_destinations",
        hyperroute_experiments::e21_general_destinations::run,
    );
}
