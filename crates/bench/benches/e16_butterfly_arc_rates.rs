//! Bench target regenerating the e16_butterfly_arc_rates experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e16_butterfly_arc_rates",
        hyperroute_experiments::e16_butterfly_arc_rates::run,
    );
}
