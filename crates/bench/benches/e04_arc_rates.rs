//! Bench target regenerating the e04_arc_rates experiment table.
fn main() {
    hyperroute_bench::run_table_bench("e04_arc_rates", hyperroute_experiments::e04_arc_rates::run);
}
