//! Bench target regenerating the e20_markovian_routing experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e20_markovian_routing",
        hyperroute_experiments::e20_markovian_routing::run,
    );
}
