//! Bench target regenerating the e12_pipelined_instability experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e12_pipelined_instability",
        hyperroute_experiments::e12_pipelined_instability::run,
    );
}
