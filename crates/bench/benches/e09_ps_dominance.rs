//! Bench target regenerating the e09_ps_dominance experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e09_ps_dominance",
        hyperroute_experiments::e09_ps_dominance::run,
    );
}
