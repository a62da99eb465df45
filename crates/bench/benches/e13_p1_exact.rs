//! Bench target regenerating the e13_p1_exact experiment table.
fn main() {
    hyperroute_bench::run_table_bench("e13_p1_exact", hyperroute_experiments::e13_p1_exact::run);
}
