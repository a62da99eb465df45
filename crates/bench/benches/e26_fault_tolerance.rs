//! Bench target regenerating the e26_fault_tolerance experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e26_fault_tolerance",
        hyperroute_experiments::e26_fault_tolerance::run,
    );
}
