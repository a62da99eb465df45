//! Bench target regenerating the e11_slotted_time experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e11_slotted_time",
        hyperroute_experiments::e11_slotted_time::run,
    );
}
