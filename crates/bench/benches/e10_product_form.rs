//! Bench target regenerating the e10_product_form experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e10_product_form",
        hyperroute_experiments::e10_product_form::run,
    );
}
