//! Bench target regenerating the e08_fifo_ps_servers experiment table.
fn main() {
    hyperroute_bench::run_table_bench(
        "e08_fifo_ps_servers",
        hyperroute_experiments::e08_fifo_ps_servers::run,
    );
}
