//! Shared plumbing for the table-regenerating bench targets.
//!
//! Every experiment in `hyperroute_experiments::all_experiments` has a
//! `harness = false` bench target whose `main` calls [`run_table_bench`]:
//! it executes the experiment, prints the paper-vs-measured table, and
//! reports wall-clock time. `cargo bench` therefore regenerates every table.
//!
//! Scale control: set `HYPERROUTE_SCALE=full` for the EXPERIMENTS.md grids
//! (long horizons); the default `quick` keeps a full `cargo bench` run in
//! the minutes range on a laptop.

pub mod seed_baseline;

use hyperroute_experiments::{Scale, Table};
use std::time::Instant;

/// Read the experiment scale from `HYPERROUTE_SCALE` (`full`/`quick`).
pub fn scale_from_env() -> Scale {
    match std::env::var("HYPERROUTE_SCALE").as_deref() {
        Ok("full") | Ok("FULL") => Scale::Full,
        _ => Scale::Quick,
    }
}

/// Run one experiment harness, print its table and timing.
pub fn run_table_bench(name: &str, f: fn(Scale) -> Table) {
    let scale = scale_from_env();
    eprintln!("[{name}] scale = {scale:?} (HYPERROUTE_SCALE=full for EXPERIMENTS.md grids)");
    let start = Instant::now();
    let table = f(scale);
    let elapsed = start.elapsed();
    println!("{}", table.render());
    println!("[{name}] regenerated in {:.2}s", elapsed.as_secs_f64());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_scale_is_quick() {
        // Unless the caller set the env var, benches default to quick.
        if std::env::var("HYPERROUTE_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::Quick);
        }
    }
}
