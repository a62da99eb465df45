//! Shared code for the engine bench targets.
//!
//! `engine_report` writes `BENCH_engine.json`, timing the shipped engine
//! against the frozen seed engine in [`seed_baseline`]; `engine_kernels`
//! holds the criterion microbenches of the simulation kernels. The
//! experiment tables are regenerated by `examples/generate_experiments.rs`,
//! not by a bench.

pub mod seed_baseline;
