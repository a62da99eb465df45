//! Simulation time.
//!
//! Continuous time is an `f64` number of unit packet-transmission times.
//! All service completions add exactly `1.0`, which is representable, so the
//! FIFO departure recursion `D_i = max(D_{i-1}, t_i) + 1` incurs no rounding
//! as long as arrival timestamps are finite; ties between distinct events
//! are broken deterministically by the event queue, not by time arithmetic.

/// Simulation time, in unit packet-transmission times.
pub type SimTime = f64;
