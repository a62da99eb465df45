//! Deterministic discrete-event simulation kernel.
//!
//! The paper's model — independent Poisson sources feeding a network of
//! deterministic unit-service FIFO queues — is simulated exactly by the
//! tools in this crate:
//!
//! * [`events::EventQueue`] — the one future-event list: a binary heap
//!   with deterministic FIFO tie-breaking for simultaneous events. The
//!   equivalent-network simulator and the batch router in
//!   `hyperroute-core` run on it, and so does the packet engine's
//!   reference completion list;
//! * [`sched::SchedulerKind`] — the scenario's choice between the packet
//!   engine's unit-service completion FIFO and that heap;
//! * [`rng::SimRng`] — seedable RNG streams with the exponential /
//!   Poisson / Bernoulli samplers the model needs (implemented here, no
//!   external distribution crate);
//! * [`stats`] — streaming statistics: Welford moments, time-weighted
//!   averages, occupancy histograms, reservoir quantiles and batch-means
//!   confidence intervals.
//!
//! Everything is deterministic given a seed, which the property tests rely
//! on heavily.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use events::EventQueue;
pub use rng::{splitmix64, SimRng};
pub use sched::SchedulerKind;
pub use stats::{
    BatchMeans, OccupancyHistogram, Reservoir, Tally, TimeIntegral, TimeWeighted, Welford,
};
pub use time::SimTime;
