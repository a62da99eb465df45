//! Deterministic discrete-event simulation kernel.
//!
//! The paper's model — independent Poisson sources feeding a network of
//! deterministic unit-service FIFO queues — is simulated exactly by the
//! tools in this crate:
//!
//! * [`events::EventQueue`] — a binary-heap future-event list with
//!   deterministic FIFO tie-breaking for simultaneous events (also the
//!   reference completion list of the packet engine in `hyperroute-core`);
//! * [`calendar::CalendarQueue`] — a bucketed time-wheel future-event list
//!   with the same deterministic order at amortized `O(1)` per event,
//!   exploiting the model's near-future event times;
//! * [`sched::Scheduler`] — runtime selection between the two backends,
//!   for the equivalent-network simulator (the packet engine needs only
//!   a FIFO for its unit-service completions and keeps its own);
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

pub mod calendar;
pub mod events;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use calendar::CalendarQueue;
pub use events::EventQueue;
pub use rng::{splitmix64, SimRng};
pub use sched::{Scheduler, SchedulerKind};
pub use stats::{
    BatchMeans, OccupancyHistogram, Reservoir, Tally, TimeIntegral, TimeWeighted, Welford,
};
pub use time::SimTime;
