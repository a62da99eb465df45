//! Zero-cost-when-off phase timers for the engine hot loop.
//!
//! Built with `--features profile`, the engine wall-clocks four phases
//! of every event — scheduler pop, arc choice, metrics tally, observer
//! dispatch — and adds the totals to a thread-local accumulator that
//! the bench harness drains into the `profile` section of
//! `BENCH_engine.json`. Without the feature (the default, and what
//! every corpus/CI run uses) [`Tick`] is a zero-sized type and every
//! method an empty `#[inline(always)]` body, so the instrumented call
//! sites compile to exactly the uninstrumented code.
//!
//! Timer readings are wall-clock and therefore **never** part of a
//! [`Report`](crate::scenario::Report) — reports stay byte-identical
//! whether or not the feature is on; only the side-channel summary
//! differs.

/// The instrumented phases of the engine's event loop.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Popping the next event (completion queue merged with the
    /// arrival stream).
    SchedPop = 0,
    /// The spec's routing decision plus queue insertion.
    ArcChoice = 1,
    /// Metrics accounting at generations and deliveries.
    Metrics = 2,
    /// Per-event observer dispatch.
    Observer = 3,
}

/// Number of phases (array size for the accumulators).
const PHASES: usize = 4;

/// Phase names in `Phase` discriminant order, as emitted in bench JSON.
pub const PHASE_NAMES: [&str; PHASES] = ["sched_pop", "arc_choice", "metrics", "observer"];

/// Whether this build carries the timers.
pub const fn enabled() -> bool {
    cfg!(feature = "profile")
}

/// A started phase measurement. Zero-sized (and free) when the
/// `profile` feature is off.
#[derive(Clone, Copy, Debug)]
pub struct Tick(#[cfg(feature = "profile")] std::time::Instant);

impl Tick {
    /// Start timing a phase.
    #[inline(always)]
    pub fn start() -> Tick {
        Tick(
            #[cfg(feature = "profile")]
            std::time::Instant::now(),
        )
    }
}

/// Per-engine phase accumulators (a pair of zero-length arrays when
/// profiling is off).
#[derive(Clone, Debug, Default)]
pub struct PhaseTimers {
    #[cfg(feature = "profile")]
    nanos: [u64; PHASES],
    #[cfg(feature = "profile")]
    hits: [u64; PHASES],
}

impl PhaseTimers {
    /// Fresh zeroed timers.
    pub fn new() -> PhaseTimers {
        PhaseTimers::default()
    }

    /// Charge the time since `tick` to `phase`.
    #[inline(always)]
    pub fn record(&mut self, phase: Phase, tick: Tick) {
        #[cfg(feature = "profile")]
        {
            self.nanos[phase as usize] += tick.0.elapsed().as_nanos() as u64;
            self.hits[phase as usize] += 1;
        }
        #[cfg(not(feature = "profile"))]
        let _ = (phase, tick);
    }

    /// Fold this engine's totals into the thread-local accumulator
    /// (drained by [`take`]). The engine calls this once per drive.
    pub fn flush(&self) {
        #[cfg(feature = "profile")]
        TOTALS.with(|cell| {
            let mut totals = cell.borrow_mut();
            for i in 0..PHASES {
                totals.0[i] += self.nanos[i];
                totals.1[i] += self.hits[i];
            }
        });
    }
}

#[cfg(feature = "profile")]
thread_local! {
    static TOTALS: std::cell::RefCell<([u64; PHASES], [u64; PHASES])> =
        const { std::cell::RefCell::new(([0; PHASES], [0; PHASES])) };
}

/// One phase's accumulated cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PhaseStat {
    /// Phase name as emitted in bench JSON.
    pub name: &'static str,
    /// Total wall-clock nanoseconds charged to the phase.
    pub nanos: u64,
    /// Number of timed occurrences.
    pub hits: u64,
}

/// Snapshot of the profiling state after some runs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileSummary {
    /// Whether the build carries timers (`false` ⇒ all stats zero).
    pub enabled: bool,
    /// Per-phase totals, in [`PHASE_NAMES`] order.
    pub phases: [PhaseStat; PHASES],
}

/// Drain the calling thread's accumulated totals (engines flush into
/// them at the end of every drive). Always callable; with the feature
/// off it reports `enabled: false` and zeros.
pub fn take() -> ProfileSummary {
    let mut phases = [PhaseStat {
        name: "",
        nanos: 0,
        hits: 0,
    }; PHASES];
    for (i, slot) in phases.iter_mut().enumerate() {
        slot.name = PHASE_NAMES[i];
    }
    #[cfg(feature = "profile")]
    TOTALS.with(|cell| {
        let mut totals = cell.borrow_mut();
        for (i, slot) in phases.iter_mut().enumerate() {
            slot.nanos = totals.0[i];
            slot.hits = totals.1[i];
        }
        *totals = ([0; PHASES], [0; PHASES]);
    });
    ProfileSummary {
        enabled: enabled(),
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_matches_build_configuration() {
        let summary = take();
        assert_eq!(summary.enabled, cfg!(feature = "profile"));
        assert_eq!(summary.phases.len(), PHASE_NAMES.len());
        for (stat, name) in summary.phases.iter().zip(PHASE_NAMES) {
            assert_eq!(stat.name, name);
            if !enabled() {
                assert_eq!((stat.nanos, stat.hits), (0, 0), "untimed build not zero");
            }
        }
    }

    #[test]
    fn record_without_feature_is_inert() {
        let mut timers = PhaseTimers::new();
        let tick = Tick::start();
        timers.record(Phase::SchedPop, tick);
        timers.flush();
        // With the feature off this whole dance is no-ops; with it on,
        // the flush lands in the thread-local which `take` drains.
        let summary = take();
        if enabled() {
            assert_eq!(summary.phases[Phase::SchedPop as usize].hits, 1);
            // Draining resets.
            assert_eq!(take().phases[Phase::SchedPop as usize].hits, 0);
        }
    }

    #[cfg(feature = "profile")]
    #[test]
    fn timed_engine_charges_every_phase() {
        use crate::scenario::{Scenario, Topology};
        let _ = take(); // discard anything earlier tests left behind
        Scenario::builder(Topology::Hypercube { dim: 4 })
            .lambda(1.0)
            .p(0.5)
            .horizon(200.0)
            .warmup(50.0)
            .seed(3)
            .build()
            .expect("valid scenario")
            .run()
            .expect("runs");
        let summary = take();
        assert!(summary.enabled);
        for stat in &summary.phases {
            assert!(stat.hits > 0, "phase {} never timed", stat.name);
        }
    }
}
