//! Warm worker pools: keep subprocess workers alive between campaigns.
//!
//! A [`WorkerPool`] turns a [`crate::SubprocessBackend`]'s worker fleet
//! into a reusable resource: when a campaign's batch ends, each fan-out
//! thread parks its worker here (it has read the worker's last terminal
//! reply, so the worker is idle), tagged with the argv it was spawned
//! from, and the next campaign with the same argv checks it out again
//! (re-pinged with `Hello`, so a process that died while parked is
//! discarded, never trusted). Respawn becomes the exception: it happens
//! only on first use, after a worker loss, or when the pool ran dry.
//! Every backend owns a private pool;
//! [`crate::SubprocessBackend::with_pool`] shares one across backends,
//! which is how the sweep service keeps one fleet warm while it builds a
//! fresh backend per campaign.
//!
//! Pooling never changes campaign output: slices are pure functions of
//! their JSON, and the merge step is order-independent, so a warm fleet
//! produces bytes identical to a cold one.

use crate::subprocess::{WorkerProc, WorkerRequest};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long [`WorkerPool::shutdown`] waits for a worker's `Bye` before
/// falling back to the kill-on-drop path.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(1);

/// Most idle workers kept in one pool; overflow check-ins are dropped
/// (killed).
const MAX_IDLE: usize = 32;

/// A pool of idle subprocess workers, each tagged with its argv, shared
/// across campaigns (and across backends — `Arc` it into every
/// [`crate::SubprocessBackend::with_pool`] that should reuse the fleet).
///
/// The pool is passive: it never spawns. Backends park workers here at
/// campaign end and check them out at campaign start; the pool's own job
/// is bookkeeping — idle storage with a cap, spawn/reuse counters for
/// telemetry, and the campaign-scoped failure streak that stretches
/// respawn backoff while a fleet is struggling (and is wiped at every
/// campaign boundary, so one bad campaign never slows down the next).
#[derive(Debug)]
pub struct WorkerPool {
    /// Idle, live workers, most recently parked last.
    idle: Mutex<Vec<WorkerProc>>,
    /// Worker losses since the last campaign boundary.
    losses: AtomicUsize,
    /// Total processes ever spawned through this pool's backends.
    spawns: AtomicU64,
    /// Total successful warm checkouts.
    reuses: AtomicU64,
}

impl Default for WorkerPool {
    fn default() -> WorkerPool {
        WorkerPool::new()
    }
}

impl WorkerPool {
    /// An empty pool keeping at most 32 idle workers.
    pub fn new() -> WorkerPool {
        WorkerPool {
            idle: Mutex::new(Vec::new()),
            losses: AtomicUsize::new(0),
            spawns: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Workers currently parked.
    pub fn idle_workers(&self) -> usize {
        self.idle.lock().map(|idle| idle.len()).unwrap_or(0)
    }

    /// Processes spawned through this pool's backends so far. A steady
    /// value across campaigns is the signature of a warm fleet.
    pub fn spawns(&self) -> u64 {
        self.spawns.load(Ordering::Relaxed)
    }

    /// Successful warm checkouts so far.
    pub fn reuses(&self) -> u64 {
        self.reuses.load(Ordering::Relaxed)
    }

    /// Worker losses since the last campaign boundary (diagnostic; feeds
    /// the respawn-backoff stretch).
    pub fn loss_streak(&self) -> usize {
        self.losses.load(Ordering::Relaxed)
    }

    /// Mark a campaign boundary: wipe the failure streak — backoff state
    /// must never leak from one campaign into the next.
    pub(crate) fn begin_campaign(&self) {
        self.losses.store(0, Ordering::Relaxed);
    }

    /// Record a worker loss (crash / timeout / garbled reply).
    pub(crate) fn note_loss(&self) {
        self.losses.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a fresh process spawn.
    pub(crate) fn note_spawn(&self) {
        self.spawns.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a successful warm checkout.
    pub(crate) fn note_reuse(&self) {
        self.reuses.fetch_add(1, Ordering::Relaxed);
    }

    /// Take the most recently parked idle worker spawned from exactly
    /// `cmd`, if any. The caller must re-ping it (`Hello`) before
    /// trusting it.
    pub(crate) fn check_out(&self, cmd: &[String]) -> Option<WorkerProc> {
        let mut idle = self.idle.lock().expect("pool lock");
        let at = idle.iter().rposition(|worker| worker.cmd == cmd)?;
        Some(idle.remove(at))
    }

    /// Park an idle worker; dropped (killed) when the pool already holds
    /// its cap.
    pub(crate) fn check_in(&self, worker: WorkerProc) {
        let mut idle = self.idle.lock().expect("pool lock");
        if idle.len() < MAX_IDLE {
            idle.push(worker);
        }
        // else: drop kills the overflow worker
    }

    /// Retire every parked worker: best-effort `Shutdown` → `Bye`
    /// handshake for a clean exit, kill-on-drop as the backstop. The
    /// pool is empty afterwards but remains usable.
    pub fn shutdown(&self) {
        let parked: Vec<WorkerProc> = {
            // Poisoned lock (a panicking campaign thread) still holds
            // real workers; recover the list rather than leaking them.
            let mut idle = match self.idle.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            std::mem::take(&mut *idle)
        };
        for mut worker in parked {
            let _ = worker.control(&WorkerRequest::Shutdown, SHUTDOWN_TIMEOUT);
            // drop kills if the worker ignored the handshake
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A parked process tagged with `cmd`. `cat` stands in for a worker:
    /// checkout and check-in never talk to it.
    fn parked(cmd: &[&str]) -> WorkerProc {
        let mut worker = WorkerProc::spawn(&["cat".into()]).unwrap();
        worker.cmd = cmd.iter().map(|arg| arg.to_string()).collect();
        worker
    }

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|arg| arg.to_string()).collect()
    }

    #[test]
    fn checkout_takes_only_a_worker_of_the_same_argv() {
        let pool = WorkerPool::new();
        pool.check_in(parked(&["worker", "--fast"]));
        assert_eq!(pool.idle_workers(), 1);
        // Another argument, or the same bytes split at another argument
        // boundary, is another worker command.
        assert!(pool.check_out(&argv(&["worker", "--slow"])).is_none());
        assert!(pool.check_out(&argv(&["worker --fast"])).is_none());
        assert!(pool.check_out(&argv(&["worker"])).is_none());
        assert_eq!(pool.idle_workers(), 1);
        let worker = pool.check_out(&argv(&["worker", "--fast"])).unwrap();
        assert_eq!(worker.cmd, argv(&["worker", "--fast"]));
        assert_eq!(pool.idle_workers(), 0);
    }

    #[test]
    fn campaign_boundary_resets_the_loss_streak() {
        // The regression this guards: backoff state leaking across
        // campaigns, so a campaign after a flaky one started with
        // already-stretched respawn delays.
        let pool = WorkerPool::new();
        pool.note_loss();
        pool.note_loss();
        pool.note_loss();
        assert_eq!(pool.loss_streak(), 3);
        pool.begin_campaign();
        assert_eq!(pool.loss_streak(), 0, "new campaign starts clean");
        pool.note_loss();
        assert_eq!(pool.loss_streak(), 1);
        pool.begin_campaign();
        assert_eq!(pool.loss_streak(), 0);
    }

    #[test]
    fn empty_pool_checks_out_nothing_and_shuts_down_quietly() {
        let pool = WorkerPool::new();
        assert!(pool.check_out(&argv(&["x"])).is_none());
        assert_eq!(pool.idle_workers(), 0);
        pool.shutdown();
        assert_eq!((pool.spawns(), pool.reuses()), (0, 0));
    }
}
