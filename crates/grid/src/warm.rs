//! Warm worker pools: keep subprocess workers alive between campaigns.
//!
//! A [`WorkerPool`] turns a [`crate::SubprocessBackend`]'s worker fleet
//! into a reusable resource: at campaign end healthy workers are
//! *drained* (protocol `Drain` → `Drained`) and parked here, keyed by a
//! hash of the worker argv, and the next campaign with the same argv
//! checks them out again (re-pinged with `CampaignSubmit`, so a process
//! that died while parked is discarded, never trusted). Respawn becomes
//! the exception: it happens only on first use, after a worker loss, or
//! when the pool ran dry. Every backend owns a private pool;
//! [`crate::SubprocessBackend::with_pool`] shares one across backends,
//! which is how the sweep service keeps one fleet warm while it builds a
//! fresh backend per campaign.
//!
//! Pooling never changes campaign output: slices are pure functions of
//! their JSON, and the merge step is order-independent, so a warm fleet
//! produces bytes identical to a cold one.

use crate::subprocess::{WorkerProc, WorkerRequest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// How long [`WorkerPool::shutdown`] waits for a worker's `Bye` before
/// falling back to the kill-on-drop path.
const SHUTDOWN_TIMEOUT: Duration = Duration::from_secs(1);

/// Most idle workers kept per argv key; overflow check-ins are dropped
/// (killed).
const MAX_IDLE_PER_KEY: usize = 32;

/// Hash a worker argv into the pool key its idle workers are parked
/// under (FNV-1a 64 over NUL-joined args, folded with the protocol
/// version so a protocol bump can never resurrect stale workers).
pub(crate) fn pool_key(cmd: &[String]) -> u64 {
    let mut bytes = Vec::new();
    for arg in cmd {
        bytes.extend_from_slice(arg.as_bytes());
        bytes.push(0);
    }
    bytes.extend_from_slice(&crate::subprocess::PROTOCOL_VERSION.to_le_bytes());
    crate::cache::fnv1a64(&bytes)
}

/// A pool of drained subprocess workers, keyed by worker-argv hash,
/// shared across campaigns (and across backends — `Arc` it into every
/// [`crate::SubprocessBackend::with_pool`] that should reuse the fleet).
///
/// The pool is passive: it never spawns. Backends park workers here at
/// campaign end and check them out at campaign start; the pool's own job
/// is bookkeeping — idle storage with a per-key cap, spawn/reuse
/// counters for telemetry, and the campaign-scoped failure streak that
/// stretches respawn backoff while a fleet is struggling (and is wiped
/// at every campaign boundary, so one bad campaign never slows down the
/// next).
#[derive(Debug)]
pub struct WorkerPool {
    /// Drained, live workers by argv hash.
    idle: Mutex<HashMap<u64, Vec<WorkerProc>>>,
    /// Campaign sequence number, bumped by [`WorkerPool::begin_campaign`].
    campaigns: AtomicU64,
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
    /// An empty pool keeping at most 32 idle workers per argv key.
    pub fn new() -> WorkerPool {
        WorkerPool {
            idle: Mutex::new(HashMap::new()),
            campaigns: AtomicU64::new(0),
            losses: AtomicUsize::new(0),
            spawns: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
        }
    }

    /// Workers currently parked, across all keys.
    pub fn idle_workers(&self) -> usize {
        self.idle
            .lock()
            .map(|idle| idle.values().map(Vec::len).sum())
            .unwrap_or(0)
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
    /// must never leak from one campaign into the next — and hand out
    /// the campaign's protocol tag.
    pub(crate) fn begin_campaign(&self) -> u64 {
        self.losses.store(0, Ordering::Relaxed);
        self.campaigns.fetch_add(1, Ordering::Relaxed)
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

    /// Take one idle worker parked under `key`, if any. The caller must
    /// re-ping it (`CampaignSubmit`) before trusting it.
    pub(crate) fn check_out(&self, key: u64) -> Option<WorkerProc> {
        let mut idle = self.idle.lock().expect("pool lock");
        idle.get_mut(&key)?.pop()
    }

    /// Park a drained worker under `key`; dropped (killed) when the
    /// per-key cap is already reached.
    pub(crate) fn check_in(&self, key: u64, worker: WorkerProc) {
        let mut idle = self.idle.lock().expect("pool lock");
        let parked = idle.entry(key).or_default();
        if parked.len() < MAX_IDLE_PER_KEY {
            parked.push(worker);
        }
        // else: drop kills the overflow worker
    }

    /// Retire every parked worker: best-effort `Shutdown` → `Bye`
    /// handshake for a clean exit, kill-on-drop as the backstop. The
    /// pool is empty afterwards but remains usable.
    pub fn shutdown(&self) {
        let drained: Vec<WorkerProc> = {
            // Poisoned lock (a panicking campaign thread) still holds
            // real workers; recover the map rather than leaking them.
            let mut idle = match self.idle.lock() {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
            idle.drain().flat_map(|(_, workers)| workers).collect()
        };
        for mut worker in drained {
            let _ = worker.control(&WorkerRequest::Shutdown, SHUTDOWN_TIMEOUT, |r| {
                matches!(r, crate::subprocess::WorkerReply::Bye)
            });
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

    #[test]
    fn pool_key_depends_on_every_arg_and_on_arg_boundaries() {
        let a = pool_key(&["worker".into(), "--fast".into()]);
        let b = pool_key(&["worker".into(), "--slow".into()]);
        let c = pool_key(&["worker --fast".into()]);
        assert_ne!(a, b);
        // NUL joining keeps ["worker", "--fast"] distinct from
        // ["worker --fast"] even though their bytes agree.
        assert_ne!(a, c);
        assert_eq!(a, pool_key(&["worker".into(), "--fast".into()]));
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
        let first = pool.begin_campaign();
        assert_eq!(pool.loss_streak(), 0, "new campaign starts clean");
        pool.note_loss();
        assert_eq!(pool.loss_streak(), 1);
        let second = pool.begin_campaign();
        assert_eq!(pool.loss_streak(), 0);
        assert!(second > first, "campaign tags are monotonic");
    }

    #[test]
    fn empty_pool_checks_out_nothing_and_shuts_down_quietly() {
        let pool = WorkerPool::new();
        assert!(pool.check_out(pool_key(&["x".into()])).is_none());
        assert_eq!(pool.idle_workers(), 0);
        pool.shutdown();
        assert_eq!((pool.spawns(), pool.reuses()), (0, 0));
    }
}
