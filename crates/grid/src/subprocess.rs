//! Out-of-process slice execution over a newline-delimited JSON protocol.
//!
//! # The worker protocol
//!
//! A worker is any process that reads **one JSON request per line** on
//! stdin and writes **one JSON [`WorkerReply`] per line** on stdout,
//! flushing after each reply, until stdin reaches EOF. `hyperroute-grid
//! worker` is exactly [`run_worker`] over locked stdio; anything else
//! (an ssh wrapper, a container entrypoint) can stand in as long as it
//! speaks the same lines, which is why the backend takes a plain argv
//! vector rather than a path.
//!
//! Every request line is a tagged [`WorkerRequest`]. The dispatcher
//! opens the session with `Hello` (protocol version handshake), marks
//! campaign boundaries with `CampaignSubmit`, parks an idle worker with
//! `Drain`, and retires it with `Shutdown`. A `Slice` request carries the
//! slice's [`SliceJob`]: the scenarios of its own points, not the sweep
//! they were cut from. A line that does not parse as a request (a bare
//! job, or a line that is not UTF-8) is answered with a
//! [`WorkerReply::Err`] whose id is `u64::MAX`.
//!
//! ```text
//! dispatcher → worker:  {"Hello":{"version":3}}\n
//! worker → dispatcher:  {"HelloOk":{"version":3}}\n
//! dispatcher → worker:  {"CampaignSubmit":{"campaign":7}}\n
//! worker → dispatcher:  {"CampaignAck":{"campaign":7}}\n
//! dispatcher → worker:  {"Slice":{"id":3,"start":12,"scenarios":[…]}}\n
//! worker → dispatcher:  {"Progress":{"id":3,"done":2,"total":4,"rows_per_sec":1.7}}\n  (zero or more)
//!                       {"Ok":{"id":3,"start":12,"reports":[…]}}\n
//! dispatcher → worker:  "Drain"\n            (park in the warm pool)
//! worker → dispatcher:  "Drained"\n
//! dispatcher → worker:  "Shutdown"\n
//! worker → dispatcher:  "Bye"\n              (worker exits cleanly)
//! ```
//!
//! While a slice runs, the worker may interleave any number of
//! [`WorkerReply::Progress`] heartbeat lines (throttled to one per
//! [`DEFAULT_HEARTBEAT`]; see [`run_worker_with`]) before the single
//! terminal `Ok`/`Err` line. Each heartbeat restarts the dispatcher's
//! reply timeout, so [`SubprocessBackend::timeout`] bounds worker
//! *silence*, not slice duration — a slow slice on a live, heartbeating
//! worker never times out spuriously.
//!
//! # Warm pools and dispatch order
//!
//! Every backend keeps its workers in a [`crate::WorkerPool`]: a private
//! one made by [`SubprocessBackend::new`], or one shared across backends
//! through [`SubprocessBackend::with_pool`]. At campaign start the
//! backend checks idle workers out of the pool (re-pinging each with
//! `CampaignSubmit` and discarding any that died while parked) instead
//! of spawning, and at campaign end it parks healthy workers back with
//! `Drain` instead of killing them. Respawn becomes the exception, not
//! the per-campaign rule. Each worker's manager thread pops the next
//! slice from one shared FIFO queue in partition order; a slice lost
//! with its worker goes to the back. Results merge deterministically,
//! so dispatch order can never change campaign output, only wall time.
//!
//! # Fault handling
//!
//! Workers hold no campaign state — a job is a pure function of its
//! JSON — so every failure mode has the same cure: kill the process,
//! spawn a fresh one, hand the slice to someone else. The dispatcher
//! retries a slice after a crash (stdin/stdout closed), a reply timeout,
//! or a garbled reply, up to [`SubprocessBackend::max_retries`] times;
//! only then does the campaign abort with [`GridError::SliceLost`]. A
//! well-formed [`WorkerReply::Err`] is different: the worker is healthy
//! and the slice itself is bad, so it fails the campaign immediately
//! ([`GridError::SliceFailed`]) instead of burning retries. Worker
//! losses also bump a pool-wide failure streak that stretches the
//! respawn backoff — and the streak is reset at every campaign boundary,
//! so one bad campaign can never slow down the next.

use crate::backend::ExecBackend;
use crate::error::GridError;
use crate::slice::{GridSlice, SliceJob, SliceResult};
use crate::warm::{pool_key, WorkerPool};
use hyperroute_desim::splitmix64;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Version of the worker protocol spoken by this build. A dispatcher
/// opens every worker with `Hello` and refuses one that answers with a
/// different version.
pub const PROTOCOL_VERSION: u32 = 3;

/// One request line of the worker protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Protocol handshake: the dispatcher announces its version and the
    /// worker answers [`WorkerReply::HelloOk`] with its own.
    Hello {
        /// Dispatcher protocol version (see [`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Execute one slice's job.
    Slice(SliceJob),
    /// The worker is now serving this campaign. Doubles as the liveness
    /// ping when a worker is checked out of a warm pool: a parked
    /// process that died answers nothing and is discarded.
    CampaignSubmit {
        /// Dispatcher-local campaign sequence number.
        campaign: u64,
    },
    /// Park: the campaign is over, confirm idleness with
    /// [`WorkerReply::Drained`] and await the next `CampaignSubmit`.
    Drain,
    /// Retire: answer [`WorkerReply::Bye`] and exit cleanly.
    Shutdown,
}

/// One reply line of the worker protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkerReply {
    /// The slice executed; here are its reports.
    Ok(SliceResult),
    /// The slice failed deterministically (malformed job, invalid
    /// scenario); retrying it elsewhere cannot help.
    Err {
        /// Id of the failing slice (`u64::MAX` when the job line itself
        /// did not parse).
        id: u64,
        /// What went wrong.
        message: String,
    },
    /// Heartbeat for the slice currently executing. A worker may emit
    /// any number of these before the terminal `Ok`/`Err` line; each
    /// one proves the worker is alive and restarts the dispatcher's
    /// reply timeout. Heartbeats never carry results.
    Progress {
        /// Id of the slice being executed.
        id: u64,
        /// Grid points finished so far.
        done: usize,
        /// Grid points in the slice.
        total: usize,
        /// Throughput since the slice started (grid points per wall
        /// second).
        rows_per_sec: f64,
    },
    /// Answer to [`WorkerRequest::Hello`]: the worker's own protocol
    /// version.
    HelloOk {
        /// Worker protocol version (see [`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Answer to [`WorkerRequest::CampaignSubmit`], echoing the campaign
    /// number.
    CampaignAck {
        /// The campaign the worker now serves.
        campaign: u64,
    },
    /// Answer to [`WorkerRequest::Drain`]: the worker is idle and
    /// parked.
    Drained,
    /// Answer to [`WorkerRequest::Shutdown`], sent just before exiting.
    Bye,
}

/// Minimum wall-clock gap between two [`WorkerReply::Progress`] lines
/// from [`run_worker`] — frequent enough to outrun any sane dispatcher
/// timeout, rare enough to stay invisible in fast campaigns.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(5);

/// Ceiling on the timeout used for protocol control exchanges (Hello,
/// CampaignSubmit, Drain): a healthy idle worker answers these
/// instantly, so a long slice timeout must not stall pool checkout on a
/// corpse for minutes.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(5);

/// First-retry respawn delay (doubles per attempt, jittered ±50%; see
/// [`respawn_backoff`]).
const BACKOFF_BASE: Duration = Duration::from_millis(50);

/// Ceiling on the un-jittered respawn delay.
const BACKOFF_CAP: Duration = Duration::from_secs(2);

/// Serve the worker side of the protocol until `input` reaches EOF,
/// heartbeating at [`DEFAULT_HEARTBEAT`].
///
/// Every request line in is answered by exactly one **terminal** line
/// out (flushed), so a dispatcher can pipeline jobs without framing
/// ambiguity; long slices additionally interleave throttled
/// [`WorkerReply::Progress`] lines before the terminal reply. IO errors
/// on the streams end the loop — the dispatcher treats a vanished worker
/// as a retryable loss.
pub fn run_worker(input: impl BufRead, output: impl Write) -> std::io::Result<()> {
    run_worker_with(input, output, DEFAULT_HEARTBEAT)
}

/// [`run_worker`] with an explicit heartbeat interval: while a slice
/// executes, a [`WorkerReply::Progress`] line is emitted after any grid
/// point that completes at least `heartbeat` after the previous emission
/// (`Duration::ZERO` beats on every point). Heartbeats are best-effort —
/// a failed heartbeat write is dropped, and a genuinely broken pipe
/// still surfaces on the terminal reply.
pub fn run_worker_with(
    mut input: impl BufRead,
    mut output: impl Write,
    heartbeat: Duration,
) -> std::io::Result<()> {
    let mut buf = Vec::new();
    while let Some(request) = next_request::<WorkerRequest>(&mut input, &mut buf)? {
        let mut retire = false;
        let reply = match request {
            Ok(WorkerRequest::Hello { version: _ }) => WorkerReply::HelloOk {
                version: PROTOCOL_VERSION,
            },
            Ok(WorkerRequest::CampaignSubmit { campaign }) => WorkerReply::CampaignAck { campaign },
            Ok(WorkerRequest::Drain) => WorkerReply::Drained,
            Ok(WorkerRequest::Shutdown) => {
                retire = true;
                WorkerReply::Bye
            }
            Ok(WorkerRequest::Slice(job)) => {
                let id = job.id;
                let started = Instant::now();
                let mut last_beat = started;
                let outcome = job.execute_with(&mut |done, total| {
                    if last_beat.elapsed() < heartbeat {
                        return;
                    }
                    last_beat = Instant::now();
                    let secs = started.elapsed().as_secs_f64();
                    let beat = WorkerReply::Progress {
                        id,
                        done,
                        total,
                        rows_per_sec: if secs > 0.0 { done as f64 / secs } else { 0.0 },
                    };
                    let text = serde_json::to_string(&beat).expect("replies always serialise");
                    let _ = writeln!(output, "{text}").and_then(|()| output.flush());
                });
                match outcome {
                    Ok(result) => WorkerReply::Ok(result),
                    Err(e) => WorkerReply::Err {
                        id,
                        message: e.to_string(),
                    },
                }
            }
            Err(e) => WorkerReply::Err {
                id: u64::MAX,
                message: format!("request line does not parse: {e}"),
            },
        };
        let text = serde_json::to_string(&reply).expect("replies always serialise");
        writeln!(output, "{text}")?;
        output.flush()?;
        if retire {
            break;
        }
    }
    Ok(())
}

/// Read the next non-blank line of an NDJSON session and parse it as a
/// request `R`; `Ok(None)` at EOF. A line that is not UTF-8 or not an
/// `R` comes back as `Some(Err(why))`, so the session answers it and
/// keeps serving. Only an IO error on `input` ends the session.
pub(crate) fn next_request<R: for<'de> Deserialize<'de>>(
    input: &mut impl BufRead,
    buf: &mut Vec<u8>,
) -> std::io::Result<Option<Result<R, String>>> {
    loop {
        buf.clear();
        if input.read_until(b'\n', buf)? == 0 {
            return Ok(None);
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(buf);
        let line = match std::str::from_utf8(line) {
            Ok(line) => line,
            Err(e) => return Ok(Some(Err(format!("not UTF-8: {e}")))),
        };
        if !line.trim().is_empty() {
            return Ok(Some(serde_json::from_str(line).map_err(|e| e.to_string())));
        }
    }
}

/// Backend that fans slices out to subprocess workers.
///
/// Spawns up to [`SubprocessBackend::workers`] copies of
/// [`SubprocessBackend::worker_cmd`] and feeds each one slice at a time,
/// so grids scale across cores (or, with an ssh/container wrapper as the
/// command, across machines) without sharing memory. Worker processes
/// outlive the campaign: they park in a [`WorkerPool`] (private unless
/// [`SubprocessBackend::with_pool`] shares one) and serve the next one.
#[derive(Clone, Debug)]
pub struct SubprocessBackend {
    /// argv of the worker command (program first).
    pub worker_cmd: Vec<String>,
    /// Concurrent worker processes (`0` = hardware parallelism, like
    /// [`crate::ThreadPoolBackend`]; clamped to the job count).
    pub workers: usize,
    /// How long a worker may stay *silent* — no terminal reply, no
    /// [`WorkerReply::Progress`] heartbeat — before it is declared lost.
    /// Heartbeats restart this clock, so the bound is on liveness, not
    /// slice duration.
    pub timeout: Duration,
    /// How many times a slice is retried after losing a worker before
    /// the campaign aborts.
    pub max_retries: usize,
    /// Warm pool that keeps workers alive between campaigns.
    pool: Arc<WorkerPool>,
}

impl SubprocessBackend {
    /// Backend running `worker_cmd` on `workers` processes, with a
    /// 10-minute per-slice timeout, 2 retries, a 50 ms–2 s
    /// jittered-exponential respawn backoff, and a private warm pool.
    pub fn new(worker_cmd: Vec<String>, workers: usize) -> SubprocessBackend {
        SubprocessBackend {
            worker_cmd,
            workers,
            timeout: Duration::from_secs(600),
            max_retries: 2,
            pool: Arc::new(WorkerPool::new()),
        }
    }

    /// Backend whose workers are `hyperroute-grid worker` subprocesses of
    /// the currently running binary — the zero-configuration multi-core
    /// path used by the CLI.
    pub fn self_workers(workers: usize) -> Result<SubprocessBackend, GridError> {
        let exe = std::env::current_exe().map_err(|e| GridError::Spawn {
            cmd: "<current_exe>".into(),
            error: e.to_string(),
        })?;
        Ok(SubprocessBackend::new(
            vec![exe.display().to_string(), "worker".into()],
            workers,
        ))
    }

    /// Per-slice timeout (builder style).
    pub fn with_timeout(mut self, timeout: Duration) -> SubprocessBackend {
        self.timeout = timeout;
        self
    }

    /// Retry budget per slice (builder style).
    pub fn with_max_retries(mut self, max_retries: usize) -> SubprocessBackend {
        self.max_retries = max_retries;
        self
    }

    /// Park workers in `pool` instead of the private pool, so every
    /// backend given the same pool reuses one fleet (builder style).
    pub fn with_pool(mut self, pool: Arc<WorkerPool>) -> SubprocessBackend {
        self.pool = pool;
        self
    }

    /// Timeout for control exchanges: never longer than the slice
    /// timeout, never longer than [`HANDSHAKE_TIMEOUT`].
    fn handshake_timeout(&self) -> Duration {
        self.timeout.min(HANDSHAKE_TIMEOUT)
    }
}

/// Delay before respawning a worker for retry `attempt` (1-based) of the
/// slice with id `seed`: exponential `base · 2^(attempt-1)` capped at
/// `cap`, then jittered to 50–150% by a [`splitmix64`] draw of
/// `(seed, attempt)`.
///
/// The schedule is a pure function of its arguments — no clocks, no
/// global RNG — so a given slice retries on the same timetable in every
/// campaign run, while different slices (different seeds) spread their
/// respawns apart instead of stampeding a recovering machine together.
pub fn respawn_backoff(seed: u64, attempt: usize, base: Duration, cap: Duration) -> Duration {
    if base.is_zero() || attempt == 0 {
        return Duration::ZERO;
    }
    let doublings = (attempt - 1).min(31) as u32;
    let envelope = base.saturating_mul(1u32 << doublings).min(cap);
    // 53 uniform bits → [0, 1), mapped to a jitter factor in [0.5, 1.5).
    let u = (splitmix64(seed ^ attempt as u64) >> 11) as f64 / (1u64 << 53) as f64;
    envelope.mul_f64(0.5 + u)
}

/// A queue entry: which job, and how many times it has been attempted.
#[derive(Clone, Copy, Debug)]
struct Attempt {
    index: usize,
    attempts: usize,
}

/// What one job round on one worker produced.
enum RoundOutcome {
    /// The slice completed.
    Done(SliceResult),
    /// Unrecoverable (spawn failure, deterministic slice failure).
    Fatal(GridError),
    /// The worker was lost (crash / timeout / garbled reply); the slice
    /// should be retried on a fresh worker.
    Lost(String),
}

/// A live worker process: its stdin plus a channel of stdout lines fed
/// by a detached reader thread (the only way to read with a timeout
/// using std alone).
pub(crate) struct WorkerProc {
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<String>,
}

impl std::fmt::Debug for WorkerProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerProc")
            .field("pid", &self.child.id())
            .finish_non_exhaustive()
    }
}

impl WorkerProc {
    fn spawn(cmd: &[String]) -> Result<WorkerProc, GridError> {
        let spawn_err = |error: String| GridError::Spawn {
            cmd: cmd.join(" "),
            error,
        };
        let (program, args) = cmd
            .split_first()
            .ok_or_else(|| spawn_err("empty worker command".into()))?;
        let mut child = Command::new(program)
            .args(args)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| spawn_err(e.to_string()))?;
        let stdin = child.stdin.take().expect("stdin was piped");
        let stdout = child.stdout.take().expect("stdout was piped");
        let (tx, lines) = mpsc::channel();
        // Detached on purpose: it parks in a blocking read and exits on
        // EOF, which killing the child guarantees.
        std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines() {
                let Ok(line) = line else { break };
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        Ok(WorkerProc {
            child,
            stdin,
            lines,
        })
    }

    /// Write one protocol line, flushed.
    pub(crate) fn send_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("worker stdin closed: {e}"))
    }

    /// Await the next reply line within `timeout` and parse it.
    pub(crate) fn recv(&self, timeout: Duration) -> Result<WorkerReply, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => {
                serde_json::from_str(&line).map_err(|e| format!("garbled worker reply: {e}"))
            }
            Err(RecvTimeoutError::Timeout) => {
                Err(format!("no reply within {:.1}s", timeout.as_secs_f64()))
            }
            Err(RecvTimeoutError::Disconnected) => Err("worker exited before replying".into()),
        }
    }

    /// One control round-trip: send `request`, require `expect(reply)`.
    pub(crate) fn control(
        &mut self,
        request: &WorkerRequest,
        timeout: Duration,
        expect: impl Fn(&WorkerReply) -> bool,
    ) -> Result<WorkerReply, String> {
        let line = serde_json::to_string(request).expect("requests always serialise");
        self.send_line(&line)?;
        let reply = self.recv(timeout)?;
        if expect(&reply) {
            Ok(reply)
        } else {
            Err(format!("unexpected reply to {request:?}: {reply:?}"))
        }
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl SubprocessBackend {
    /// Obtain a worker for this campaign: checked out of the warm pool
    /// (re-pinged, stale corpses discarded) when one is available,
    /// freshly spawned and version-handshaked otherwise.
    fn acquire(&self, campaign: u64) -> Result<WorkerProc, RoundOutcome> {
        let key = pool_key(&self.worker_cmd);
        while let Some(mut idle) = self.pool.check_out(key) {
            // Liveness ping doubling as the campaign marker: a worker
            // that died while parked answers nothing and is discarded
            // (drop kills), falling through to the next idle one.
            let submit = WorkerRequest::CampaignSubmit { campaign };
            let ack = |r: &WorkerReply| matches!(r, WorkerReply::CampaignAck { campaign: c } if *c == campaign);
            if idle.control(&submit, self.handshake_timeout(), ack).is_ok() {
                self.pool.note_reuse();
                return Ok(idle);
            }
        }
        let mut proc = WorkerProc::spawn(&self.worker_cmd).map_err(RoundOutcome::Fatal)?;
        self.pool.note_spawn();
        let hello = WorkerRequest::Hello {
            version: PROTOCOL_VERSION,
        };
        match proc.control(&hello, self.handshake_timeout(), |r| {
            matches!(r, WorkerReply::HelloOk { .. })
        }) {
            Ok(WorkerReply::HelloOk { version }) if version == PROTOCOL_VERSION => {}
            Ok(WorkerReply::HelloOk { version }) => {
                return Err(RoundOutcome::Lost(format!(
                    "protocol version mismatch: worker speaks v{version}, dispatcher v{PROTOCOL_VERSION}"
                )));
            }
            Ok(_) => unreachable!("control() filtered non-HelloOk replies"),
            Err(e) => {
                return Err(RoundOutcome::Lost(format!(
                    "protocol handshake failed: {e}"
                )))
            }
        }
        let submit = WorkerRequest::CampaignSubmit { campaign };
        proc.control(
            &submit,
            self.handshake_timeout(),
            |r| matches!(r, WorkerReply::CampaignAck { campaign: c } if *c == campaign),
        )
        .map_err(|e| RoundOutcome::Lost(format!("campaign submit failed: {e}")))?;
        Ok(proc)
    }

    /// Park a healthy worker back into the pool at campaign end (`Drain`
    /// → `Drained`), or let drop kill it when draining fails or the
    /// campaign was cancelled.
    fn release(&self, proc: Option<WorkerProc>, cancelled: bool) {
        let Some(mut proc) = proc else { return };
        if cancelled {
            return; // failed campaign: don't trust the worker's state
        }
        let drained = proc
            .control(&WorkerRequest::Drain, self.handshake_timeout(), |r| {
                matches!(r, WorkerReply::Drained)
            })
            .is_ok();
        if drained {
            self.pool.check_in(pool_key(&self.worker_cmd), proc);
        }
    }

    /// Send one job to (possibly fresh) `proc` and await its reply.
    /// On [`RoundOutcome::Lost`] the caller must discard `proc`.
    fn one_round(
        &self,
        slice: &GridSlice,
        proc: &mut Option<WorkerProc>,
        campaign: u64,
    ) -> RoundOutcome {
        // The job comes first: a point that fails validation fails the
        // slice exactly as a worker's `Err` reply would, without
        // spawning or pinging a worker.
        let request = match slice.job() {
            Ok(job) => WorkerRequest::Slice(job),
            Err(e) => {
                return RoundOutcome::Fatal(GridError::SliceFailed {
                    slice: slice.id,
                    message: e.to_string(),
                })
            }
        };
        let line = serde_json::to_string(&request).expect("requests always serialise");
        if proc.is_none() {
            match self.acquire(campaign) {
                Ok(p) => *proc = Some(p),
                Err(outcome) => return outcome,
            }
        }
        let worker = proc.as_mut().expect("acquired above");
        if let Err(e) = worker.send_line(&line) {
            return RoundOutcome::Lost(e);
        }
        // Heartbeats are keep-alives: each Progress line for the pending
        // slice restarts the timeout, so only true silence is a loss.
        loop {
            return match worker.lines.recv_timeout(self.timeout) {
                Ok(line) => match serde_json::from_str::<WorkerReply>(&line) {
                    Ok(WorkerReply::Progress { id, .. }) if id == slice.id => continue,
                    Ok(WorkerReply::Progress { id, .. }) => RoundOutcome::Lost(format!(
                        "worker heartbeat for slice {id} while slice {} was pending",
                        slice.id
                    )),
                    Ok(WorkerReply::Ok(result)) if result.id == slice.id => {
                        RoundOutcome::Done(result)
                    }
                    Ok(WorkerReply::Ok(result)) => RoundOutcome::Lost(format!(
                        "worker answered slice {} while slice {} was pending",
                        result.id, slice.id
                    )),
                    Ok(WorkerReply::Err { id, message }) => {
                        RoundOutcome::Fatal(GridError::SliceFailed {
                            slice: if id == u64::MAX { slice.id } else { id },
                            message,
                        })
                    }
                    Ok(other) => RoundOutcome::Lost(format!(
                        "unexpected control reply while slice {} was pending: {other:?}",
                        slice.id
                    )),
                    Err(e) => RoundOutcome::Lost(format!("garbled worker reply: {e}")),
                },
                Err(RecvTimeoutError::Timeout) => RoundOutcome::Lost(format!(
                    "no reply or heartbeat within {:.1}s",
                    self.timeout.as_secs_f64()
                )),
                Err(RecvTimeoutError::Disconnected) => {
                    RoundOutcome::Lost("worker exited before replying".into())
                }
            };
        }
    }

    /// One manager loop: own a worker process, pop jobs off the shared
    /// FIFO queue, retry lost slices (at the back of the queue, so
    /// another manager may pick them up) until the queue drains or the
    /// campaign cancels; then park the worker in the warm pool.
    fn manage_worker(
        &self,
        jobs: &[GridSlice],
        queue: &Mutex<VecDeque<Attempt>>,
        cancelled: &AtomicBool,
        tx: &mpsc::Sender<Result<SliceResult, GridError>>,
        campaign: u64,
    ) {
        let mut proc: Option<WorkerProc> = None;
        loop {
            if cancelled.load(Ordering::Relaxed) {
                break;
            }
            let Some(job) = queue.lock().expect("dispatch queue lock").pop_front() else {
                break;
            };
            match self.one_round(&jobs[job.index], &mut proc, campaign) {
                RoundOutcome::Done(result) => {
                    if tx.send(Ok(result)).is_err() {
                        break;
                    }
                }
                RoundOutcome::Fatal(e) => {
                    let _ = tx.send(Err(e));
                    break;
                }
                RoundOutcome::Lost(reason) => {
                    proc = None; // drop kills the stale process
                    let attempts = job.attempts + 1;
                    if attempts > self.max_retries {
                        let _ = tx.send(Err(GridError::SliceLost {
                            slice: jobs[job.index].id,
                            attempts,
                            last_error: reason,
                        }));
                        break;
                    }
                    // Back off before the retry reaches a fresh process —
                    // a worker command that dies on startup would
                    // otherwise respawn in a tight fork loop. A pool-wide
                    // failure streak (reset each campaign) stretches the
                    // envelope when the whole fleet is struggling.
                    self.pool.note_loss();
                    let streak = self.pool.loss_streak().min(8);
                    std::thread::sleep(respawn_backoff(
                        jobs[job.index].id,
                        attempts + streak,
                        BACKOFF_BASE,
                        BACKOFF_CAP,
                    ));
                    queue
                        .lock()
                        .expect("dispatch queue lock")
                        .push_back(Attempt {
                            index: job.index,
                            attempts,
                        });
                }
            }
        }
        self.release(proc.take(), cancelled.load(Ordering::Relaxed));
    }
}

impl ExecBackend for SubprocessBackend {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        if jobs.is_empty() {
            return Ok(());
        }
        let hw = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let workers = if self.workers == 0 { hw } else { self.workers }
            .min(jobs.len())
            .max(1);
        // Campaign boundary: tag the campaign and wipe the pool-wide
        // failure streak so this campaign's backoff starts from a clean
        // slate.
        let campaign = self.pool.begin_campaign();
        let queue: Mutex<VecDeque<Attempt>> = Mutex::new(
            (0..jobs.len())
                .map(|index| Attempt { index, attempts: 0 })
                .collect(),
        );
        let cancelled = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<Result<SliceResult, GridError>>();
        std::thread::scope(|scope| -> Result<(), GridError> {
            for _ in 0..workers {
                let tx = tx.clone();
                let queue = &queue;
                let cancelled = &cancelled;
                scope.spawn(move || self.manage_worker(jobs, queue, cancelled, &tx, campaign));
            }
            drop(tx);
            let mut received = 0usize;
            for outcome in rx {
                let result = match outcome {
                    Ok(result) => result,
                    Err(e) => {
                        cancelled.store(true, Ordering::Relaxed);
                        return Err(e);
                    }
                };
                if let Err(e) = on_result(result) {
                    cancelled.store(true, Ordering::Relaxed);
                    return Err(e);
                }
                received += 1;
                if received == jobs.len() {
                    break;
                }
            }
            if received == jobs.len() {
                Ok(())
            } else {
                // Every manager exited without delivering the full batch
                // (all of them hit fatal sends racing the cancel flag, or
                // the queue drained into failures).
                Err(GridError::Merge(format!(
                    "workers delivered {received} of {} slices",
                    jobs.len()
                )))
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::partition;
    use hyperroute_core::scenario::{Axis, Scenario, Sweep, SweepParam, Topology};
    use std::io::Cursor;

    fn small_sweep() -> Sweep {
        let base = Scenario::builder(Topology::Hypercube { dim: 3 })
            .lambda(0.8)
            .p(0.5)
            .horizon(60.0)
            .warmup(10.0)
            .seed(5)
            .build()
            .unwrap();
        Sweep::new(base, vec![Axis::new(SweepParam::Lambda, vec![0.4, 0.8])])
    }

    /// The `WorkerRequest::Slice` line of one slice.
    fn slice_line(slice: &GridSlice) -> String {
        serde_json::to_string(&WorkerRequest::Slice(slice.job().unwrap())).unwrap()
    }

    /// One `WorkerRequest::Slice` line per slice.
    fn slice_lines(slices: &[GridSlice]) -> String {
        slices.iter().map(|s| slice_line(s) + "\n").collect()
    }

    /// Every reply line the worker wrote, heartbeats dropped.
    fn terminal_replies(output: Vec<u8>) -> Vec<WorkerReply> {
        String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .filter(|r| !matches!(r, WorkerReply::Progress { .. }))
            .collect()
    }

    #[test]
    fn worker_answers_each_job_line() {
        let slices = partition(&small_sweep(), 1);
        let input = slice_lines(&slices);
        let mut output = Vec::new();
        run_worker(Cursor::new(input), &mut output).unwrap();
        // Heartbeats are a side channel; only terminal replies frame jobs.
        let replies = terminal_replies(output);
        assert_eq!(replies.len(), slices.len());
        for (reply, slice) in replies.iter().zip(&slices) {
            let WorkerReply::Ok(result) = reply else {
                panic!("worker failed a valid slice: {reply:?}");
            };
            assert_eq!(result, &slice.execute().unwrap());
        }
    }

    #[test]
    fn worker_speaks_the_session_protocol() {
        let slices = partition(&small_sweep(), 1);
        let slice = &slices[0];
        let mut input = String::new();
        for request in [
            WorkerRequest::Hello {
                version: PROTOCOL_VERSION,
            },
            WorkerRequest::CampaignSubmit { campaign: 7 },
            WorkerRequest::Slice(slice.job().unwrap()),
            WorkerRequest::Drain,
            WorkerRequest::Shutdown,
        ] {
            input.push_str(&serde_json::to_string(&request).unwrap());
            input.push('\n');
        }
        let mut output = Vec::new();
        run_worker(Cursor::new(input), &mut output).unwrap();
        assert_eq!(
            terminal_replies(output),
            vec![
                WorkerReply::HelloOk {
                    version: PROTOCOL_VERSION
                },
                WorkerReply::CampaignAck { campaign: 7 },
                WorkerReply::Ok(slice.execute().unwrap()),
                WorkerReply::Drained,
                WorkerReply::Bye,
            ]
        );
    }

    #[test]
    fn worker_exits_cleanly_after_shutdown_ignoring_later_lines() {
        let shutdown = serde_json::to_string(&WorkerRequest::Shutdown).unwrap();
        let input = format!("{shutdown}\nnot json and never read\n");
        let mut output = Vec::new();
        run_worker(Cursor::new(input), &mut output).unwrap();
        let replies: Vec<WorkerReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        assert_eq!(replies, vec![WorkerReply::Bye]);
    }

    #[test]
    fn bare_slice_lines_are_rejected() {
        // A job must arrive framed as `WorkerRequest::Slice`; a bare job
        // line is a malformed request, answered without running.
        let slices = partition(&small_sweep(), 1);
        let bare = format!(
            "{}\n",
            serde_json::to_string(&slices[0].job().unwrap()).unwrap()
        );
        let mut output = Vec::new();
        run_worker_with(Cursor::new(bare), &mut output, Duration::ZERO).unwrap();
        let replies: Vec<WorkerReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        let [WorkerReply::Err { id, message }] = replies.as_slice() else {
            panic!("expected one Err reply and no heartbeat, got {replies:?}");
        };
        assert_eq!(*id, u64::MAX);
        assert!(message.contains("does not parse"), "{message}");
    }

    #[test]
    fn zero_interval_worker_heartbeats_every_row_before_the_terminal_reply() {
        let slices = partition(&small_sweep(), 100); // one slice, 2 points
        assert_eq!(slices.len(), 1);
        let slice = &slices[0];
        let input = slice_lines(&slices);
        let mut output = Vec::new();
        run_worker_with(Cursor::new(input), &mut output, Duration::ZERO).unwrap();
        let replies: Vec<WorkerReply> = String::from_utf8(output)
            .unwrap()
            .lines()
            .map(|l| serde_json::from_str(l).unwrap())
            .collect();
        // One heartbeat per grid point, then the terminal Ok — in order.
        let (beats, terminal) = replies.split_at(replies.len() - 1);
        assert_eq!(beats.len(), slice.len);
        for (i, beat) in beats.iter().enumerate() {
            let WorkerReply::Progress {
                id,
                done,
                total,
                rows_per_sec,
            } = beat
            else {
                panic!("expected a heartbeat, got {beat:?}");
            };
            assert_eq!(*id, slice.id);
            assert_eq!(*done, i + 1);
            assert_eq!(*total, slice.len);
            assert!(rows_per_sec.is_finite() && *rows_per_sec >= 0.0);
        }
        let WorkerReply::Ok(result) = &terminal[0] else {
            panic!("expected the terminal Ok, got {:?}", terminal[0]);
        };
        assert_eq!(result, &slice.execute().unwrap());
    }

    #[test]
    fn heartbeats_keep_a_slow_worker_alive_past_the_silence_timeout() {
        // A hand-rolled worker whose slice takes ~1.2s of wall time —
        // twice the 600ms silence timeout — but heartbeats every 300ms
        // through it: each heartbeat restarts the clock, so the
        // dispatcher must wait for the terminal reply instead of
        // declaring the worker lost (retries are disabled, so a spurious
        // timeout would fail the whole batch). It answers the handshake
        // and the first campaign's marker before reading the slice.
        let hello = serde_json::to_string(&WorkerReply::HelloOk {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        let script = format!(
            "read line; echo '{hello}'; {}",
            concat!(
                r#"read line; echo '{"CampaignAck":{"campaign":0}}'; "#,
                "read line; ",
                r#"for i in 1 2 3 4; do "#,
                r#"echo "{\"Progress\":{\"id\":0,\"done\":$i,\"total\":4,\"rows_per_sec\":1.0}}"; "#,
                "sleep 0.3; done; ",
                r#"echo '{"Ok":{"id":0,"start":0,"reports":[]}}'"#,
            )
        );
        let backend = SubprocessBackend::new(vec!["sh".into(), "-c".into(), script], 1)
            .with_timeout(Duration::from_millis(600))
            .with_max_retries(0);
        let jobs = partition(&small_sweep(), 100);
        let mut results = Vec::new();
        backend
            .execute(&jobs, &mut |r| {
                results.push(r);
                Ok(())
            })
            .unwrap();
        assert_eq!(results.len(), 1);
        assert_eq!(results[0].id, 0);
    }

    #[test]
    fn worker_reports_malformed_and_invalid_jobs_without_dying() {
        // A job reaches the worker as plain scenarios, so one can hold a
        // point that fails validation; it must be answered with an `Err`
        // for its id, and the next job must still run.
        let slices = partition(&small_sweep(), 1);
        let mut invalid = slices[0].job().unwrap();
        invalid.id = 5;
        invalid.scenarios[0].workload.p = 1.5;
        let input = format!(
            "not json\n{}\n{}\n",
            serde_json::to_string(&WorkerRequest::Slice(invalid)).unwrap(),
            slice_line(&slices[1]),
        );
        let mut output = Vec::new();
        run_worker(Cursor::new(input), &mut output).unwrap();
        let replies = terminal_replies(output);
        let [WorkerReply::Err { id: unparsed, .. }, WorkerReply::Err { id: failed, .. }, WorkerReply::Ok(result)] =
            replies.as_slice()
        else {
            panic!("expected Err, Err, Ok; got {replies:?}");
        };
        assert_eq!(*unparsed, u64::MAX);
        assert_eq!(*failed, 5);
        assert_eq!(result, &slices[1].execute().unwrap());
    }

    #[test]
    fn worker_answers_a_non_utf8_line_and_keeps_serving() {
        let hello = serde_json::to_string(&WorkerRequest::Hello {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend_from_slice(hello.as_bytes());
        input.push(b'\n');
        let mut output = Vec::new();
        run_worker(Cursor::new(input), &mut output).unwrap();
        let replies = terminal_replies(output);
        let [WorkerReply::Err { id, message }, hello_ok] = replies.as_slice() else {
            panic!("expected an Err and a HelloOk, got {replies:?}");
        };
        assert_eq!(*id, u64::MAX);
        assert!(message.contains("does not parse"), "{message}");
        assert_eq!(
            *hello_ok,
            WorkerReply::HelloOk {
                version: PROTOCOL_VERSION
            }
        );
    }

    #[test]
    fn slice_request_lines_hold_only_their_own_points() {
        // Point 0 derives the same scenario and seed in both sweeps, so
        // its one-point slice ships the same line whether the sweep has
        // one point or 2000.
        let base = small_sweep().base;
        let lambdas: Vec<f64> = (0..2000).map(|i| 0.4 + i as f64 * 1e-4).collect();
        let one = Sweep::new(
            base.clone(),
            vec![Axis::new(SweepParam::Lambda, vec![lambdas[0]])],
        );
        let many = Sweep::new(base, vec![Axis::new(SweepParam::Lambda, lambdas)]);
        let slices = partition(&many, 1);
        assert_eq!(slice_line(&partition(&one, 1)[0]), slice_line(&slices[0]));
        // Every slice of one partition shares one copy of the sweep.
        assert!(slices
            .iter()
            .all(|s| Arc::ptr_eq(&s.sweep, &slices[0].sweep)));
    }

    #[test]
    fn respawn_backoff_schedule_is_deterministic_per_retry_budget() {
        let (base, cap) = (Duration::from_millis(50), Duration::from_secs(2));
        // The schedule for a retry budget is a pure function of the
        // slice id: recomputing it gives the identical delays.
        let schedule = |seed: u64, budget: usize| -> Vec<Duration> {
            (1..=budget)
                .map(|attempt| respawn_backoff(seed, attempt, base, cap))
                .collect()
        };
        assert_eq!(schedule(42, 6), schedule(42, 6));
        // Every delay sits inside the jitter band of its attempt's
        // capped exponential envelope.
        for seed in [0u64, 42, u64::MAX] {
            for (i, delay) in schedule(seed, 10).iter().enumerate() {
                let envelope = base.saturating_mul(1 << i.min(31)).min(cap);
                assert!(
                    *delay >= envelope / 2 && *delay < envelope.mul_f64(1.5),
                    "seed {seed} attempt {}: {delay:?} outside [{:?}, {:?})",
                    i + 1,
                    envelope / 2,
                    envelope.mul_f64(1.5),
                );
            }
        }
        // The cap binds: deep retries stop growing.
        assert!(respawn_backoff(7, 30, base, cap) < cap.mul_f64(1.5));
        // Different slices jitter apart (anti-stampede), same envelope.
        assert_ne!(schedule(1, 4), schedule(2, 4));
        // Zero base disables the sleep for every attempt.
        assert_eq!(respawn_backoff(9, 3, Duration::ZERO, cap), Duration::ZERO);
    }

    #[test]
    fn empty_worker_command_is_a_spawn_error() {
        let backend = SubprocessBackend::new(vec![], 1);
        let jobs = partition(&small_sweep(), 1);
        let err = backend.execute(&jobs, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, GridError::Spawn { .. }), "{err}");
    }

    #[test]
    fn invalid_point_fails_its_slice_before_a_worker_is_spawned() {
        // The command cannot spawn, so reaching a worker would surface as
        // a spawn error; the invalid point must fail its slice first.
        let mut sweep = small_sweep();
        sweep.axes = vec![Axis::new(SweepParam::Lambda, vec![-1.0])];
        let backend = SubprocessBackend::new(vec![], 1);
        let err = backend
            .execute(&partition(&sweep, 1), &mut |_| Ok(()))
            .unwrap_err();
        assert!(
            matches!(err, GridError::SliceFailed { slice: 0, .. }),
            "{err}"
        );
        assert_eq!(backend.pool.spawns(), 0);
    }

    #[test]
    fn v1_only_stub_fails_the_pooled_handshake_and_never_enters_the_pool() {
        // Warm reuse with the real binary is covered in
        // tests/grid_exec.rs (CARGO_BIN_EXE is integration-test only);
        // here: a stub that answers every line with an error cannot pass
        // the handshake, so the slice burns its retries and the stub is
        // never parked.
        let script = r#"read line; echo '{"Err":{"id":18446744073709551615,"message":"v1 stub"}}'"#;
        let backend = SubprocessBackend::new(vec!["sh".into(), "-c".into(), script.into()], 1)
            .with_timeout(Duration::from_secs(5))
            .with_max_retries(0);
        let jobs = partition(&small_sweep(), 1);
        let err = backend.execute(&jobs, &mut |_| Ok(())).unwrap_err();
        assert!(matches!(err, GridError::SliceLost { .. }), "{err}");
        // The failed handshake never parks the stub in the pool.
        let pool = &backend.pool;
        assert_eq!(pool.idle_workers(), 0);
        assert!(pool.spawns() >= 1);
        assert_eq!(pool.reuses(), 0);
    }
}
