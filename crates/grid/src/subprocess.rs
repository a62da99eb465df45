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
//! opens the session with `Hello` (protocol version handshake), sends it
//! again as the liveness ping when it takes a parked worker out of the
//! warm pool, and retires a worker with `Shutdown`. A `Slice` request
//! carries the slice's [`SliceJob`]: the scenarios of its own points, not
//! the sweep they were cut from. A line that does not parse as a request
//! (a bare job, or a line that is not UTF-8) is answered with a
//! [`WorkerReply::Err`] whose id is `u64::MAX`.
//!
//! ```text
//! dispatcher → worker:  {"Hello":{"version":4}}\n   (at spawn, and at each pool checkout)
//! worker → dispatcher:  {"HelloOk":{"version":4}}\n
//! dispatcher → worker:  {"Slice":{"id":3,"start":12,"scenarios":[…]}}\n
//! worker → dispatcher:  {"Progress":{"id":3,"done":2,"total":4,"rows_per_sec":1.7}}\n  (zero or more)
//!                       {"Ok":{"id":3,"start":12,"reports":[…]}}\n
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
//! through [`SubprocessBackend::with_pool`]. A campaign is one
//! [`fan_out`] over its slices, and each fan-out thread owns at most one
//! worker process. A thread's first slice checks an idle worker of the
//! same argv out of the pool (re-pinged with `Hello`; one that died
//! while parked is discarded) or spawns one; when the batch ends, the
//! thread parks its worker back. A worker is parked only after its last
//! terminal reply was read, so it is idle. Respawn becomes the
//! exception, not the per-campaign rule. Slices go out in partition
//! order; results merge deterministically, so dispatch order can never
//! change campaign output, only wall time.
//!
//! # Fault handling
//!
//! Workers hold no campaign state — a job is a pure function of its
//! JSON — so every failure mode has the same cure: kill the process and
//! run the slice again on a fresh one. The thread that lost the worker
//! retries its slice after a crash (stdin/stdout closed), a reply
//! timeout, or a garbled reply, up to [`SubprocessBackend::max_retries`]
//! times; only then does the campaign abort with [`GridError::SliceLost`].
//! A well-formed [`WorkerReply::Err`] is different: the worker is healthy
//! and the slice itself is bad, so it fails the campaign immediately
//! ([`GridError::SliceFailed`]) instead of burning retries. Worker
//! losses also bump a pool-wide failure streak that stretches the
//! respawn backoff — and the streak is reset at every campaign boundary,
//! so one bad campaign can never slow down the next.

use crate::backend::ExecBackend;
use crate::error::GridError;
use crate::slice::{GridSlice, SliceJob, SliceResult};
use crate::warm::WorkerPool;
use hyperroute_core::runner::fan_out;
use hyperroute_desim::splitmix64;
use serde::{Deserialize, Serialize};
use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Version of the worker protocol spoken by this build. A dispatcher
/// opens every worker with `Hello` and refuses one that answers with a
/// different version.
pub const PROTOCOL_VERSION: u32 = 4;

/// One request line of the worker protocol.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkerRequest {
    /// Protocol handshake: the dispatcher announces its version and the
    /// worker answers [`WorkerReply::HelloOk`] with its own. Sent at spawn
    /// and again as the liveness ping when a worker is checked out of a
    /// warm pool: a parked process that died answers nothing and is
    /// discarded.
    Hello {
        /// Dispatcher protocol version (see [`PROTOCOL_VERSION`]).
        version: u32,
    },
    /// Execute one slice's job.
    Slice(SliceJob),
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
    /// Answer to [`WorkerRequest::Shutdown`], sent just before exiting.
    Bye,
}

/// Minimum wall-clock gap between two [`WorkerReply::Progress`] lines
/// from [`run_worker`] — frequent enough to outrun any sane dispatcher
/// timeout, rare enough to stay invisible in fast campaigns.
pub const DEFAULT_HEARTBEAT: Duration = Duration::from_secs(5);

/// Ceiling on the timeout of the `Hello` exchange: a healthy idle worker
/// answers it instantly, so a long slice timeout must not stall pool
/// checkout on a corpse for minutes.
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

/// Why one round on a worker did not produce the slice's result.
enum RoundError {
    /// Unrecoverable (spawn failure, deterministic slice failure).
    Fatal(GridError),
    /// The worker was lost (crash / timeout / garbled reply); the slice
    /// should be retried on a fresh worker.
    Lost(String),
}

/// A live worker process: the argv it was spawned from, its stdin, and
/// a channel of stdout lines fed by a detached reader thread (the only
/// way to read with a timeout using std alone).
pub(crate) struct WorkerProc {
    pub(crate) cmd: Vec<String>,
    child: Child,
    stdin: ChildStdin,
    lines: mpsc::Receiver<String>,
}

impl std::fmt::Debug for WorkerProc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerProc")
            .field("cmd", &self.cmd)
            .field("pid", &self.child.id())
            .finish_non_exhaustive()
    }
}

impl WorkerProc {
    pub(crate) fn spawn(cmd: &[String]) -> Result<WorkerProc, GridError> {
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
            cmd: cmd.to_vec(),
            child,
            stdin,
            lines,
        })
    }

    /// Write one protocol line, flushed.
    fn send_line(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("worker stdin closed: {e}"))
    }

    /// Await the next reply line within `timeout` and parse it.
    fn recv(&self, timeout: Duration) -> Result<WorkerReply, String> {
        match self.lines.recv_timeout(timeout) {
            Ok(line) => {
                serde_json::from_str(&line).map_err(|e| format!("garbled worker reply: {e}"))
            }
            Err(RecvTimeoutError::Timeout) => Err(format!(
                "no reply or heartbeat within {:.1}s",
                timeout.as_secs_f64()
            )),
            Err(RecvTimeoutError::Disconnected) => Err("worker exited before replying".into()),
        }
    }

    /// One control round trip: send `request`, await its reply.
    pub(crate) fn control(
        &mut self,
        request: &WorkerRequest,
        timeout: Duration,
    ) -> Result<WorkerReply, String> {
        self.send_line(&serde_json::to_string(request).expect("requests always serialise"))?;
        self.recv(timeout)
    }
}

impl Drop for WorkerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl SubprocessBackend {
    /// `Hello` → `HelloOk` with this build's protocol version: the
    /// handshake of a fresh worker and the liveness ping of a parked one.
    fn hello(&self, worker: &mut WorkerProc) -> Result<(), String> {
        let hello = WorkerRequest::Hello {
            version: PROTOCOL_VERSION,
        };
        match worker.control(&hello, self.timeout.min(HANDSHAKE_TIMEOUT)) {
            Ok(WorkerReply::HelloOk {
                version: PROTOCOL_VERSION,
            }) => Ok(()),
            Ok(WorkerReply::HelloOk { version }) => Err(format!(
                "protocol version mismatch: worker speaks v{version}, dispatcher v{PROTOCOL_VERSION}"
            )),
            Ok(other) => Err(format!("protocol handshake failed: unexpected reply {other:?}")),
            Err(e) => Err(format!("protocol handshake failed: {e}")),
        }
    }

    /// A worker for this thread: an idle one of the same argv checked out
    /// of the warm pool (re-pinged; one that died while parked is
    /// dropped, which kills it), or a freshly spawned, handshaked one.
    fn acquire(&self) -> Result<WorkerProc, RoundError> {
        while let Some(mut idle) = self.pool.check_out(&self.worker_cmd) {
            if self.hello(&mut idle).is_ok() {
                self.pool.note_reuse();
                return Ok(idle);
            }
        }
        let mut worker = WorkerProc::spawn(&self.worker_cmd).map_err(RoundError::Fatal)?;
        self.pool.note_spawn();
        self.hello(&mut worker).map_err(RoundError::Lost)?;
        Ok(worker)
    }

    /// Send one job line to this thread's worker (acquiring one first if
    /// it has none) and await the slice's terminal reply. On
    /// [`RoundError::Lost`] the caller must discard the worker.
    fn one_round(
        &self,
        worker: &mut Option<WorkerProc>,
        line: &str,
        id: u64,
    ) -> Result<SliceResult, RoundError> {
        let worker = match worker {
            Some(worker) => worker,
            None => worker.insert(self.acquire()?),
        };
        worker.send_line(line).map_err(RoundError::Lost)?;
        // Heartbeats are keep-alives: each Progress line for the pending
        // slice restarts the timeout, so only true silence is a loss.
        loop {
            return match worker.recv(self.timeout) {
                Ok(WorkerReply::Progress { id: beat, .. }) if beat == id => continue,
                Ok(WorkerReply::Ok(result)) if result.id == id => Ok(result),
                Ok(WorkerReply::Ok(result)) => Err(RoundError::Lost(format!(
                    "worker answered slice {} while slice {id} was pending",
                    result.id
                ))),
                Ok(WorkerReply::Err {
                    id: failed,
                    message,
                }) => Err(RoundError::Fatal(GridError::SliceFailed {
                    slice: if failed == u64::MAX { id } else { failed },
                    message,
                })),
                Ok(other) => Err(RoundError::Lost(format!(
                    "unexpected reply while slice {id} was pending: {other:?}"
                ))),
                Err(e) => Err(RoundError::Lost(e)),
            };
        }
    }

    /// Run one slice on this thread's worker, retrying it on a fresh
    /// process after each loss until the retry budget is spent.
    fn run_slice(
        &self,
        worker: &mut Option<WorkerProc>,
        slice: &GridSlice,
    ) -> Result<SliceResult, GridError> {
        // The job comes first: a point that fails validation fails the
        // slice exactly as a worker's `Err` reply would, without
        // spawning or pinging a worker.
        let job = slice.job().map_err(|e| GridError::SliceFailed {
            slice: slice.id,
            message: e.to_string(),
        })?;
        let line =
            serde_json::to_string(&WorkerRequest::Slice(job)).expect("requests always serialise");
        let mut attempts = 0;
        loop {
            let reason = match self.one_round(worker, &line, slice.id) {
                Ok(result) => return Ok(result),
                Err(RoundError::Fatal(e)) => return Err(e),
                Err(RoundError::Lost(reason)) => reason,
            };
            *worker = None; // drop kills the stale process
            attempts += 1;
            if attempts > self.max_retries {
                return Err(GridError::SliceLost {
                    slice: slice.id,
                    attempts,
                    last_error: reason,
                });
            }
            // Back off before the retry reaches a fresh process — a
            // worker command that dies on startup would otherwise respawn
            // in a tight fork loop. A pool-wide failure streak (reset each
            // campaign) stretches the envelope when the whole fleet is
            // struggling.
            self.pool.note_loss();
            let streak = self.pool.loss_streak().min(8);
            std::thread::sleep(respawn_backoff(
                slice.id,
                attempts + streak,
                BACKOFF_BASE,
                BACKOFF_CAP,
            ));
        }
    }
}

impl ExecBackend for SubprocessBackend {
    fn execute(
        &self,
        jobs: &[GridSlice],
        on_result: &mut dyn FnMut(SliceResult) -> Result<(), GridError>,
    ) -> Result<(), GridError> {
        // Campaign boundary: wipe the pool-wide failure streak so this
        // campaign's backoff starts from a clean slate.
        self.pool.begin_campaign();
        fan_out(
            jobs,
            self.workers,
            || None,
            |worker, slice| self.run_slice(worker, slice),
            |worker, stopped| {
                // A stopped batch does not trust its workers' state: drop
                // kills them.
                if let (Some(worker), false) = (worker, stopped) {
                    self.pool.check_in(worker);
                }
            },
            |_, result| on_result(result),
        )
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
            WorkerRequest::Slice(slice.job().unwrap()),
            WorkerRequest::Hello {
                version: PROTOCOL_VERSION,
            },
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
                WorkerReply::Ok(slice.execute().unwrap()),
                WorkerReply::HelloOk {
                    version: PROTOCOL_VERSION
                },
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
        // before reading the slice.
        let hello = serde_json::to_string(&WorkerReply::HelloOk {
            version: PROTOCOL_VERSION,
        })
        .unwrap();
        let script = format!(
            "read line; echo '{hello}'; {}",
            concat!(
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
