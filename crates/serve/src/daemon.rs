//! The long-lived `flexserve serve` daemon: socket admission while the
//! scheduler drains.
//!
//! `Server::run` is a batch drain — submit first, then run to empty.
//! The daemon inverts the lifecycle: it binds a Unix-domain socket,
//! accepts newline-delimited JSON requests (`submit`, `status`,
//! `subscribe`, `drain`, `ping`) **concurrently** with the scheduler
//! loop draining the queue onto the one global
//! [`WorkerPool`](crate::pool::WorkerPool), and keeps doing so until
//! told to drain. Every answer is a single JSON line; every failure is
//! a typed error object, never a dropped connection with no diagnosis.
//!
//! ## Lifecycle state machine
//!
//! ```text
//! accepting ──drain request──▶ draining ──queue empty──▶ stopped
//! ```
//!
//! * **accepting** — submissions admitted (subject to backpressure:
//!   a full queue answers `rejected` with `retry_after_ms`, a known
//!   campaign answers `duplicate`).
//! * **draining** — admission refuses every `submit` with a typed
//!   `draining` error; queued and in-flight jobs run to completion and
//!   are journaled; `status`/`subscribe`/`ping` still answered.
//! * **stopped** — a final heartbeat is written, the socket file is
//!   removed, and [`Daemon::run`] returns so the process can exit 0.
//!
//! The drain trigger is a **socket request**, not a signal handler:
//! this workspace forbids `unsafe` everywhere (and vendors no libc),
//! so `SIGTERM` cannot be intercepted in-process. `flexserve client
//! drain` is the graceful path; an actual `SIGTERM`/`SIGKILL` at any
//! point is the crash path, which the crash-safe journals already
//! cover — the next `serve`/`run --resume` replays to the identical
//! state. That trade is deliberate and tested, not an accident.
//!
//! ## Robustness contracts
//!
//! * A malformed, oversized, or torn-off request affects only its own
//!   connection: the handler thread answers (or gives up) and dies;
//!   in-flight trials never notice.
//! * Subscription feeds are fed from the scheduler's record observer;
//!   a subscriber that vanishes mid-stream just drops its channel.
//! * All wall-clock fields in responses are `host_`-prefixed so CI
//!   byte-diffs can strip them with the existing `grep -v '"host_'`.

use std::collections::HashMap;
use std::io::{BufRead as _, BufReader, Read as _, Write as _};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use flexcore_bench::trial;
use flexcore_telemetry::RateMeter;
use serde::{Deserialize, Value};

use crate::admission::AdmitError;
use crate::health::{HealthMetrics, Heartbeat};
use crate::job::{JobId, JobSpec, JobSpecError};
use crate::journal::JournalError;
use crate::scheduler::{JobSummary, Server, ServerConfig};
use crate::worker::{TrialFailure, TrialRecord};

/// Where the daemon is in its lifecycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DaemonPhase {
    /// Admitting submissions and draining the queue.
    Accepting,
    /// Admission closed; finishing queued and in-flight work.
    Draining,
    /// Drained and shut down; the socket is gone.
    Stopped,
}

impl DaemonPhase {
    fn from_u8(v: u8) -> DaemonPhase {
        match v {
            0 => DaemonPhase::Accepting,
            1 => DaemonPhase::Draining,
            _ => DaemonPhase::Stopped,
        }
    }

    /// The wire name (`accepting`/`draining`/`stopped`).
    pub fn as_str(&self) -> &'static str {
        match self {
            DaemonPhase::Accepting => "accepting",
            DaemonPhase::Draining => "draining",
            DaemonPhase::Stopped => "stopped",
        }
    }
}

impl std::fmt::Display for DaemonPhase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Daemon knobs on top of the scheduler's [`ServerConfig`].
#[derive(Clone, Debug)]
pub struct DaemonConfig {
    /// The Unix-domain socket to listen on (created on start, removed
    /// on clean shutdown; a stale file from a crash is replaced).
    pub socket_path: PathBuf,
    /// Scheduler/journal/pool configuration. The daemon forces
    /// `resume` on: a restarted daemon must pick campaigns up where
    /// the previous incarnation was killed.
    pub server: ServerConfig,
    /// Hard cap on one request line; longer requests are answered
    /// with a typed `oversized` error and the connection is closed.
    pub max_request_bytes: usize,
    /// Per-connection read timeout — a client that connects and goes
    /// silent cannot pin a handler thread forever.
    pub read_timeout: Duration,
    /// How long the scheduler waits for work before writing an idle
    /// heartbeat and re-checking the drain flag.
    pub idle_heartbeat: Duration,
}

impl Default for DaemonConfig {
    fn default() -> DaemonConfig {
        DaemonConfig {
            socket_path: PathBuf::from("flexserve.sock"),
            server: ServerConfig::default(),
            max_request_bytes: 64 * 1024,
            read_timeout: Duration::from_secs(10),
            idle_heartbeat: Duration::from_millis(500),
        }
    }
}

/// Why the daemon could not run.
#[derive(Debug)]
pub enum DaemonError {
    /// Socket setup/teardown failure.
    Socket {
        /// The socket path.
        path: PathBuf,
        /// The underlying error.
        error: std::io::Error,
    },
    /// A journal failure in the scheduler loop (journals are the
    /// durability story — the daemon refuses to run without them).
    Journal(JournalError),
}

impl std::fmt::Display for DaemonError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DaemonError::Socket { path, error } => write!(f, "{}: {error}", path.display()),
            DaemonError::Journal(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for DaemonError {}

impl From<JournalError> for DaemonError {
    fn from(e: JournalError) -> DaemonError {
        DaemonError::Journal(e)
    }
}

/// What a full daemon lifetime (start → drain → stop) did.
#[derive(Debug, Default)]
pub struct DaemonReport {
    /// Per-job summaries in the order they were drained.
    pub jobs: Vec<JobSummary>,
}

/// Per-job bookkeeping for `status`/`subscribe`.
enum JobTrack {
    Queued,
    Running,
    Done(Value),
}

struct Shared {
    server: Server,
    config: DaemonConfig,
    phase: AtomicU8,
    metrics: HealthMetrics,
    uptime: RateMeter,
    jobs: Mutex<HashMap<JobId, JobTrack>>,
    subs: Mutex<HashMap<JobId, Vec<Sender<String>>>>,
}

impl Shared {
    fn phase(&self) -> DaemonPhase {
        DaemonPhase::from_u8(self.phase.load(Ordering::Acquire))
    }

    fn set_phase(&self, phase: DaemonPhase) {
        self.phase.store(phase as u8, Ordering::Release);
    }

    fn track(&self, id: JobId, state: JobTrack) {
        self.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(id, state);
    }

    /// Sends one line to every live subscriber of `id`, dropping the
    /// ones whose client has disconnected.
    fn feed(&self, id: JobId, line: &str) {
        let mut subs = self.subs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(senders) = subs.get_mut(&id) {
            senders.retain(|tx| tx.send(line.to_string()).is_ok());
        }
    }

    /// Sends the terminal line and closes every feed for `id`.
    fn finish_feeds(&self, id: JobId, line: &str) {
        let mut subs = self.subs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(senders) = subs.remove(&id) {
            for tx in senders {
                let _ = tx.send(line.to_string());
            }
        }
    }
}

/// The long-lived campaign daemon. [`Daemon::run`] blocks until a
/// drain request completes the lifecycle.
#[derive(Debug)]
pub struct Daemon {
    config: DaemonConfig,
}

impl Daemon {
    /// A daemon with the given configuration.
    pub fn new(mut config: DaemonConfig) -> Daemon {
        // Crash-safe resume is the daemon's durability contract, not
        // an option.
        config.server.resume = true;
        Daemon { config }
    }

    /// Binds the socket, serves until drained, and returns the report.
    ///
    /// Blocks the calling thread (it becomes the scheduler loop); the
    /// listener and each connection get their own threads.
    pub fn run(self) -> Result<DaemonReport, DaemonError> {
        let socket_path = self.config.socket_path.clone();
        std::fs::create_dir_all(&self.config.server.journal_dir).map_err(|error| {
            DaemonError::Journal(JournalError::Io {
                path: self.config.server.journal_dir.clone(),
                error,
            })
        })?;
        // A stale socket file from a SIGKILLed incarnation would make
        // bind fail with AddrInUse; nothing can be listening on it
        // (we're the daemon), so replace it.
        match std::fs::remove_file(&socket_path) {
            Ok(()) => {}
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(error) => return Err(DaemonError::Socket { path: socket_path, error }),
        }
        let listener = UnixListener::bind(&socket_path)
            .map_err(|error| DaemonError::Socket { path: socket_path.clone(), error })?;

        let status_path = self.config.server.status_path.clone();
        let shared = Arc::new(Shared {
            server: Server::new(self.config.server.clone()),
            config: self.config,
            phase: AtomicU8::new(DaemonPhase::Accepting as u8),
            metrics: HealthMetrics::new(),
            uptime: RateMeter::start(),
            jobs: Mutex::new(HashMap::new()),
            subs: Mutex::new(HashMap::new()),
        });

        let accept_shared = Arc::clone(&shared);
        let acceptor = std::thread::Builder::new()
            .name("flexserve-accept".into())
            .spawn(move || accept_loop(&listener, &accept_shared))
            .map_err(|error| DaemonError::Socket { path: socket_path.clone(), error })?;

        let mut heartbeat = status_path.map(|p| Heartbeat::new(&p));
        let report = scheduler_loop(&shared, heartbeat.as_mut());

        // Stopped: wake the acceptor with a throwaway connection so
        // its blocking accept() returns and sees the phase change.
        shared.set_phase(DaemonPhase::Stopped);
        if let Ok(stream) = UnixStream::connect(&socket_path) {
            drop(stream);
        }
        let _ = acceptor.join();
        let _ = std::fs::remove_file(&socket_path);

        // The final heartbeat of the graceful-drain contract.
        if let Some(hb) = heartbeat.as_mut() {
            shared.metrics.queue_depth.set(shared.server.queue().depth() as u64);
            shared.metrics.sync_admission(&shared.server.queue().stats());
            let _ = hb.write(&shared.metrics);
        }
        report.map_err(DaemonError::from)
    }
}

/// The scheduler half: pop → run on the global pool → journal → feed
/// subscribers, with idle heartbeats in between, until drained.
fn scheduler_loop(
    shared: &Arc<Shared>,
    mut heartbeat: Option<&mut Heartbeat>,
) -> Result<DaemonReport, JournalError> {
    let mut report = DaemonReport::default();
    let mut spans: Vec<(String, TrialRecord)> = Vec::new();
    let mut trace_base_us = 0u64;
    if let Some(hb) = heartbeat.as_deref_mut() {
        let _ = hb.write(&shared.metrics);
    }
    loop {
        match shared.server.queue().pop_timeout(shared.config.idle_heartbeat) {
            Some(spec) => {
                let id = spec.id();
                shared.track(id, JobTrack::Running);
                shared.metrics.queue_depth.set(shared.server.queue().depth() as u64);
                let mut hooks = crate::scheduler::RunHooks {
                    spans: &mut spans,
                    trace_base_us,
                    metrics: Some(&shared.metrics),
                    heartbeat: heartbeat.as_deref_mut(),
                    observer: &mut |record| {
                        shared.feed(id, &serde::to_string(&trial_line(id, record)))
                    },
                };
                let summary = shared.server.run_one(&spec, None, &mut hooks)?;
                trace_base_us += summary.stats.elapsed_us;
                let done = done_line(&summary);
                shared.metrics.jobs_completed.inc();
                shared.track(id, JobTrack::Done(done.clone()));
                shared.finish_feeds(id, &serde::to_string(&done));
                report.jobs.push(summary);
            }
            None => {
                shared.metrics.queue_depth.set(shared.server.queue().depth() as u64);
                shared.metrics.sync_admission(&shared.server.queue().stats());
                if let Some(hb) = heartbeat.as_deref_mut() {
                    let _ = hb.write(&shared.metrics);
                }
                if shared.phase() == DaemonPhase::Draining && shared.server.queue().depth() == 0 {
                    return Ok(report);
                }
            }
        }
    }
}

fn accept_loop(listener: &UnixListener, shared: &Arc<Shared>) {
    loop {
        let stream = match listener.accept() {
            Ok((stream, _)) => stream,
            Err(_) => continue,
        };
        if shared.phase() == DaemonPhase::Stopped {
            return;
        }
        let conn_shared = Arc::clone(shared);
        let spawned = std::thread::Builder::new()
            .name("flexserve-conn".into())
            .spawn(move || handle_connection(&conn_shared, &stream));
        // Thread exhaustion degrades to a dropped connection, not a
        // dead daemon.
        drop(spawned);
    }
}

/// What reading one request line produced.
enum Request {
    Line(String),
    Oversized,
    /// EOF before a newline — the client vanished mid-request.
    Disconnected,
    Failed,
}

fn read_request(stream: &UnixStream, max_bytes: usize, timeout: Duration) -> Request {
    if stream.set_read_timeout(Some(timeout)).is_err() {
        return Request::Failed;
    }
    let mut limited = BufReader::new(stream.take(max_bytes as u64 + 1));
    let mut buf = Vec::new();
    match limited.read_until(b'\n', &mut buf) {
        Ok(0) => Request::Disconnected,
        Ok(_) if buf.len() > max_bytes => Request::Oversized,
        Ok(_) if !buf.ends_with(b"\n") => Request::Disconnected,
        Ok(_) => match String::from_utf8(buf) {
            Ok(line) => Request::Line(line),
            Err(_) => Request::Failed,
        },
        Err(_) => Request::Failed,
    }
}

fn respond(mut stream: &UnixStream, v: &Value) {
    let mut line = serde::to_string(v);
    line.push('\n');
    // A write failure means the client is gone; its problem, not ours.
    let _ = stream.write_all(line.as_bytes());
}

fn error_value(error: &str) -> serde::ObjectBuilder {
    Value::object().field("ok", &false).field("error", &error)
}

fn handle_connection(shared: &Arc<Shared>, stream: &UnixStream) {
    let line =
        match read_request(stream, shared.config.max_request_bytes, shared.config.read_timeout) {
            Request::Line(line) => line,
            Request::Oversized => {
                shared.metrics.requests_refused.inc();
                respond(
                    stream,
                    &error_value("oversized")
                        .field("limit_bytes", &(shared.config.max_request_bytes as u64))
                        .build(),
                );
                return;
            }
            // Mid-request disconnects and read failures get no response
            // (there is nobody to answer) and disturb nothing else.
            Request::Disconnected | Request::Failed => {
                shared.metrics.requests_refused.inc();
                return;
            }
        };
    let parsed = match serde::from_str(line.trim()) {
        Ok(v) => v,
        Err(e) => {
            shared.metrics.requests_refused.inc();
            respond(stream, &error_value("malformed").field("detail", &e.to_string()).build());
            return;
        }
    };
    shared.metrics.requests_total.inc();
    match parsed.get("op").and_then(Value::as_str) {
        Some("ping") => respond(
            stream,
            &Value::object()
                .field("ok", &true)
                .field("op", &"ping")
                .field("service", &"flexserve")
                .field("phase", &shared.phase().as_str())
                .build(),
        ),
        Some("status") => respond(stream, &status_value(shared)),
        Some("submit") => handle_submit(shared, stream, &parsed),
        Some("subscribe") => handle_subscribe(shared, stream, &parsed),
        Some("drain") => {
            // Ack FIRST: once the phase flips, an idle scheduler can
            // finish the whole shutdown before this detached handler
            // thread gets another time slice, and the process would
            // exit with the ack unsent.
            respond(
                stream,
                &Value::object()
                    .field("ok", &true)
                    .field("op", &"drain")
                    .field("phase", &"draining")
                    .build(),
            );
            if shared.phase() == DaemonPhase::Accepting {
                shared.set_phase(DaemonPhase::Draining);
            }
            // Wake the scheduler so an idle daemon notices now, not at
            // the next heartbeat tick.
            shared.server.queue().kick();
        }
        Some(op) => {
            shared.metrics.requests_refused.inc();
            respond(stream, &error_value("unknown-op").field("detail", &op).build());
        }
        None => {
            shared.metrics.requests_refused.inc();
            respond(
                stream,
                &error_value("malformed").field("detail", &"request has no `op` field").build(),
            );
        }
    }
}

fn handle_submit(shared: &Arc<Shared>, stream: &UnixStream, parsed: &Value) {
    if shared.phase() != DaemonPhase::Accepting {
        shared.metrics.requests_refused.inc();
        respond(
            stream,
            &error_value("draining")
                .field("detail", &"admission is closed; the daemon is draining")
                .build(),
        );
        return;
    }
    let Some(job) = parsed.get("job") else {
        shared.metrics.requests_refused.inc();
        respond(
            stream,
            &error_value("malformed").field("detail", &"submit request has no `job` field").build(),
        );
        return;
    };
    let spec = match JobSpec::from_value(job) {
        Ok(spec) => spec,
        Err(e) => {
            shared.metrics.requests_refused.inc();
            let detail = JobSpecError::from(e).to_string();
            respond(stream, &error_value("bad-job").field("detail", &detail).build());
            return;
        }
    };
    match shared.server.submit(spec) {
        Ok(id) => {
            shared.metrics.jobs_admitted.inc();
            shared.metrics.queue_depth.set(shared.server.queue().depth() as u64);
            shared.track(id, JobTrack::Queued);
            respond(
                stream,
                &Value::object()
                    .field("ok", &true)
                    .field("op", &"submit")
                    .field("id", &id.to_string())
                    .build(),
            );
        }
        Err(AdmitError::Rejected { depth, max_depth, retry_after_ms }) => {
            shared.metrics.sync_admission(&shared.server.queue().stats());
            respond(
                stream,
                &error_value("rejected")
                    .field("depth", &(depth as u64))
                    .field("max_depth", &(max_depth as u64))
                    .field("retry_after_ms", &retry_after_ms)
                    .build(),
            );
        }
        Err(AdmitError::Duplicate { id }) => {
            respond(stream, &error_value("duplicate").field("id", &id.to_string()).build());
        }
    }
}

fn handle_subscribe(shared: &Arc<Shared>, stream: &UnixStream, parsed: &Value) {
    let id = parsed
        .get("id")
        .and_then(Value::as_str)
        .and_then(|s| u64::from_str_radix(s, 16).ok())
        .map(JobId);
    let Some(id) = id else {
        shared.metrics.requests_refused.inc();
        respond(
            stream,
            &error_value("malformed")
                .field("detail", &"subscribe needs an `id` field (16-hex-digit campaign hash)")
                .build(),
        );
        return;
    };
    let rx = {
        let jobs = shared.jobs.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        match jobs.get(&id) {
            // Already terminal: replay the terminal line and be done.
            Some(JobTrack::Done(done)) => {
                respond(stream, done);
                return;
            }
            Some(_) => {
                let (tx, rx) = std::sync::mpsc::channel();
                shared
                    .subs
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .entry(id)
                    .or_default()
                    .push(tx);
                rx
            }
            None => {
                shared.metrics.requests_refused.inc();
                respond(stream, &error_value("unknown-job").field("id", &id.to_string()).build());
                return;
            }
        }
    };
    // Stream the feed. Subscription lines can be minutes apart on a
    // long campaign, so lift the read-side timeout semantics: we only
    // write. A dead client surfaces as a failed write and ends the
    // feed without touching the job.
    shared.metrics.subscribers.inc();
    let mut writer = stream;
    for line in rx {
        let mut out = line;
        out.push('\n');
        if writer.write_all(out.as_bytes()).is_err() {
            break;
        }
    }
    shared.metrics.subscribers.dec();
}

/// One streamed trial-record line: the deterministic outcome record
/// (shared with `faultsweep`'s JSONL) wrapped with job identity;
/// wall-clock spans are `host_`-prefixed.
fn trial_line(id: JobId, record: &TrialRecord) -> Value {
    let base = Value::object()
        .field("stream", &"trial")
        .field("id", &id.to_string())
        .field("index", &(record.index as u64))
        .field("attempts", &u64::from(record.attempts));
    let base = match &record.outcome {
        Ok(outcome) => base.raw("record", trial::outcome_record(&record.label, outcome)),
        Err(TrialFailure::Panicked { attempts, last_message }) => base
            .field("label", &record.label)
            .field("quarantined", &true)
            .field("failed_attempts", &u64::from(*attempts))
            .field("failure", &last_message.as_str()),
    };
    base.field("host_dur_us", &record.dur_us).build()
}

/// The terminal subscription line for a drained job.
fn done_line(summary: &JobSummary) -> Value {
    Value::object()
        .field("stream", &"done")
        .field("id", &summary.id.to_string())
        .field("name", &summary.name)
        .field("state", &summary.state.to_string())
        .field("trials", &summary.trials)
        .field("executed", &summary.stats.executed)
        .field("reused", &summary.stats.reused)
        .field("retried", &summary.stats.retried)
        .field("quarantined", &summary.stats.quarantined)
        .build()
}

/// The `status` response: phase + deterministic counters, with the
/// only wall-clock scalar `host_`-prefixed.
fn status_value(shared: &Shared) -> Value {
    shared.metrics.sync_admission(&shared.server.queue().stats());
    let m = &shared.metrics;
    Value::object()
        .field("ok", &true)
        .field("op", &"status")
        .field("service", &"flexserve")
        .field("phase", &shared.phase().as_str())
        .field("queue_depth", &(shared.server.queue().depth() as u64))
        .field("workers", &(shared.server.pool().width() as u64))
        .field("busy_workers", &m.busy_workers.get())
        .field("jobs_admitted", &m.jobs_admitted.get())
        .field("jobs_completed", &m.jobs_completed.get())
        .field("trials_executed", &m.trials_executed.get())
        .field("trials_quarantined", &m.trials_quarantined.get())
        .field("backpressure_rejections", &m.backpressure_rejections.get())
        .field("jobs_shed", &m.jobs_shed.get())
        .field("subscribers", &m.subscribers.get())
        .field("journal_compactions", &m.journal_compactions.get())
        .field("requests_total", &m.requests_total.get())
        .field("requests_refused", &m.requests_refused.get())
        .field("host_uptime_secs", &shared.uptime.elapsed_secs())
        .build()
}
