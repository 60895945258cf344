//! End-to-end daemon tests: a real `Daemon` on a real Unix socket,
//! driven by the bundled `Client` and by raw (hostile) connections.
//!
//! These are the in-process halves of the CI `flexserve-daemon-soak`
//! contracts: admission while draining jobs, streaming subscription,
//! typed refusals for malformed/oversized/draining requests, client
//! disconnects that disturb nothing, and a graceful drain that ends
//! the lifecycle with every admitted trial journaled.

use std::io::Write as _;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use flexcore_serve::{
    Client, ClientError, Daemon, DaemonConfig, JobSpec, RetryPolicy, ServerConfig, WorkerPolicy,
};
use serde::Value;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("flexserve-daemon-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("tmpdir");
    dir
}

fn daemon_config(dir: &Path, workers: usize, max_depth: usize) -> DaemonConfig {
    DaemonConfig {
        socket_path: dir.join("flexserve.sock"),
        server: ServerConfig {
            journal_dir: dir.join("journals"),
            worker_policy: WorkerPolicy { workers, ..WorkerPolicy::default() },
            max_depth,
            status_path: Some(dir.join("status.json")),
            ..ServerConfig::default()
        },
        idle_heartbeat: Duration::from_millis(50),
        ..DaemonConfig::default()
    }
}

/// Starts a daemon on its own thread and waits until the socket
/// answers pings.
fn start_daemon(
    config: DaemonConfig,
) -> (Client, std::thread::JoinHandle<Result<flexcore_serve::daemon::DaemonReport, String>>) {
    let socket = config.socket_path.clone();
    let handle = std::thread::spawn(move || Daemon::new(config).run().map_err(|e| e.to_string()));
    let client = Client::new(&socket);
    for _ in 0..200 {
        if client.ping().is_ok() {
            return (client, handle);
        }
        std::thread::sleep(Duration::from_millis(10));
    }
    panic!("daemon never came up on {}", socket.display());
}

fn job(name: &str, trials: usize) -> JobSpec {
    JobSpec { name: name.into(), trials, workloads: vec!["bitcount".into()], ..JobSpec::default() }
}

#[test]
fn daemon_admits_streams_and_drains_gracefully() {
    let dir = tmpdir("lifecycle");
    let (client, handle) = start_daemon(daemon_config(&dir, 2, 8));

    let ping = client.ping().expect("ping");
    assert_eq!(ping.get("phase").and_then(Value::as_str), Some("accepting"));

    let spec = job("lifecycle", 6);
    let id = client.submit(&spec).expect("admitted");
    assert_eq!(id, spec.id(), "the daemon echoes the campaign hash");

    // Subscribe and collect the live feed through to the terminal line.
    let mut streamed = 0u64;
    let done = client
        .subscribe(id, |line| {
            assert_eq!(line.get("stream").and_then(Value::as_str), Some("trial"));
            assert_eq!(line.get("id").and_then(Value::as_str), Some(id.to_string().as_str()));
            streamed += 1;
        })
        .expect("feed reaches the terminal line");
    assert_eq!(done.get("state").and_then(Value::as_str), Some("completed"));
    let executed = done.get("executed").and_then(Value::as_u64).expect("executed");
    let reused = done.get("reused").and_then(Value::as_u64).expect("reused");
    assert_eq!(executed + reused, 6, "every trial accounted for");
    assert!(streamed <= executed, "the feed never invents records");

    // A second subscribe after completion replays the terminal line.
    let replay = client.subscribe(id, |_| panic!("no trial lines on replay")).expect("replay");
    assert_eq!(replay.get("executed").and_then(Value::as_u64), Some(executed));

    // status reflects the drained queue and carries only host_-prefixed
    // wall-clock fields.
    let status = client.status().expect("status");
    assert_eq!(status.get("queue_depth").and_then(Value::as_u64), Some(0));
    assert_eq!(status.get("jobs_admitted").and_then(Value::as_u64), Some(1));
    assert_eq!(status.get("jobs_completed").and_then(Value::as_u64), Some(1));
    assert!(status.get("host_uptime_secs").is_some());
    assert!(status.get("uptime_secs").is_none(), "wall-clock fields must be host_-prefixed");

    // Graceful drain: ack, refuse new work, finish, return, clean up.
    let ack = client.drain().expect("drain ack");
    assert_eq!(ack.get("phase").and_then(Value::as_str), Some("draining"));
    let refused = client.submit(&job("late", 2)).expect_err("admission closed");
    let ClientError::Refused { kind, .. } = refused else {
        panic!("expected a typed refusal, got {refused:?}");
    };
    assert_eq!(kind, "draining");

    let report = handle.join().expect("daemon thread").expect("clean drain");
    assert_eq!(report.jobs.len(), 1);
    assert!(!daemon_config(&dir, 2, 8).socket_path.exists(), "socket removed on shutdown");
    // The journal + merged log survive for resume/inspection.
    assert!(report.jobs[0].merged_log.is_some());
    // The final heartbeat of the drain contract was written.
    let status_text = std::fs::read_to_string(dir.join("status.json")).expect("heartbeat");
    assert!(status_text.contains("\"host_uptime_secs\""));
}

#[test]
fn hostile_requests_get_typed_errors_and_disturb_nothing() {
    let dir = tmpdir("hostile");
    let mut config = daemon_config(&dir, 1, 8);
    config.max_request_bytes = 4096;
    let socket = config.socket_path.clone();
    let (client, handle) = start_daemon(config);

    // Keep the daemon busy so the hostile traffic overlaps real work.
    let id = client.submit(&job("victim", 12)).expect("admitted");

    let raw = |payload: &[u8]| -> String {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(payload).expect("write");
        let mut line = String::new();
        use std::io::BufRead as _;
        std::io::BufReader::new(s).read_line(&mut line).expect("read");
        line
    };

    // Malformed JSON → typed error on that connection only.
    assert!(raw(b"this is not json\n").contains("\"malformed\""));
    // Valid JSON, no op → malformed.
    assert!(raw(b"{\"hello\":1}\n").contains("\"malformed\""));
    // Unknown op → typed unknown-op.
    assert!(raw(b"{\"op\":\"explode\"}\n").contains("\"unknown-op\""));
    // A job spec with an out-of-range field → typed bad-job naming it.
    let bad = raw(b"{\"op\":\"submit\",\"job\":{\"priority\":300}}\n");
    assert!(bad.contains("\"bad-job\"") && bad.contains("priority: 300 does not fit"), "{bad}");
    // Oversized request → typed oversized with the limit.
    let huge = format!("{{\"op\":\"submit\",\"pad\":\"{}\"}}\n", "x".repeat(8192));
    assert!(raw(huge.as_bytes()).contains("\"oversized\""));
    // Mid-request disconnect: no newline, just vanish.
    drop(UnixStream::connect(&socket).expect("connect"));
    {
        let mut s = UnixStream::connect(&socket).expect("connect");
        s.write_all(b"{\"op\":\"sub").expect("half a request");
        drop(s);
    }

    // Unknown subscription id → typed unknown-job.
    let err = client.subscribe(flexcore_serve::JobId(0xdead_beef), |_| {}).expect_err("unknown");
    assert!(
        matches!(err, ClientError::Refused { ref kind, .. } if kind == "unknown-job"),
        "{err:?}"
    );

    // Through all of that, the victim job completes with nothing lost.
    let done = client.subscribe(id, |_| {}).expect("feed");
    assert_eq!(done.get("state").and_then(Value::as_str), Some("completed"));
    let executed = done.get("executed").and_then(Value::as_u64).unwrap_or(0);
    let reused = done.get("reused").and_then(Value::as_u64).unwrap_or(0);
    assert_eq!(executed + reused, 12, "hostile connections cost zero trials");

    client.drain().expect("drain");
    let report = handle.join().expect("daemon thread").expect("clean drain");
    assert_eq!(report.jobs.len(), 1);
}

#[test]
fn duplicate_submissions_are_typed_while_the_original_is_alive() {
    let dir = tmpdir("duplicate");
    // One worker and two queued jobs: the second stays queued long
    // enough to collide with deterministically.
    let (client, handle) = start_daemon(daemon_config(&dir, 1, 8));
    let first = job("first", 12);
    let second = job("second", 10);
    client.submit(&first).expect("admitted");
    client.submit(&second).expect("admitted");
    let err = client.submit(&second).expect_err("already queued");
    let ClientError::Refused { kind, response } = err else {
        panic!("expected typed duplicate, got a different error");
    };
    assert_eq!(kind, "duplicate");
    assert_eq!(response.get("id").and_then(Value::as_str), Some(second.id().to_string().as_str()));
    client.drain().expect("drain");
    let report = handle.join().expect("daemon thread").expect("drain finishes queued work");
    assert_eq!(report.jobs.len(), 2, "draining still ran every admitted job");
}

#[test]
fn saturation_answers_rejected_with_retry_hint_and_client_backs_off() {
    let dir = tmpdir("saturation");
    // Depth 1 and slow drain: the queue is full the moment one job
    // queues behind the running one.
    let (client, handle) = start_daemon(daemon_config(&dir, 1, 1));
    client.submit(&job("running", 16)).expect("admitted");
    client.submit(&job("queued", 16)).expect("admitted");

    // Same-priority overload: a one-shot client sees the typed
    // rejection with a usable hint.
    let one_shot =
        client.clone().with_retry(RetryPolicy { max_attempts: 1, ..RetryPolicy::default() });
    let err = one_shot.submit(&job("overflow", 4)).expect_err("queue full");
    let ClientError::RetriesExhausted { attempts, last_hint_ms } = err else {
        panic!("expected exhausted retries, got a different error");
    };
    assert_eq!(attempts, 1);
    assert!(last_hint_ms > 0, "rejection carries a retry_after_ms hint");

    // A patient client backs off per the hint and eventually lands the
    // job once the queue drains.
    let patient = client.clone().with_retry(RetryPolicy {
        max_attempts: 60,
        base_ms: 25,
        cap_ms: 500,
        seed: 42,
    });
    patient.submit(&job("patient", 4)).expect("backoff wins through the saturation");

    client.drain().expect("drain");
    let report = handle.join().expect("daemon thread").expect("clean drain");
    assert_eq!(report.jobs.len(), 3, "running + queued + patient all drained");
}
