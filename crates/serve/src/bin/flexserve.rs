//! `flexserve` — the fault-tolerant sharded campaign job server.
//!
//! Submits fault-campaign jobs (sweep spec + workload set + recovery
//! policy) to a bounded priority queue and drains them across a
//! supervised work-stealing worker pool, journaling every finished
//! trial crash-safely so a `kill -9` mid-campaign resumes exactly
//! (`--resume`) with zero lost and zero duplicated trials.
//!
//! ```text
//! flexserve run       [job flags]... [server flags]...
//! flexserve serve     [server flags]... [--socket PATH]
//! flexserve submit    [job flags]... [--socket PATH] [--wait]
//! flexserve subscribe --id HEX [--socket PATH]
//! flexserve ping|status|drain [--socket PATH]
//! flexserve bench     [--trials N] [--json FILE]
//! ```
//!
//! `run` executes a batch inline and exits. `serve` is the long-lived
//! daemon: it listens on a Unix socket, admits `submit` requests while
//! draining the queue on one global worker pool, and keeps accepting
//! until a `drain` request — then finishes in-flight work, heartbeats,
//! and exits 0. The remaining subcommands are the bundled client: they
//! speak the daemon's newline-delimited JSON protocol, honor `rejected`
//! backpressure with bounded exponential backoff + deterministic
//! jitter, and surface the daemon's typed errors verbatim.
//!
//! Job flags (define one inline job; repeat `--spec FILE` for more):
//!
//! * `--spec FILE` — JSON job spec (repeatable; fields: name, seed,
//!   trials, workloads, lockstep, recover, sweep, reconfig, priority, policy)
//! * `--job NAME` `--seed N` `--trials N` `--workloads a,b`
//!   `--lockstep` `--recover` `--sweep` `--reconfig` `--priority N`
//!
//! Server flags:
//!
//! * `--journal-dir DIR` — journal directory (default
//!   `flexserve-journals`); each campaign gets `<hash>.jsonl` plus a
//!   `<hash>.trials.jsonl` merged log on completion
//! * `--workers N` — pool width (default: one per core)
//! * `--resume` — reuse completed trials from existing journals
//! * `--max-depth N` — queue admission bound (default 16)
//! * `--sync-every N` — journal fsync cadence in records (default 8)
//! * `--stop-after N` — stop claiming trials after N records (soft
//!   deterministic interruption; `kill -9` is the hard version)
//! * `--max-attempts N` / `--backoff-base-ms N` — supervision budget
//! * `--chaos-panic N` — deterministically panic the first attempt of
//!   ~1/N trials (supervision demo); `--chaos-all-attempts` escalates
//!   the selected trials to full quarantine
//! * `--trace FILE` — write a Chrome trace of worker/trial spans
//! * `--status FILE` — write a live `status.json` heartbeat
//!   (atomically replaced after every trial: queue depth, busy
//!   workers, trial counters, journal write/fsync latency histograms,
//!   trials/sec, monotone `seq`)
//! * `--progress` — per-trial progress lines with rate and ETA on
//!   stderr (stdout stays byte-deterministic)
//!
//! Exit codes: 0 all jobs completed; 1 quarantined trials or failed
//! jobs; 2 usage error; 3 interrupted (resume to finish).

use std::path::PathBuf;

use flexcore_bench::cli::Args;
use flexcore_serve::{
    Client, ClientError, Daemon, DaemonConfig, JobId, JobSpec, Journal, RetryPolicy, Server,
    ServerConfig, WorkerPolicy,
};

const USAGE: &str = "flexserve run [--spec FILE]... [--job NAME --seed N --trials N \
     --workloads a,b --lockstep --recover --sweep --reconfig --priority N] [--journal-dir DIR] \
     [--workers N] [--resume] [--max-depth N] [--sync-every N] [--stop-after N] \
     [--max-attempts N] [--backoff-base-ms N] [--chaos-panic N] [--chaos-all-attempts] \
     [--trace FILE] [--status FILE] [--progress]
       flexserve serve [server flags] [--socket PATH]
       flexserve submit [--spec FILE]... [job flags] [--socket PATH] [--wait] [retry flags]
       flexserve subscribe --id HEX [--socket PATH] [retry flags]
       flexserve ping|status|drain [--socket PATH] [retry flags]
       flexserve bench [--trials N] [--workloads a,b] [--json FILE]
retry flags: [--retry-attempts N] [--retry-base-ms N] [--retry-cap-ms N] [--retry-seed N]";

/// The jobs named by `--spec FILE` flags, plus the inline job defined
/// by `--job`/`--seed`/… flags — or the default job when no `--spec`
/// files were given either. Spec files are read after parsing ends.
fn job_flags(args: &mut Args) -> (Vec<String>, Option<JobSpec>) {
    let specs: Vec<String> = args.values("--spec");
    let d = JobSpec::default();
    let name = args.value("--job");
    let seed = args.value("--seed");
    let trials = args.value("--trials");
    let workloads = args.value::<String>("--workloads");
    let lockstep = args.flag("--lockstep");
    let recover = args.flag("--recover");
    let sweep = args.flag("--sweep");
    let reconfig = args.flag("--reconfig");
    let priority = args.value("--priority");
    let inline_flags_used = name.is_some()
        || seed.is_some()
        || trials.is_some()
        || workloads.is_some()
        || lockstep
        || recover
        || sweep
        || reconfig
        || priority.is_some();
    if !inline_flags_used && !specs.is_empty() {
        return (specs, None);
    }
    let inline = JobSpec {
        name: name.unwrap_or(d.name),
        seed: seed.unwrap_or(d.seed),
        trials: trials.unwrap_or(d.trials),
        workloads: workloads
            .map_or(d.workloads, |list| list.split(',').map(str::to_string).collect()),
        lockstep,
        recover,
        sweep,
        reconfig,
        priority: priority.unwrap_or(d.priority),
        policy: d.policy,
    };
    (specs, Some(inline))
}

fn server_config(args: &mut Args) -> ServerConfig {
    let d = ServerConfig::default();
    let p = WorkerPolicy::default();
    ServerConfig {
        journal_dir: args.value("--journal-dir").unwrap_or_else(|| "flexserve-journals".into()),
        worker_policy: WorkerPolicy {
            workers: args.value("--workers").unwrap_or(0),
            max_attempts: args.value("--max-attempts").unwrap_or(p.max_attempts),
            backoff_base_ms: args.value("--backoff-base-ms").unwrap_or(p.backoff_base_ms),
            backoff_cap_ms: p.backoff_cap_ms,
            chaos_panic_every: args.value("--chaos-panic"),
            chaos_all_attempts: args.flag("--chaos-all-attempts"),
        },
        max_depth: args.value("--max-depth").unwrap_or(d.max_depth),
        sync_every: args.value("--sync-every").unwrap_or(d.sync_every),
        resume: args.flag("--resume"),
        stop_after: args.value("--stop-after"),
        trace_path: args.value("--trace"),
        status_path: args.value("--status"),
        progress: args.flag("--progress"),
    }
}

/// Reads and parses `--spec` files, then appends the inline job.
fn load_jobs(specs: Vec<String>, inline: Option<JobSpec>, ctx: &str) -> Result<Vec<JobSpec>, i32> {
    let mut jobs = Vec::new();
    for path in specs {
        let parsed = std::fs::read_to_string(&path)
            .map_err(|e| e.to_string())
            .and_then(|text| JobSpec::from_json(&text).map_err(|e| e.to_string()));
        match parsed {
            Ok(spec) => jobs.push(spec),
            Err(e) => {
                eprintln!("{ctx}: {path}: {e}");
                return Err(2);
            }
        }
    }
    jobs.extend(inline);
    Ok(jobs)
}

fn cmd_run(mut args: Args) -> i32 {
    let (specs, inline) = job_flags(&mut args);
    let config = server_config(&mut args);
    args.finish();
    let jobs = match load_jobs(specs, inline, "flexserve") {
        Ok(jobs) => jobs,
        Err(code) => return code,
    };

    // Chaos panics are supervised by design; their default-hook
    // backtraces would drown the report.
    if config.worker_policy.chaos_panic_every.is_some() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    let server = Server::new(config);
    for spec in jobs {
        let name = spec.name.clone();
        match server.submit(spec) {
            Ok(id) => println!("flexserve: admitted `{name}` as campaign {id}"),
            Err(e) => println!("flexserve: refused `{name}`: {e}"),
        }
    }
    println!(
        "flexserve: draining {} queued job(s) on {} worker(s)",
        server.queue().depth(),
        server.config().worker_policy.pool_width()
    );

    let report = match server.run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("flexserve: {e}");
            return 2;
        }
    };
    let mut exit = 0;
    for job in &report.jobs {
        if print_job_summary(job) {
            exit = 1;
        }
    }
    let a = &report.admission;
    println!(
        "flexserve: admission: admitted {}, rejected {}, duplicates {}, shed {}",
        a.admitted, a.rejected, a.duplicates, a.shed
    );
    for shed in &report.shed {
        println!("flexserve: {shed}");
    }
    if report.interrupted {
        println!("flexserve: interrupted by --stop-after; rerun with --resume to finish");
        return 3;
    }
    exit
}

/// Prints one job's closing summary lines; returns true when the job
/// should fail the process (quarantines or a failed state).
fn print_job_summary(job: &flexcore_serve::JobSummary) -> bool {
    let s = &job.stats;
    println!(
        "flexserve: campaign {} `{}` {}: {} trials (executed {}, reused {}, retried {}, \
         quarantined {}) in {:.2}s",
        job.id,
        job.name,
        job.state,
        job.trials,
        s.executed,
        s.reused,
        s.retried,
        s.quarantined,
        s.elapsed_us as f64 / 1e6,
    );
    if let Some(c) = &job.compaction {
        if c.compacted {
            println!(
                "flexserve:   compacted: {} -> {} records (events {}, superseded {})",
                c.records_before, c.records_after, c.dropped_events, c.dropped_superseded
            );
        }
    }
    println!("flexserve:   journal: {}", job.journal.display());
    if let Some(merged) = &job.merged_log {
        println!("flexserve:   merged:  {}", merged.display());
    }
    s.quarantined > 0 || matches!(job.state, flexcore_serve::JobState::Failed(_))
}

fn socket_path(args: &mut Args) -> PathBuf {
    args.value("--socket").unwrap_or_else(|| PathBuf::from("flexserve.sock"))
}

/// `flexserve serve` — the long-lived daemon. Runs until a `drain`
/// request, then exits 0 with every admitted job finished and
/// journaled. Resume is always on: a killed daemon restarted on the
/// same journal dir replays completed trials instead of redoing them.
fn cmd_serve(mut args: Args) -> i32 {
    let config = DaemonConfig {
        socket_path: socket_path(&mut args),
        server: server_config(&mut args),
        ..DaemonConfig::default()
    };
    args.finish();
    if config.server.worker_policy.chaos_panic_every.is_some() {
        std::panic::set_hook(Box::new(|_| {}));
    }
    println!(
        "flexserve serve: listening on {} ({} worker(s), journals in {})",
        config.socket_path.display(),
        config.server.worker_policy.pool_width(),
        config.server.journal_dir.display()
    );
    match Daemon::new(config).run() {
        Ok(report) => {
            for job in &report.jobs {
                print_job_summary(job);
            }
            println!("flexserve serve: drained {} job(s), exiting", report.jobs.len());
            0
        }
        Err(e) => {
            eprintln!("flexserve serve: {e}");
            2
        }
    }
}

/// The daemon client named by `--socket` and the `--retry-*` flags.
fn client(args: &mut Args) -> Client {
    let d = RetryPolicy::default();
    Client::new(&socket_path(args)).with_retry(RetryPolicy {
        max_attempts: args.value("--retry-attempts").unwrap_or(d.max_attempts),
        base_ms: args.value("--retry-base-ms").unwrap_or(d.base_ms),
        cap_ms: args.value("--retry-cap-ms").unwrap_or(d.cap_ms),
        seed: args.value("--retry-seed").unwrap_or(d.seed),
    })
}

/// `flexserve ping|status|drain` — one request, response on stdout.
fn cmd_simple(mut args: Args, op: &str) -> i32 {
    let client = client(&mut args);
    args.finish();
    let result = match op {
        "ping" => client.ping(),
        "status" => client.status(),
        _ => client.drain(),
    };
    match result {
        Ok(v) => {
            println!("{}", serde::to_string(&v));
            0
        }
        Err(e) => {
            eprintln!("flexserve {op}: {e}");
            1
        }
    }
}

/// `flexserve submit` — sends job specs to a daemon, backing off on
/// `rejected` answers. `--wait` then subscribes each admitted job to
/// completion, streaming its trial lines to stdout.
fn cmd_submit(mut args: Args) -> i32 {
    let (specs, inline) = job_flags(&mut args);
    let client = client(&mut args);
    let wait = args.flag("--wait");
    args.finish();
    let jobs = match load_jobs(specs, inline, "flexserve submit") {
        Ok(jobs) => jobs,
        Err(code) => return code,
    };
    let mut admitted: Vec<JobId> = Vec::new();
    let mut exit = 0;
    for spec in &jobs {
        match client.submit(spec) {
            Ok(id) => {
                println!("flexserve: admitted `{}` as campaign {id}", spec.name);
                admitted.push(id);
            }
            Err(e @ ClientError::Refused { .. } | e @ ClientError::RetriesExhausted { .. }) => {
                eprintln!("flexserve submit: `{}`: {e}", spec.name);
                exit = 1;
            }
            Err(e) => {
                eprintln!("flexserve submit: {e}");
                return 2;
            }
        }
    }
    if wait {
        for id in admitted {
            if stream_job(&client, id) != 0 {
                exit = 1;
            }
        }
    }
    exit
}

/// Streams one job's feed to stdout through its terminal line.
fn stream_job(client: &Client, id: JobId) -> i32 {
    match client.subscribe(id, |line| println!("{}", serde::to_string(line))) {
        Ok(done) => {
            println!("{}", serde::to_string(&done));
            i32::from(done.get("state").and_then(serde::Value::as_str) != Some("completed"))
        }
        Err(e) => {
            eprintln!("flexserve subscribe: {e}");
            1
        }
    }
}

/// `flexserve subscribe --id HEX` — attaches to a running (or done)
/// job and streams its feed.
fn cmd_subscribe(mut args: Args) -> i32 {
    let id = args.value::<String>("--id").and_then(|s| u64::from_str_radix(&s, 16).ok());
    let client = client(&mut args);
    let Some(id) = id else {
        args.fail("subscribe needs --id HEX");
    };
    args.finish();
    stream_job(&client, JobId(id))
}

/// `flexserve bench` — trials/sec at 1, N/2, and N workers, written as
/// `BENCH_flexserve.json` for the CI benchmark trail.
fn cmd_bench(mut args: Args) -> i32 {
    let trials = args.value("--trials").unwrap_or(16);
    let out: String = args.value("--json").unwrap_or_else(|| "BENCH_flexserve.json".into());
    let workloads = match args.value::<String>("--workloads") {
        Some(list) => list.split(',').map(str::to_string).collect(),
        None => JobSpec::default().workloads,
    };
    args.finish();
    let cores = std::thread::available_parallelism().map_or(4, usize::from);
    let mut widths = vec![1, (cores / 2).max(1), cores];
    widths.dedup();
    println!("flexserve bench: {trials} trials/workload at pool widths {widths:?}");

    let spec = JobSpec { trials, workloads, ..JobSpec::default() };
    let mut points = Vec::new();
    for width in widths {
        let dir =
            std::env::temp_dir().join(format!("flexserve-bench-{}-{width}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let server = Server::new(ServerConfig {
            journal_dir: dir.clone(),
            worker_policy: WorkerPolicy { workers: width, ..WorkerPolicy::default() },
            ..ServerConfig::default()
        });
        if let Err(e) = server.submit(spec.clone()) {
            eprintln!("flexserve bench: {e}");
            return 2;
        }
        let report = match server.run() {
            Ok(r) => r,
            Err(e) => {
                eprintln!("flexserve bench: {e}");
                return 2;
            }
        };
        let stats = report.jobs[0].stats;
        let secs = stats.elapsed_us as f64 / 1e6;
        let rate = stats.executed as f64 / secs.max(1e-9);
        println!(
            "  {width:>2} worker(s): {} trials in {secs:.2}s = {rate:.1} trials/s",
            stats.executed
        );
        points.push(
            serde::Value::object()
                .field("workers", &(width as u64))
                .field("trials", &stats.executed)
                .field("elapsed_us", &stats.elapsed_us)
                .field("trials_per_sec", &rate)
                .build(),
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
    let doc = serde::Value::object()
        .field("bench", &"flexserve")
        .field("trials_per_workload", &(trials as u64))
        .raw("points", serde::Value::Array(points))
        .raw("admission", bench_admission())
        .raw("compaction", bench_compaction())
        .build();
    if let Err(e) = std::fs::write(&out, serde::to_string(&doc) + "\n") {
        eprintln!("flexserve bench: {out}: {e}");
        return 2;
    }
    println!("flexserve bench: wrote {out}");
    0
}

/// Admission-path latency row: how long `submit` takes while the
/// queue fills, and how fast a full queue turns a request away. The
/// daemon answers sockets on this same path, so this bounds its
/// admission overhead too.
fn bench_admission() -> serde::Value {
    const DEPTH: usize = 32;
    let server = Server::new(ServerConfig {
        journal_dir: std::env::temp_dir().join(format!("flexserve-adm-{}", std::process::id())),
        worker_policy: WorkerPolicy { workers: 1, ..WorkerPolicy::default() },
        max_depth: DEPTH,
        ..ServerConfig::default()
    });
    let mut admit_ns = Vec::with_capacity(DEPTH);
    for seed in 0..DEPTH as u64 {
        let spec = JobSpec { seed, trials: 1, ..JobSpec::default() };
        let t = std::time::Instant::now();
        let admitted = server.submit(spec).is_ok();
        admit_ns.push(t.elapsed().as_nanos() as u64);
        assert!(admitted, "queue below max_depth admits");
    }
    let t = std::time::Instant::now();
    let refused = server.submit(JobSpec { seed: u64::MAX, trials: 1, ..JobSpec::default() });
    let reject_ns = t.elapsed().as_nanos() as u64;
    assert!(refused.is_err(), "queue at max_depth refuses");
    admit_ns.sort_unstable();
    println!(
        "  admission: p50 {} ns, max {} ns over {DEPTH} submits; rejection {} ns",
        admit_ns[DEPTH / 2],
        admit_ns[DEPTH - 1],
        reject_ns
    );
    serde::Value::object()
        .field("submits", &(DEPTH as u64))
        .field("admit_ns_p50", &admit_ns[DEPTH / 2])
        .field("admit_ns_max", &admit_ns[DEPTH - 1])
        .field("reject_ns", &reject_ns)
        .build()
}

/// Compaction row: rewrite cost and shrink ratio for a journal bloated
/// by repeated interrupt/resume cycles (4 records per label + events).
fn bench_compaction() -> serde::Value {
    use flexcore_bench::trial::TrialOutcome;
    const LABELS: usize = 64;
    let spec = JobSpec::default();
    let dir = std::env::temp_dir().join(format!("flexserve-cmp-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench tmpdir");
    let path = dir.join(format!("{}.jsonl", spec.id()));
    let (mut j, _) =
        Journal::open(&path, &spec.header(), &spec.canonical(), false, 64).expect("journal");
    for round in 0..4u64 {
        j.append_event("job-resumed", serde::Value::object().field("round", &round).build())
            .expect("event");
        for label in 0..LABELS {
            let o = TrialOutcome { trapped: true, faults_injected: round, ..Default::default() };
            j.append_trial(&format!("bench trial {label}"), &o).expect("trial");
        }
    }
    j.sync().expect("sync");
    drop(j);
    let t = std::time::Instant::now();
    let report = Journal::compact(&path, &spec.canonical()).expect("compacts");
    let elapsed_us = t.elapsed().as_micros() as u64;
    let _ = std::fs::remove_dir_all(&dir);
    assert!(report.compacted && report.records_after == LABELS as u64);
    println!(
        "  compaction: {} -> {} records in {elapsed_us} us",
        report.records_before, report.records_after
    );
    serde::Value::object()
        .field("records_before", &report.records_before)
        .field("records_after", &report.records_after)
        .field("elapsed_us", &elapsed_us)
        .build()
}

fn main() {
    let mut args = Args::from_env(USAGE);
    let code = match args.subcommand().as_deref() {
        Some("run") => cmd_run(args),
        Some("serve") => cmd_serve(args),
        Some("submit") => cmd_submit(args),
        Some("subscribe") => cmd_subscribe(args),
        Some(op @ ("ping" | "status" | "drain")) => cmd_simple(args, op),
        Some("bench") => cmd_bench(args),
        Some(other) => args.fail(format!("unknown subcommand `{other}`")),
        None => args.fail("missing subcommand"),
    };
    std::process::exit(code);
}
