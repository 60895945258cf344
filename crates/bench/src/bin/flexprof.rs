//! `flexprof` — phase-attributed host-time profiler for the simulator
//! itself.
//!
//! Runs every workload under every monitoring extension (fabric at the
//! paper's clock divisor) with the
//! [`PhaseProfiler`](flexcore_telemetry::PhaseProfiler) attached and
//! writes two artifacts that seed the repo's performance trajectory:
//!
//! * `BENCH_profile.json` — per-run host-time breakdown across the
//!   phase taxonomy (fetch/decode, execute, fabric eval, FIFO
//!   accounting, meta-cache, checkpoint, journal write/fsync), with
//!   per-phase shares of attributed time plus totals across the sweep.
//! * `BENCH_sim_throughput.json` — per-run simulated instructions and
//!   cycles per host second, with the sweep geomean.
//!
//! ```text
//! flexprof [--profile FILE] [--throughput FILE] [--workloads a,b]
//! flexprof check BASELINE CURRENT [--tolerance PCT]
//! ```
//!
//! `check` compares per-phase **shares** (percentage points of
//! attributed time), not absolute nanoseconds: wall-clock shifts with
//! the machine, but the *shape* of where simulation time goes should
//! not. A phase whose share moved more than the tolerance (default 20
//! points) is a regression; exit code 1. Absolute throughput is
//! reported but never gated — CI machines differ too much for that to
//! be a stable signal.

use std::collections::BTreeMap;

use flexcore_bench::{cli::Args, geomean, paper_config, run_extension_profiled, ExtKind};
use flexcore_telemetry::{Phase, PhaseStats};
use flexcore_workloads::Workload;
use serde::Value;

struct ProfiledRun {
    workload: String,
    extension: &'static str,
    instret: u64,
    cycles: u64,
    host_ns: u64,
    insns_per_sec: f64,
    cycles_per_sec: f64,
    stats: PhaseStats,
}

fn phase_breakdown(stats: &PhaseStats) -> (Value, u64) {
    let attributed = stats.grand_total_ns();
    let mut obj = Value::object();
    for phase in Phase::all() {
        let total = stats.total_ns(phase);
        let share = if attributed == 0 { 0.0 } else { total as f64 / attributed as f64 };
        obj = obj.raw(
            phase.name(),
            Value::object()
                .field("count", &stats.count(phase))
                .field("total_ns", &total)
                .field("share", &share)
                .build(),
        );
    }
    (obj.build(), attributed)
}

fn run_sweep(workloads: &[Workload]) -> Vec<ProfiledRun> {
    let mut runs = Vec::new();
    for workload in workloads {
        for ext in ExtKind::ALL {
            let (r, stats) = run_extension_profiled(workload, ext, paper_config(ext));
            eprintln!(
                "flexprof: {:>12} x {:<4} {:>9} insns in {:>7.3}s  ({:.0} sim insns/s)",
                workload.name(),
                ext.name(),
                r.instret,
                r.host_secs(),
                r.sim_insns_per_sec(),
            );
            runs.push(ProfiledRun {
                workload: workload.name().to_string(),
                extension: ext.name(),
                instret: r.instret,
                cycles: r.cycles,
                host_ns: r.host_ns,
                insns_per_sec: r.sim_insns_per_sec(),
                cycles_per_sec: r.sim_cycles_per_sec(),
                stats,
            });
        }
    }
    runs
}

fn profile_doc(runs: &[ProfiledRun]) -> Value {
    let mut out = Vec::new();
    let mut totals = PhaseStats::new();
    let mut total_host_ns = 0u64;
    for run in runs {
        let (phases, attributed) = phase_breakdown(&run.stats);
        let unattributed =
            if run.host_ns == 0 { 0.0 } else { 1.0 - attributed as f64 / run.host_ns as f64 };
        out.push(
            Value::object()
                .field("workload", &run.workload)
                .field("extension", &run.extension)
                .field("instret", &run.instret)
                .field("cycles", &run.cycles)
                .field("host_ns", &run.host_ns)
                .field("host_sim_insns_per_sec", &run.insns_per_sec)
                .raw("phases", phases)
                .field("attributed_ns", &attributed)
                .field("unattributed_share", &unattributed.max(0.0))
                .build(),
        );
        totals.merge(&run.stats);
        total_host_ns = total_host_ns.saturating_add(run.host_ns);
    }
    let (total_phases, total_attributed) = phase_breakdown(&totals);
    Value::object()
        .field("bench", &"flexprof")
        .field("runs_count", &(runs.len() as u64))
        .raw("runs", Value::Array(out))
        .raw(
            "totals",
            Value::object()
                .field("host_ns", &total_host_ns)
                .field("attributed_ns", &total_attributed)
                .raw("phases", total_phases)
                .build(),
        )
        .build()
}

fn throughput_doc(runs: &[ProfiledRun]) -> Value {
    let mut rows = Vec::new();
    let mut rates = Vec::new();
    for run in runs {
        rows.push(
            Value::object()
                .field("workload", &run.workload)
                .field("extension", &run.extension)
                .field("instret", &run.instret)
                .field("cycles", &run.cycles)
                .field("host_ns", &run.host_ns)
                .field("host_sim_insns_per_sec", &run.insns_per_sec)
                .field("host_sim_cycles_per_sec", &run.cycles_per_sec)
                .build(),
        );
        if run.insns_per_sec > 0.0 {
            rates.push(run.insns_per_sec);
        }
    }
    let gm = if rates.is_empty() { 0.0 } else { geomean(&rates) };
    Value::object()
        .field("bench", &"sim_throughput")
        .raw("rows", Value::Array(rows))
        .field("geomean_sim_insns_per_sec", &gm)
        .build()
}

fn cmd_run(mut args: Args) -> i32 {
    let profile_path: String =
        args.value("--profile").unwrap_or_else(|| "BENCH_profile.json".into());
    let throughput_path: String =
        args.value("--throughput").unwrap_or_else(|| "BENCH_sim_throughput.json".into());
    let all = Workload::all();
    let workloads: Vec<Workload> = match args.value::<String>("--workloads") {
        Some(list) => list
            .split(',')
            .filter_map(|name| {
                let found = all.iter().find(|w| w.name() == name).copied();
                if found.is_none() {
                    args.error(format!("unknown workload `{name}`"));
                }
                found
            })
            .collect(),
        None => all.to_vec(),
    };
    args.finish();
    eprintln!(
        "flexprof: profiling {} workload(s) x {} extensions",
        workloads.len(),
        ExtKind::ALL.len()
    );
    let runs = run_sweep(&workloads);
    for (path, doc) in
        [(&profile_path, profile_doc(&runs)), (&throughput_path, throughput_doc(&runs))]
    {
        let mut text = serde::to_string_pretty(&doc);
        text.push('\n');
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("flexprof: {path}: {e}");
            return 2;
        }
        println!("flexprof: wrote {path}");
    }
    0
}

/// `(workload, extension) -> phase -> share` from a profile document.
fn shares_by_run(doc: &Value) -> BTreeMap<(String, String), BTreeMap<String, f64>> {
    let mut out = BTreeMap::new();
    let Some(runs) = doc.get("runs").and_then(Value::as_array) else { return out };
    for run in runs {
        let (Some(w), Some(e)) = (
            run.get("workload").and_then(Value::as_str),
            run.get("extension").and_then(Value::as_str),
        ) else {
            continue;
        };
        let mut shares = BTreeMap::new();
        if let Some(Value::Object(phases)) = run.get("phases") {
            for (name, p) in phases {
                if let Some(s) = p.get("share").and_then(Value::as_f64) {
                    shares.insert(name.clone(), s);
                }
            }
        }
        out.insert((w.to_string(), e.to_string()), shares);
    }
    out
}

fn cmd_check(mut args: Args) -> i32 {
    let tolerance_points = args.value("--tolerance").unwrap_or(20.0);
    let (Some(baseline_path), Some(current_path)) = (args.positional(), args.positional()) else {
        args.fail("check needs BASELINE CURRENT");
    };
    args.finish();
    let (baseline_path, current_path) = (baseline_path.as_str(), current_path.as_str());
    let read = |path: &str| -> Value {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("flexprof: {path}: {e}");
            std::process::exit(2);
        });
        serde::from_str(&text).unwrap_or_else(|e| {
            eprintln!("flexprof: {path}: invalid JSON: {e:?}");
            std::process::exit(2);
        })
    };
    let baseline = shares_by_run(&read(baseline_path));
    let current = shares_by_run(&read(current_path));
    let mut regressions = 0u32;
    let mut compared = 0u32;
    for (key, base_shares) in &baseline {
        let Some(cur_shares) = current.get(key) else {
            eprintln!("flexprof: {}/{} missing from {current_path}", key.0, key.1);
            regressions += 1;
            continue;
        };
        for (phase, base) in base_shares {
            let cur = cur_shares.get(phase).copied().unwrap_or(0.0);
            compared += 1;
            let delta_points = (cur - base).abs() * 100.0;
            if delta_points > tolerance_points {
                eprintln!(
                    "flexprof: REGRESSION {}/{} phase `{phase}`: share {:.1}% -> {:.1}% \
                     (moved {delta_points:.1} points, tolerance {tolerance_points:.1})",
                    key.0,
                    key.1,
                    base * 100.0,
                    cur * 100.0,
                );
                regressions += 1;
            }
        }
    }
    println!(
        "flexprof check: {compared} phase shares compared across {} runs, {regressions} \
         regression(s) at {tolerance_points:.1}-point tolerance",
        baseline.len()
    );
    i32::from(regressions > 0)
}

fn main() {
    let mut args = Args::from_env(
        "flexprof [--profile FILE] [--throughput FILE] [--workloads a,b]\n       \
         flexprof check BASELINE CURRENT [--tolerance PCT]",
    );
    let code = match args.subcommand().as_deref() {
        Some("check") => cmd_check(args),
        Some(other) => args.fail(format!("unknown subcommand `{other}`")),
        None => cmd_run(args),
    };
    std::process::exit(code);
}
