//! The `fault_campaign` workload: one `flexserve` job through
//! `flexcore_serve::Server`, journaled in a scratch directory inside the
//! checkout.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use flexcore::recovery::RecoveryPolicy;
use flexcore::RunResult;
use flexcore_bench::trial::{self, TrialKind, TrialSpec};
use flexcore_serve::{JobSpec, Server, ServerConfig, WorkerPolicy};
use flexcore_workloads::Workload;
use serde::Value;

use crate::oracle::{digest, Expected};
use crate::trace::Tracer;

/// The campaign kernels.
pub const KERNELS: [&str; 3] = ["sha", "bitcount", "fft"];

/// The campaign seed at `--seed 0`: the default of `faultsweep` and
/// `flexserve`. `--seed n` runs campaign seed `DEFAULT_SEED ^ n`.
pub const DEFAULT_SEED: u64 = 0xf1ec;

/// Trials per kernel of each kind (SEC ALU flips, UMC → CFI swaps).
pub const TRIALS_PER_KIND: usize = 8;

/// SEC coverage gate: the share of ALU-flip trials whose fault is
/// detected (triaged recovered or DUE).
pub const MIN_SEC_COVERAGE: f64 = 0.90;

/// The pool width: one worker per core, at most two, so the closed
/// loop stays small on a shared machine.
pub fn pool_width() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from).clamp(1, 2)
}

/// The job one pass submits.
pub fn job_spec(seed: u64) -> JobSpec {
    JobSpec {
        name: "perfbench".into(),
        seed: DEFAULT_SEED ^ seed,
        trials: TRIALS_PER_KIND,
        workloads: KERNELS.iter().map(|s| s.to_string()).collect(),
        lockstep: true,
        recover: true,
        sweep: false,
        reconfig: true,
        priority: 1,
        policy: RecoveryPolicy::default(),
    }
}

/// A prepared campaign.
pub struct CampaignSetup {
    /// The job every pass submits.
    pub spec: JobSpec,
    /// Its trials, in submission order.
    pub trials: Vec<TrialSpec>,
    /// Per kernel: the clean SEC reference run (the one the server's
    /// pool hands every supervised trial) and the clean UMC run the
    /// swap trials are compared with.
    pub references: BTreeMap<&'static str, (RunResult, RunResult)>,
    /// Σ over trials of the clean run's committed instructions: the
    /// simulated work of a campaign without its replays.
    pub nominal_insns: u64,
}

/// The campaign kernels as workloads.
pub fn kernels() -> Vec<Workload> {
    let all: Vec<Workload> = Workload::all().into_iter().chain(Workload::extra()).collect();
    KERNELS.iter().map(|n| *all.iter().find(|w| w.name() == *n).expect("campaign kernel")).collect()
}

/// Set-up: expands the job into its trials (assembly and fault-site
/// profiling) and makes the clean reference runs.
pub fn setup(seed: u64, t: &mut Tracer) -> Result<CampaignSetup, String> {
    let spec = job_spec(seed);
    let (trials, _) = t.time("JobSpec::trial_specs", || spec.trial_specs());
    let trials = trials.map_err(|e| format!("campaign job: {e}"))?;
    let mut references = BTreeMap::new();
    for w in kernels() {
        let (sec, _) = t.time("trial::reference_run", || trial::reference_run(&w));
        let (umc, _) = t.time("trial::swap_reference_run", || trial::swap_reference_run(&w));
        references.insert(w.name(), (sec, umc));
    }
    let nominal_insns = trials
        .iter()
        .map(|s| {
            let (sec, umc) = &references[s.workload.name()];
            match s.kind {
                TrialKind::SwapWindow { .. } => umc.instret,
                _ => sec.instret,
            }
        })
        .sum();
    Ok(CampaignSetup { spec, trials, references, nominal_insns })
}

/// One pass: the job through a fresh server.
pub struct CampaignPass {
    /// Wall seconds of the whole pass (server start, submit, drain,
    /// log read-back, pool shutdown).
    pub wall_s: f64,
    /// Wall seconds of `Server::run`.
    pub run_s: f64,
    /// Seconds of `Server::submit`.
    pub admit_s: f64,
    /// Per trial label, the merged-log record line (empty when the
    /// server wrote no merged log).
    pub records: BTreeMap<String, String>,
    /// Trials the server quarantined.
    pub quarantined: u64,
}

/// A fresh, empty scratch directory under `root`.
pub fn fresh_dir(root: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = root.join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// Runs the job once through a new `Server` journaling into
/// `journal_dir`, which is removed afterwards.
pub fn run_pass(
    s: &CampaignSetup,
    journal_dir: &Path,
    t: &mut Tracer,
) -> Result<CampaignPass, String> {
    let started = std::time::Instant::now();
    let pass = t.begin("pass");
    let config = ServerConfig {
        journal_dir: journal_dir.to_path_buf(),
        worker_policy: WorkerPolicy { workers: pool_width(), ..WorkerPolicy::default() },
        ..ServerConfig::default()
    };
    let (server, _) = t.time("Server::new", || Server::new(config));
    let (admitted, admit_s) = t.time("Server::submit", || server.submit(s.spec.clone()));
    admitted.map_err(|e| format!("campaign job not admitted: {e:?}"))?;
    let (report, run_s) = t.time("Server::run", || server.run());
    let report = report.map_err(|e| format!("campaign journal: {e:?}"))?;
    let quarantined = report.quarantined();
    let mut records = BTreeMap::new();
    if let Some(path) = report.jobs.first().and_then(|j| j.merged_log.as_ref()) {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        for line in text.lines() {
            let v = serde::from_str(line).map_err(|e| format!("merged log: {e}"))?;
            let label = v.get("label").and_then(Value::as_str).ok_or("record without label")?;
            records.insert(label.to_string(), line.to_string());
        }
    }
    drop(server);
    let _ = std::fs::remove_dir_all(journal_dir);
    t.end(pass);
    Ok(CampaignPass {
        wall_s: started.elapsed().as_secs_f64(),
        run_s,
        admit_s,
        records,
        quarantined,
    })
}

/// Checks a pass: every trial has a record; none is quarantined,
/// triaged SDC or unclassified; each record's digest matches the stored
/// one for this seed (or, for a seed with none stored, the first pass of
/// this run); and SEC detects at least [`MIN_SEC_COVERAGE`] of the ALU
/// flips. Returns one message per failed trial.
pub fn check_pass(
    s: &CampaignSetup,
    pass: &CampaignPass,
    stored: &BTreeMap<String, String>,
) -> Vec<String> {
    let mut failures = Vec::new();
    let (mut flips, mut detected) = (0u64, 0u64);
    let mut undetected = Vec::new();
    for spec in &s.trials {
        let label = &spec.label;
        let Some(line) = pass.records.get(label) else {
            failures.push(format!("{label}: no record (quarantined or lost)"));
            continue;
        };
        let v = serde::from_str(line).map_err(|e| e.to_string());
        let triage = v.as_ref().ok().and_then(|v| v.get("triage").and_then(Value::as_str));
        match triage {
            Some("masked" | "recovered" | "due") => {}
            Some(other) => failures.push(format!("{label}: triaged {other}")),
            None => failures.push(format!("{label}: unclassified")),
        }
        if let Some(want) = stored.get(label) {
            if digest(line) != *want {
                failures.push(format!("{label}: record differs from the stored one: {line}"));
            }
        } else {
            failures.push(format!("{label}: no stored record"));
        }
        if matches!(spec.kind, TrialKind::AluFlip { .. }) {
            flips += 1;
            if matches!(triage, Some("recovered" | "due")) {
                detected += 1;
            } else {
                undetected.push(label.clone());
            }
        }
    }
    let coverage = detected as f64 / flips.max(1) as f64;
    if coverage < MIN_SEC_COVERAGE {
        for label in undetected {
            failures.push(format!("{label}: undetected, SEC coverage {coverage:.3} < gate"));
        }
    }
    if pass.quarantined > 0 && failures.is_empty() {
        failures.push(format!("{} trials quarantined", pass.quarantined));
    }
    failures
}

/// One line of triage counts and SEC coverage for a pass.
pub fn summary(s: &CampaignSetup, pass: &CampaignPass) -> String {
    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let (mut flips, mut detected) = (0u64, 0u64);
    for spec in &s.trials {
        let v = pass.records.get(&spec.label).and_then(|line| serde::from_str(line).ok());
        let triage = v.as_ref().and_then(|v| v.get("triage").and_then(Value::as_str));
        let triage = match (triage, pass.records.contains_key(&spec.label)) {
            (_, false) => "missing",
            (Some(t @ ("masked" | "recovered" | "sdc" | "due")), _) => t,
            _ => "unclassified",
        };
        *counts.entry(triage.to_string()).or_default() += 1;
        if matches!(spec.kind, TrialKind::AluFlip { .. }) {
            flips += 1;
            detected += u64::from(matches!(triage, "recovered" | "due"));
        }
    }
    let counts: Vec<String> = counts.iter().map(|(k, n)| format!("{k} {n}")).collect();
    format!(
        "campaign seed {:#x}: {} trials, {}, quarantined {}; SEC coverage {detected}/{flips}",
        s.spec.seed,
        s.trials.len(),
        counts.join(", "),
        pass.quarantined
    )
}

/// The per-trial digests a pass produced (what `--bless` stores).
pub fn digests(pass: &CampaignPass) -> BTreeMap<String, String> {
    pass.records.iter().map(|(label, line)| (label.clone(), digest(line))).collect()
}

/// The digests passes are checked against: the stored ones for `seed`,
/// or, for a seed with none stored, those of `first`, the run's first
/// pass.
pub fn reference_digests(
    expected: &Expected,
    seed: u64,
    first: &CampaignPass,
) -> BTreeMap<String, String> {
    expected.campaign.get(&seed).cloned().unwrap_or_else(|| digests(first))
}
