//! `faultsweep` — seeded fault-injection campaigns that validate the
//! SEC soft-error story end-to-end (§IV.D / §V).
//!
//! Three campaigns, all byte-identical for a given `--seed`:
//!
//! 1. **SEC detection coverage** — single-bit flips in the
//!    execute-stage result of randomly chosen ALU commits of `sha` and
//!    `bitcount`; SEC re-executes every forwarded ALU op, so it must
//!    trap on ≥90% of them (the escapes are mod-3-invisible residue
//!    cases on div).
//! 2. **Clean-run false traps** — the rate-0 rows of the sweep: with no
//!    faults injected, UMC/DIFT/BC/SEC must never trap on the benign
//!    workloads.
//! 3. **Rate × target sweep** — Bernoulli faults at increasing rates
//!    against architectural results, registers, FFIFO packets, and
//!    meta-data lines, with per-extension outcome accounting
//!    (trap / silent / deadlock / budget), driven through
//!    [`System::try_run`](flexcore::System::try_run) so a wedged
//!    configuration is a data point, not a hang.
//!
//! Trial generation, execution, and the JSONL record codec all live in
//! [`flexcore_bench::trial`], shared verbatim with the `flexserve` job
//! server — the two cannot drift, and a merged `flexserve` trial log
//! diffs clean against a `faultsweep` progress log for the same
//! campaign parameters.
//!
//! Options: `--seed N` (default 0xf1ec), `--trials N` per workload for
//! campaign 1 (default 100).
//!
//! Campaign robustness options:
//!
//! * `--lockstep` — every faulted run also steps an ISA-level golden
//!   model; architectural corruption the extension misses is caught as
//!   a lockstep divergence and counted as detected.
//! * `--progress FILE` — append one JSONL record per finished trial.
//! * `--resume` — with `--progress`, skip trials already recorded in
//!   the file (deterministic seeds make the skip exact), so an
//!   interrupted campaign continues from its last checkpoint instead
//!   of starting over. A trailing record truncated by a crash
//!   mid-append is dropped with a warning (it is re-run), not a fatal
//!   parse error.
//! * `--checkpoint-every N` — flush buffered progress records to disk
//!   every N trials (default 25).
//! * `--recover` — run every campaign-1 trial under the
//!   rollback-and-replay [`Supervisor`](flexcore::Supervisor) and
//!   triage it against a clean reference run of the same workload:
//!   **Masked** (absorbed, output matches), **Detected-Recovered**
//!   (caught, rolled back, replayed to a matching output), **SDC**
//!   (silent data corruption — completed with the wrong output), or
//!   **DUE** (detected but unrecoverable). The campaign fails (exit 1)
//!   on any SDC or unclassified trial; add `--lockstep` so
//!   architectural corruption SEC misses is detected (and therefore
//!   recovered) instead of going silent. Campaigns 2–3 are unchanged
//!   by this flag.
//! * `--reconfig` — replace the three campaigns with the
//!   reconfig-window campaign: every trial schedules a UMC → CFI
//!   hot-swap at a deterministically drawn commit boundary and strikes
//!   the bitstream *inside the swap window* — even trials with a
//!   single transfer strike (one retry must absorb it), odd trials
//!   corrupting every attempt so the retry budget exhausts and the
//!   recovery ladder must roll back and replay the swap. Requires
//!   `--recover`; the same 0-SDC / 0-unclassified gate applies, and
//!   the triage is against a clean swap-free run (a hot-swap must not
//!   change the architectural outcome).

use std::collections::HashMap;
use std::io::Write as _;

use flexcore::recovery::FaultOutcome;
use flexcore_bench::trial::{
    self, CampaignSpec, TrialOutcome, TrialSpec, SWEEP_RATES, SWEEP_TARGETS,
};
use flexcore_bench::{cli::Args, run_panic_tolerant_observed, ExtKind};
use flexcore_telemetry::RateMeter;
use flexcore_workloads::Workload;

/// Per-trial progress log (JSONL): lets an interrupted campaign resume
/// without redoing finished trials. The first line records the
/// campaign parameters; resuming with different parameters is refused
/// (the trial labels would not mean the same runs).
struct ProgressLog {
    path: Option<String>,
    done: HashMap<String, TrialOutcome>,
    pending: Vec<String>,
    flush_every: usize,
    reused: u64,
}

impl ProgressLog {
    fn header(seed: u64, trials: usize, lockstep: bool, recover: bool, reconfig: bool) -> String {
        let mut h = serde::Value::object()
            .field("seed", &seed)
            .field("trials", &(trials as u64))
            .field("lockstep", &lockstep)
            .field("recover", &recover);
        // Stamped only when set, so progress files from plain campaigns
        // keep their original headers (and stay resumable).
        if reconfig {
            h = h.field("reconfig", &true);
        }
        serde::to_string(&h.build())
    }

    /// One line per parameter that differs between what the progress
    /// file was stamped with and what this invocation requested —
    /// that's the fix-it information a refused `--resume` needs.
    fn header_diff(
        stamped: &serde::Value,
        seed: u64,
        trials: usize,
        lockstep: bool,
        recover: bool,
        reconfig: bool,
    ) -> Vec<String> {
        let mut diffs = Vec::new();
        let mut check_u64 = |key: &str, requested: u64| match stamped
            .get(key)
            .and_then(serde::Value::as_u64)
        {
            Some(s) if s == requested => {}
            Some(s) => diffs.push(format!("  {key}: file has {s}, this run requested {requested}")),
            None => diffs.push(format!("  {key}: not stamped in the file (requested {requested})")),
        };
        check_u64("seed", seed);
        check_u64("trials", trials as u64);
        let mut check_bool = |key: &str, requested: bool| match stamped.get(key) {
            Some(serde::Value::Bool(s)) if *s == requested => {}
            Some(serde::Value::Bool(s)) => {
                diffs.push(format!("  {key}: file has {s}, this run requested {requested}"));
            }
            _ => diffs.push(format!("  {key}: not stamped in the file (requested {requested})")),
        };
        check_bool("lockstep", lockstep);
        check_bool("recover", recover);
        match (stamped.get("reconfig"), reconfig) {
            (None, false) | (Some(serde::Value::Bool(true)), true) => {}
            (stamped_reconfig, _) => diffs.push(format!(
                "  reconfig: file has {}, this run requested {reconfig}",
                matches!(stamped_reconfig, Some(serde::Value::Bool(true)))
            )),
        }
        if diffs.is_empty() {
            diffs.push("  (header is not valid JSON or field order changed)".into());
        }
        diffs
    }

    #[allow(clippy::too_many_arguments)] // campaign identity is exactly these stamps
    fn open(
        path: Option<String>,
        resume: bool,
        flush_every: usize,
        seed: u64,
        trials: usize,
        lockstep: bool,
        recover: bool,
        reconfig: bool,
    ) -> Result<ProgressLog, String> {
        let mut log = ProgressLog {
            path,
            done: HashMap::new(),
            pending: Vec::new(),
            flush_every: flush_every.max(1),
            reused: 0,
        };
        let Some(p) = &log.path else {
            return Ok(log);
        };
        let header = ProgressLog::header(seed, trials, lockstep, recover, reconfig);
        match std::fs::read_to_string(p) {
            Ok(text) if resume => {
                // A crash (or kill -9) mid-append leaves a truncated
                // final line; drop that one record and re-run it rather
                // than poisoning the whole log.
                let parsed = trial::parse_jsonl_tolerant(&text).map_err(|e| format!("{p}: {e}"))?;
                if let Some(partial) = &parsed.dropped_partial {
                    eprintln!(
                        "faultsweep: {p}: dropped truncated trailing record `{partial}` \
                         (crash mid-append; the trial will be re-run)"
                    );
                    parsed
                        .repair_file(std::path::Path::new(p))
                        .map_err(|e| format!("{p}: repairing truncated tail: {e}"))?;
                }
                let mut records = parsed.records.into_iter();
                match records.next() {
                    Some(first) if serde::to_string(&first) == header => {}
                    Some(first) => {
                        let diffs = ProgressLog::header_diff(
                            &first, seed, trials, lockstep, recover, reconfig,
                        );
                        return Err(format!(
                            "{p}: was written with different campaign parameters \
                             (the trial labels would not mean the same runs):\n{}\n\
                             re-run with the stamped parameters or start fresh",
                            diffs.join("\n")
                        ));
                    }
                    None => {}
                }
                for v in records {
                    let label = v
                        .get("label")
                        .and_then(serde::Value::as_str)
                        .ok_or_else(|| format!("{p}: record without a label"))?;
                    let outcome = trial::decode_outcome(&v).map_err(|e| format!("{p}: {e}"))?;
                    log.done.insert(label.to_string(), outcome);
                }
                Ok(log)
            }
            _ => {
                // Fresh campaign: truncate and stamp the parameters.
                std::fs::write(p, format!("{header}\n")).map_err(|e| format!("{p}: {e}"))?;
                Ok(log)
            }
        }
    }

    fn record(&mut self, label: &str, o: TrialOutcome) {
        if self.path.is_none() {
            return;
        }
        self.pending.push(serde::to_string(&trial::outcome_record(label, &o)));
        if self.pending.len() >= self.flush_every {
            self.flush();
        }
    }

    fn flush(&mut self) {
        let Some(p) = &self.path else {
            return;
        };
        if self.pending.is_empty() {
            return;
        }
        let mut text = self.pending.join("\n");
        text.push('\n');
        let appended = std::fs::OpenOptions::new()
            .append(true)
            .open(p)
            .and_then(|mut f| f.write_all(text.as_bytes()));
        if let Err(e) = appended {
            eprintln!("faultsweep: {p}: {e} (progress not saved)");
        }
        self.pending.clear();
    }
}

/// [`run_panic_tolerant`] with a resume cache: trials already in the
/// progress log come back instantly; fresh trials run and are
/// recorded. Reports keep submission order either way.
fn run_with_progress(
    jobs: Vec<TrialSpec>,
    reference: Option<&flexcore::RunResult>,
    progress: &mut ProgressLog,
) -> Vec<flexcore_bench::JobReport<TrialOutcome>> {
    let mut slots: Vec<Option<flexcore_bench::JobReport<TrialOutcome>>> = Vec::new();
    let mut fresh = Vec::new();
    let mut fresh_slots = Vec::new();
    for (i, spec) in jobs.into_iter().enumerate() {
        if let Some(&o) = progress.done.get(&spec.label) {
            progress.reused += 1;
            slots.push(Some(flexcore_bench::JobReport { label: spec.label, outcome: Ok(o) }));
        } else {
            let reference = reference.cloned();
            slots.push(None);
            fresh_slots.push(i);
            let label = spec.label.clone();
            fresh.push((label, move || trial::run_trial(&spec, reference.as_ref())));
        }
    }
    // Rate/ETA progress goes to stderr: CI tees and diffs stdout
    // between runs, and wall-clock rates legitimately differ.
    let meter = RateMeter::start();
    let reports = run_panic_tolerant_observed(fresh, |done, total, _| {
        eprintln!(
            "faultsweep: {done}/{total} fresh trials  {}",
            meter.progress_column(done as u64, total as u64)
        );
    });
    for (i, rep) in fresh_slots.into_iter().zip(reports) {
        if let Ok(o) = &rep.outcome {
            progress.record(&rep.label, *o);
        }
        slots[i] = Some(rep);
    }
    slots.into_iter().map(|s| s.expect("every slot filled")).collect()
}

/// The reconfig-window campaign: UMC → CFI hot-swaps with bitstream
/// strikes inside the swap window, run under the supervisor and
/// triaged against the clean swap-free reference. Returns whether the
/// 0-SDC / 0-unclassified gate passed.
fn reconfig_campaign(
    cspec: &CampaignSpec,
    workloads: &[Workload],
    trials: usize,
    progress: &mut ProgressLog,
) -> bool {
    println!(
        "\nReconfig-window fault triage (bitstream strikes inside UMC -> CFI swap windows, \
         under the supervisor)"
    );
    println!(
        "  even trials: one corrupted transfer (a retry absorbs it); \
         odd trials: every attempt corrupted (ladder rolls back and replays the swap)"
    );
    println!(
        "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13}",
        "benchmark", "trials", "masked", "recovered", "sdc", "due", "unclass", "mean mttr"
    );
    let mut total_sdc = 0u64;
    let mut total_unclassified = 0u64;
    let mut total_recovered = 0u64;
    let mut mttr_sum = 0u64;
    for workload in workloads {
        let reference = trial::swap_reference_run(workload);
        let jobs = trial::reconfig_trials(cspec, &[*workload]);
        let reports = run_with_progress(jobs, Some(&reference), progress);
        let mut counts: HashMap<FaultOutcome, u64> = HashMap::new();
        let mut unclassified = 0u64;
        let mut workload_mttr = 0u64;
        for rep in &reports {
            match &rep.outcome {
                Ok(o) => match o.triage {
                    Some(t) => {
                        *counts.entry(t).or_default() += 1;
                        if t == FaultOutcome::DetectedRecovered {
                            total_recovered += 1;
                            workload_mttr += o.mttr.unwrap_or(0);
                        }
                    }
                    None => unclassified += 1,
                },
                Err(msg) => {
                    unclassified += 1;
                    eprintln!("  {} panicked: {msg}", rep.label);
                }
            }
        }
        let n = |t: FaultOutcome| counts.get(&t).copied().unwrap_or(0);
        let recovered = n(FaultOutcome::DetectedRecovered);
        let mean_mttr = if recovered == 0 { 0.0 } else { workload_mttr as f64 / recovered as f64 };
        println!(
            "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13.1}",
            workload.name(),
            trials,
            n(FaultOutcome::Masked),
            recovered,
            n(FaultOutcome::Sdc),
            n(FaultOutcome::Due),
            unclassified,
            mean_mttr,
        );
        total_sdc += n(FaultOutcome::Sdc);
        total_unclassified += unclassified;
        mttr_sum += workload_mttr;
    }
    let campaign_mttr =
        if total_recovered == 0 { 0.0 } else { mttr_sum as f64 / total_recovered as f64 };
    println!(
        "campaign MTTR: {campaign_mttr:.1} cycles mean over {total_recovered} recovered trials \
         (each MTTR spans the replayed swap window)"
    );
    let pass = total_sdc == 0 && total_unclassified == 0;
    println!("recovery gate (0 SDC, 0 unclassified): {}", if pass { "PASS" } else { "FAIL" });
    pass
}

fn main() {
    let mut args = Args::from_env(
        "faultsweep [--seed N] [--trials N] [--lockstep] [--recover] [--reconfig] \
         [--progress FILE [--resume]] [--checkpoint-every N]",
    );
    let seed = args.value("--seed").unwrap_or(0xf1ec);
    let trials = args.value("--trials").unwrap_or(100);
    let lockstep = args.flag("--lockstep");
    let resume = args.flag("--resume");
    let recover = args.flag("--recover");
    let reconfig = args.flag("--reconfig");
    let progress_path = args.value("--progress");
    let flush_every = args.value("--checkpoint-every").unwrap_or(25);
    if resume && progress_path.is_none() {
        args.error("--resume needs --progress FILE to resume from");
    }
    if reconfig && !recover {
        args.error(
            "--reconfig triages swap-window faults under the rollback-and-replay supervisor; \
             add --recover",
        );
    }
    args.finish();
    let mut progress = match ProgressLog::open(
        progress_path,
        resume,
        flush_every,
        seed,
        trials,
        lockstep,
        recover,
        reconfig,
    ) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("faultsweep: {e}");
            std::process::exit(2);
        }
    };
    let workloads = [Workload::sha(), Workload::bitcount()];
    let cspec = CampaignSpec { seed, trials, lockstep, recover, ..CampaignSpec::default() };

    println!(
        "faultsweep: seeded fault-injection campaign (seed {seed:#x}, {trials} trials/workload{}{})",
        if lockstep { ", lockstep golden model on" } else { "" },
        if recover { ", rollback-and-replay recovery on" } else { "" }
    );
    println!("{}", "=".repeat(78));

    if reconfig {
        let pass = reconfig_campaign(&cspec, &workloads, trials, &mut progress);
        progress.flush();
        if progress.reused > 0 {
            println!("resumed: {} trials reused from the progress file", progress.reused);
        }
        println!("\nre-run with the same --seed to reproduce these numbers exactly");
        if !pass {
            std::process::exit(1);
        }
        return;
    }

    // ── Campaign 1: SEC detection coverage on single-bit ALU-result flips ──
    // Under --recover the same trials (same labels, same seeds, same
    // fault sites) run under the rollback-and-replay supervisor and are
    // triaged against a clean reference run instead of merely counted
    // as detected/silent.
    if recover {
        println!(
            "\nSEC soft-error recovery triage (single-bit ALU flips under the supervisor, \
             paper 0.25X config)"
        );
        println!(
            "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13}",
            "benchmark", "trials", "masked", "recovered", "sdc", "due", "unclass", "mean mttr"
        );
    } else {
        println!("\nSEC detection coverage (single-bit flips of ALU results, paper 0.25X config)");
        println!(
            "{:<12}{:>8}{:>10}{:>10}{:>10}{:>11}{:>12}",
            "benchmark", "trials", "detected", "silent", "hung", "coverage", "mean skid"
        );
    }
    let mut all_pass = true;
    let mut total_sdc = 0u64;
    let mut total_unclassified = 0u64;
    let mut total_recovered = 0u64;
    let mut mttr_sum = 0u64;
    for workload in &workloads {
        let reference = recover.then(|| trial::reference_run(workload));
        let jobs = trial::campaign1_trials(&cspec, &[*workload]);
        let reports = run_with_progress(jobs, reference.as_ref(), &mut progress);
        if recover {
            let mut counts: HashMap<FaultOutcome, u64> = HashMap::new();
            let mut unclassified = 0u64;
            let mut workload_mttr = 0u64;
            for rep in &reports {
                match &rep.outcome {
                    Ok(o) => match o.triage {
                        Some(t) => {
                            *counts.entry(t).or_default() += 1;
                            if t == FaultOutcome::DetectedRecovered {
                                total_recovered += 1;
                                workload_mttr += o.mttr.unwrap_or(0);
                            }
                        }
                        None => unclassified += 1,
                    },
                    Err(msg) => {
                        unclassified += 1;
                        eprintln!("  {} panicked: {msg}", rep.label);
                    }
                }
            }
            let n = |t: FaultOutcome| counts.get(&t).copied().unwrap_or(0);
            let recovered = n(FaultOutcome::DetectedRecovered);
            let mean_mttr =
                if recovered == 0 { 0.0 } else { workload_mttr as f64 / recovered as f64 };
            println!(
                "{:<12}{:>8}{:>9}{:>11}{:>6}{:>6}{:>9}{:>13.1}",
                workload.name(),
                trials,
                n(FaultOutcome::Masked),
                recovered,
                n(FaultOutcome::Sdc),
                n(FaultOutcome::Due),
                unclassified,
                mean_mttr,
            );
            total_sdc += n(FaultOutcome::Sdc);
            total_unclassified += unclassified;
            mttr_sum += workload_mttr;
        } else {
            let mut detected = 0u64;
            let mut diverged = 0u64;
            let mut silent = 0u64;
            let mut hung = 0u64;
            let mut skids = Vec::new();
            for rep in &reports {
                match &rep.outcome {
                    Ok(o) if o.detected() => {
                        detected += 1;
                        diverged += u64::from(o.diverged);
                        skids.extend(o.trap_skid);
                    }
                    Ok(o) if o.deadlocked || o.over_budget => hung += 1,
                    Ok(_) => silent += 1,
                    Err(msg) => {
                        silent += 1;
                        eprintln!("  {} panicked: {msg}", rep.label);
                    }
                }
            }
            let coverage = detected as f64 / trials as f64;
            let mean_skid = if skids.is_empty() {
                0.0
            } else {
                skids.iter().sum::<u64>() as f64 / skids.len() as f64
            };
            all_pass &= coverage >= 0.90;
            println!(
                "{:<12}{:>8}{:>10}{:>10}{:>10}{:>10.1}%{:>12.1}",
                workload.name(),
                trials,
                detected,
                silent,
                hung,
                coverage * 100.0,
                mean_skid,
            );
            if diverged > 0 {
                println!(
                    "  ({diverged} of the {detected} detections came from lockstep divergence, \
                     which fires before the imprecise SEC trap)"
                );
            }
        }
    }
    if recover {
        let campaign_mttr =
            if total_recovered == 0 { 0.0 } else { mttr_sum as f64 / total_recovered as f64 };
        println!(
            "campaign MTTR: {campaign_mttr:.1} cycles mean over {total_recovered} recovered trials"
        );
        all_pass &= total_sdc == 0 && total_unclassified == 0;
        println!(
            "recovery gate (0 SDC, 0 unclassified): {}",
            if total_sdc == 0 && total_unclassified == 0 { "PASS" } else { "FAIL" }
        );
    } else {
        println!("coverage target ≥ 90.0%: {}", if all_pass { "PASS" } else { "FAIL" });
    }

    // ── Campaigns 2+3: rate × target sweep (rate 0 = clean false-trap check) ──
    println!("\nRate × target sweep (Bernoulli faults/commit; cell = outcome:faults-injected)");
    println!("  outcome key: trap / div (lockstep divergence) / ok (ran clean) / dead / budget");
    let mut clean_false_traps = 0u64;
    for workload in &workloads {
        println!(
            "\n{} ({} per-million rates: {:?})",
            workload.name(),
            SWEEP_RATES.len(),
            SWEEP_RATES
        );
        print!("{:<6}{:<11}", "ext", "target");
        for r in SWEEP_RATES {
            print!("{:>16}", format!("rate {r}"));
        }
        println!();
        // sweep_trials yields workload → extension → target → rate;
        // chunks of SWEEP_RATES.len() are therefore one (ext, target)
        // row each, in ExtKind::ALL × SWEEP_TARGETS order.
        let sweep = trial::sweep_trials(&cspec, &[*workload]);
        let mut rows = ExtKind::ALL
            .iter()
            .flat_map(|ext| SWEEP_TARGETS.iter().map(move |(tname, _)| (*ext, *tname)));
        for row in sweep.chunks(SWEEP_RATES.len()) {
            let (ext, tname) = rows.next().expect("one (ext, target) row per chunk");
            let reports = run_with_progress(row.to_vec(), None, &mut progress);
            print!("{:<6}{:<11}", ext.name(), tname);
            for (ri, rep) in reports.iter().enumerate() {
                let cell = match &rep.outcome {
                    Ok(o) => {
                        if SWEEP_RATES[ri] == 0 && o.detected() {
                            clean_false_traps += 1;
                        }
                        let tag = if o.diverged {
                            "div"
                        } else if o.trapped {
                            "trap"
                        } else if o.deadlocked {
                            "dead"
                        } else if o.over_budget {
                            "budget"
                        } else {
                            "ok"
                        };
                        format!("{tag}:{}", o.faults_injected)
                    }
                    Err(_) => "panic".to_string(),
                };
                print!("{cell:>16}");
            }
            println!();
        }
    }
    println!(
        "\nclean-run (rate 0) false traps/divergences across all extensions/targets: {} ({})",
        clean_false_traps,
        if clean_false_traps == 0 { "PASS" } else { "FAIL" }
    );
    progress.flush();
    if progress.reused > 0 {
        println!("resumed: {} trials reused from the progress file", progress.reused);
    }
    println!("\nre-run with the same --seed to reproduce these numbers exactly");
    if !all_pass || clean_false_traps != 0 {
        std::process::exit(1);
    }
}
