//! The traced run's layer measurements, all taken from outside the
//! program: an ablation ladder over the workload's kernels and probes
//! of the checkpoint, lockstep, recovery, trial and service layers on
//! the campaign kernels.
//!
//! The ladder adds one layer per rung — bare `Core` → `System<Nop>` →
//! `System<ext>` → `+elide` → `+MetricsRecorder` → `+PhaseProfiler` —
//! and runs every rung of every kernel once per round, rounds repeated
//! until the time budget is spent. Differences of per-rung medians give
//! each layer's host time.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use flexcore::ext::{Bc, Cfi, Dift, Nop, Sec, Umc};
use flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore::obs::MetricsRecorder;
use flexcore::recovery::{FaultOutcome, Supervisor};
use flexcore::{RunOutcome, RunResult, System, SystemConfig};
use flexcore_bench::trial::{self, TrialKind, TrialOutcome, TrialSpec};
use flexcore_bench::{ExtKind, MAX_INSTRUCTIONS};
use flexcore_serve::Journal;
use flexcore_telemetry::PhaseProfiler;

use crate::campaign::{self, CampaignSetup};
use crate::oracle::{Expected, RunStats};
use crate::sim::{clean, drive, run_core, with_ext, Ext, Kernel, Mode};
use crate::stats::{iqr_share, median, percentile};
use crate::trace::Tracer;
use crate::Metrics;

/// Rounds the ladder always makes, whatever the time budget.
const MIN_ROUNDS: usize = 3;
/// Rounds the ladder never exceeds.
const MAX_ROUNDS: usize = 15;
/// Repeats of the per-kernel set-up calls (assembly, analysis,
/// bitstream) behind the `asm`/`analysis`/`fabric` metrics.
const SETUP_ROUNDS: usize = 3;
/// Rounds of the lockstep on/off comparison.
const LOCKSTEP_ROUNDS: usize = 3;
/// Every this many checkpoints, one is also restored and serialized.
const RESTORE_EVERY: usize = 8;
/// The extensions the observer rungs (`+metrics`, `+profiler`) run
/// on: DIFT forwards the most packets of the elidable three, so it
/// gives an observer the most events to record.
const OBSERVED: [Ext; 1] = [Ext::Dift];
/// Journal appends between two measured syncs (the server's default
/// fsync cadence).
const SYNC_EVERY: usize = 8;

/// One ladder rung.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rung {
    /// The bare Leon3 core.
    Core,
    /// `System<Nop>`: the commit-stage plumbing, nothing forwarded.
    Nop,
    /// `System<ext>` with full checking at the paper clock.
    Ext(Ext),
    /// `+elide`: the kernel's static elision table installed.
    Elided(Ext),
    /// `+MetricsRecorder` as the trace sink.
    Metrics(Ext),
    /// `+PhaseProfiler` as the phase clock.
    Profiled(Ext),
}

impl Rung {
    /// Every rung, in ladder order.
    pub fn all() -> Vec<Rung> {
        let mut out = vec![Rung::Core, Rung::Nop];
        out.extend(Ext::ALL.map(Rung::Ext));
        out.extend(Ext::ELIDABLE.map(Rung::Elided));
        out.extend(OBSERVED.map(Rung::Metrics));
        out.extend(OBSERVED.map(Rung::Profiled));
        out
    }

    /// The rung's row name.
    pub fn name(self) -> String {
        match self {
            Rung::Core => "core".into(),
            Rung::Nop => "nop".into(),
            Rung::Ext(e) => e.name().into(),
            Rung::Elided(e) => format!("{}+elide", e.name()),
            Rung::Metrics(e) => format!("{}+elide+metrics", e.name()),
            Rung::Profiled(e) => format!("{}+elide+metrics+profiler", e.name()),
        }
    }
}

/// Runs one rung of one kernel: the run's pinned statistics (and the
/// full result, for system rungs) with the host seconds of its
/// simulation call.
fn run_rung(
    k: &Kernel,
    rung: Rung,
    t: &mut Tracer,
) -> (Result<(RunStats, Option<RunResult>), String>, f64) {
    let label = format!("{}/{}", k.name(), rung.name());
    let (r, secs) = match rung {
        Rung::Core => {
            let (st, secs) = run_core(k, t);
            return (st.map(|s| (s, None)), secs);
        }
        Rung::Nop => {
            let sys = System::new(SystemConfig::fabric_half_speed(), Nop::new());
            let (r, secs, _) = drive(sys, k, false, t);
            (r, secs)
        }
        Rung::Ext(e) | Rung::Elided(e) => {
            let config = e.paper_clock().1;
            with_ext!(e, k, |x| {
                let (r, secs, _) = drive(System::new(config, x), k, rung == Rung::Elided(e), t);
                (r, secs)
            })
        }
        Rung::Metrics(e) | Rung::Profiled(e) => {
            let config = e.paper_clock().1;
            let sink = MetricsRecorder::new(MetricsRecorder::DEFAULT_EPOCH_CYCLES);
            let (r, secs, sink) = if rung == Rung::Profiled(e) {
                with_ext!(e, k, |x| {
                    let sys = System::with_profiler(config, x, sink, PhaseProfiler::new());
                    let (r, secs, sys) = drive(sys, k, true, t);
                    (r, secs, sys.into_sink())
                })
            } else {
                with_ext!(e, k, |x| {
                    let (r, secs, sys) = drive(System::with_sink(config, x, sink), k, true, t);
                    (r, secs, sys.into_sink())
                })
            };
            // The sampled epoch series must add up to the run's totals.
            if let Ok(r) = &r {
                if let Err(e) = sink.check_against(r) {
                    return (Err(format!("{label}: metrics sink disagrees: {e}")), secs);
                }
            }
            (r, secs)
        }
    };
    (clean(&label, r).map(|r| (RunStats::of_system(&r), Some(r))), secs)
}

/// The ladder's measurements.
pub struct Ladder {
    rungs: Vec<Rung>,
    names: Vec<&'static str>,
    /// `[kernel][rung]` host seconds, one per round.
    secs: Vec<Vec<Vec<f64>>>,
    /// `[kernel][rung]` statistics of the first round.
    stats: Vec<Vec<Option<RunStats>>>,
    /// `[kernel][rung]` full result of the first round (system rungs).
    results: Vec<Vec<Option<RunResult>>>,
    /// Completed rounds.
    pub rounds: usize,
    /// Runs made.
    pub attempted: u64,
    /// Why runs failed.
    pub failures: Vec<String>,
}

/// Runs the ladder over `kernels` in rounds until `seconds` have passed
/// (at least [`MIN_ROUNDS`], at most [`MAX_ROUNDS`]). Every run must
/// halt cleanly, repeat its first round's statistics, match the oracle
/// where it stores the run, and — on the observer rungs — match the
/// unobserved elided run.
pub fn run_ladder(kernels: &[Kernel], seconds: f64, expected: &Expected, t: &mut Tracer) -> Ladder {
    let rungs = Rung::all();
    let n = rungs.len();
    let mut l = Ladder {
        names: kernels.iter().map(Kernel::name).collect(),
        secs: vec![vec![Vec::new(); n]; kernels.len()],
        stats: vec![vec![None; n]; kernels.len()],
        results: vec![vec![None; n]; kernels.len()],
        rungs,
        rounds: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let started = Instant::now();
    let ladder = t.begin("ladder");
    while l.rounds < MIN_ROUNDS
        || (l.rounds < MAX_ROUNDS && started.elapsed().as_secs_f64() < seconds)
    {
        for (ki, k) in kernels.iter().enumerate() {
            for (ri, &rung) in l.rungs.iter().enumerate() {
                let (out, secs) = run_rung(k, rung, t);
                l.attempted += 1;
                l.secs[ki][ri].push(secs);
                let (st, result) = match out {
                    Ok(v) => v,
                    Err(e) => {
                        l.failures.push(e);
                        continue;
                    }
                };
                let label = format!("{}/{}", k.name(), rung.name());
                if let Some(first) = &l.stats[ki][ri] {
                    if let Some(d) = st.diff(first) {
                        l.failures.push(format!("{label}: not repeatable: {d}"));
                    }
                    continue;
                }
                let oracle_label = match rung {
                    Rung::Core => Some(Mode::Core.label(k.name())),
                    Rung::Ext(e) => Some(Mode::Ext(e).label(k.name())),
                    Rung::Elided(e) => Some(Mode::Elided(e).label(k.name())),
                    _ => None,
                };
                if let Some(want) = oracle_label.as_deref().and_then(|lb| expected.find(lb)) {
                    if let Some(d) = st.diff(want) {
                        l.failures.push(format!("{label}: {d}"));
                    }
                }
                if let Rung::Metrics(e) | Rung::Profiled(e) = rung {
                    let base = l.rungs.iter().position(|r| *r == Rung::Elided(e));
                    let unobserved = base.and_then(|b| l.stats[ki][b].as_ref());
                    if let Some(d) = unobserved.and_then(|u| st.diff(u)) {
                        l.failures.push(format!("{label}: observer changed the run: {d}"));
                    }
                }
                l.stats[ki][ri] = Some(st);
                l.results[ki][ri] = result;
            }
        }
        l.rounds += 1;
    }
    t.end(ladder);
    l
}

impl Ladder {
    fn idx(&self, rung: Rung) -> usize {
        self.rungs.iter().position(|r| *r == rung).expect("rung is on the ladder")
    }

    fn med(&self, ki: usize, rung: Rung) -> f64 {
        median(&self.secs[ki][self.idx(rung)])
    }

    /// Σ over kernels of a rung's median host seconds.
    fn sum_med(&self, rung: Rung) -> f64 {
        (0..self.names.len()).map(|ki| self.med(ki, rung)).sum()
    }

    fn sum_stat(&self, rung: Rung, f: impl Fn(&RunStats) -> u64) -> u64 {
        let ri = self.idx(rung);
        self.stats.iter().filter_map(|row| row[ri].as_ref()).map(&f).sum()
    }

    fn results(&self, rungs: &[Rung]) -> Vec<&RunResult> {
        let idx: Vec<usize> = rungs.iter().map(|r| self.idx(*r)).collect();
        self.results.iter().flat_map(|row| idx.iter().filter_map(|&i| row[i].as_ref())).collect()
    }

    /// One row per kernel × rung: median, quartile spread, range and
    /// sample count of host time, with the instruction and packet
    /// counts every per-instruction or per-packet figure is based on.
    pub fn rows(&self) -> String {
        let mut s = format!(
            "{:<13}{:<27}{:>10}{:>8}{:>10}{:>10}{:>4}{:>10}{:>10}{:>9}\n",
            "kernel",
            "rung",
            "median_ms",
            "iqr_%",
            "min_ms",
            "max_ms",
            "n",
            "insns",
            "packets",
            "ns/insn"
        );
        for (ki, name) in self.names.iter().enumerate() {
            for (ri, rung) in self.rungs.iter().enumerate() {
                let v = &self.secs[ki][ri];
                let (insns, packets) =
                    self.stats[ki][ri].as_ref().map_or((0, 0), |st| (st.instret, st.forwarded));
                let med = median(v);
                s.push_str(&format!(
                    "{name:<13}{:<27}{:>10.3}{:>8.1}{:>10.3}{:>10.3}{:>4}{insns:>10}{packets:>10}{:>9.2}\n",
                    rung.name(),
                    med * 1e3,
                    iqr_share(v) * 100.0,
                    percentile(v, 0.0) * 1e3,
                    percentile(v, 1.0) * 1e3,
                    v.len(),
                    med * 1e9 / insns.max(1) as f64,
                ));
            }
        }
        s
    }

    /// The per-layer metrics the ladder gives.
    pub fn metrics(&self, m: &mut Metrics) {
        let insns = self.sum_stat(Rung::Core, |s| s.instret) as f64;
        m.add("ladder.rounds", self.rounds as f64, "count");
        m.add("pipeline.core_ns_per_insn", self.sum_med(Rung::Core) * 1e9 / insns, "ns/insn");
        m.add(
            "flexcore.system_ns_per_insn",
            (self.sum_med(Rung::Nop) - self.sum_med(Rung::Core)) * 1e9 / insns,
            "ns/insn",
        );
        for e in Ext::ALL {
            let packets = self.sum_stat(Rung::Ext(e), |s| s.forwarded);
            let ns = (self.sum_med(Rung::Ext(e)) - self.sum_med(Rung::Nop)) * 1e9;
            m.add(
                format!("flexcore.ext_ns_per_packet.{}", e.name()),
                ns / packets.max(1) as f64,
                "ns/packet",
            );
            m.add(format!("flexcore.ext_packets.{}", e.name()), packets as f64, "count");
        }
        let (mut elide_ns, mut elide_insns) = (0.0, 0u64);
        for e in Ext::ELIDABLE {
            elide_ns += (self.sum_med(Rung::Elided(e)) - self.sum_med(Rung::Ext(e))) * 1e9;
            elide_insns += self.sum_stat(Rung::Elided(e), |s| s.instret);
            let elided = self.sum_stat(Rung::Elided(e), |s| s.elided_checks);
            let forwarded = self.sum_stat(Rung::Elided(e), |s| s.forwarded);
            m.add(
                format!("flexcore.elide.elided_frac.{}", e.name()),
                elided as f64 / (elided + forwarded).max(1) as f64,
                "ratio",
            );
        }
        m.add("flexcore.elide_ns_per_insn", elide_ns / elide_insns.max(1) as f64, "ns/insn");
        let sum = |f: fn(Ext) -> Rung| OBSERVED.iter().map(|e| self.sum_med(f(*e))).sum::<f64>();
        m.add("flexcore.obs.metrics_overhead", sum(Rung::Metrics) / sum(Rung::Elided), "ratio");
        m.add("telemetry.profiler_overhead", sum(Rung::Profiled) / sum(Rung::Metrics), "ratio");

        m.add("pipeline.instret", insns, "count");
        m.add("pipeline.cycles", self.sum_stat(Rung::Core, |s| s.cycles) as f64, "cycles");
        let full = self.results(&Ext::ALL.map(Rung::Ext));
        let total = |f: &dyn Fn(&RunResult) -> u64| full.iter().map(|r| f(r)).sum::<u64>() as f64;
        let ratio = |num: f64, den: f64| if den == 0.0 { 0.0 } else { num / den };
        m.add(
            "mem.icache.miss_ratio",
            ratio(
                total(&|r| r.icache.read_misses + r.icache.write_misses),
                total(&|r| r.icache.accesses()),
            ),
            "ratio",
        );
        m.add(
            "mem.dcache.miss_ratio",
            ratio(
                total(&|r| r.dcache.read_misses + r.dcache.write_misses),
                total(&|r| r.dcache.accesses()),
            ),
            "ratio",
        );
        m.add(
            "mem.bus.wait_cycles",
            total(&|r| r.bus.core_wait_cycles + r.bus.fabric_wait_cycles),
            "cycles",
        );
        m.add(
            "mem.metacache.miss_ratio",
            ratio(
                total(&|r| r.meta_cache.read_misses + r.meta_cache.write_misses),
                total(&|r| r.meta_cache.accesses()),
            ),
            "ratio",
        );
        m.add(
            "flexcore.interface.forwarded_frac",
            ratio(total(&|r| r.forward.forwarded), total(&|r| r.forward.committed)),
            "ratio",
        );
        m.add(
            "flexcore.interface.fifo_stall_cycles",
            total(&|r| r.forward.fifo_stall_cycles),
            "cycles",
        );
        let peak = full.iter().map(|r| r.forward.peak_occupancy).max().unwrap_or(0);
        m.add("flexcore.interface.peak_occupancy", peak as f64, "count");
    }
}

/// Times the per-kernel set-up calls behind the `asm`, `analysis` and
/// `fabric` metrics — assembly, elision table, CFI edges, and the CFI
/// bitstream — [`SETUP_ROUNDS`] times, and returns the prepared kernels.
pub fn prepare_kernels(
    workloads: &[flexcore_workloads::Workload],
    t: &mut Tracer,
    m: &mut Metrics,
) -> Result<Vec<Kernel>, String> {
    let mut per_call: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut kernels = Vec::new();
    for _ in 0..SETUP_ROUNDS {
        kernels.clear();
        let mut sums: BTreeMap<&str, f64> = BTreeMap::new();
        for w in workloads {
            let before = t.spans().len();
            let k = Kernel::prepare(*w, true, t)?;
            let (_, bits_s) = t.time("swap::bitstream_for", || {
                flexcore_bench::swap::bitstream_for(&Cfi::new(k.cfi_table().clone()))
            });
            *sums.entry("fabric.bitstream_ms").or_default() += bits_s;
            for s in &t.spans()[before..] {
                let metric = match s.name {
                    "Workload::program" => "asm.assemble_ms",
                    "elide::build_elision_table" => "analysis.elision_table_ms",
                    "swap::cfi_table_for" => "analysis.cfi_edges_ms",
                    _ => continue,
                };
                *sums.entry(metric).or_default() += s.dur_ns as f64 * 1e-9;
            }
            kernels.push(k);
        }
        for (metric, secs) in sums {
            per_call.entry(metric).or_default().push(secs / workloads.len() as f64);
        }
    }
    for (metric, v) in per_call {
        m.add(metric, median(&v) * 1e3, "ms");
    }
    Ok(kernels)
}

/// Checkpoint probe: SEC runs of the campaign kernels paused at the
/// default recovery cadence, a snapshot at every pause, and every
/// [`RESTORE_EVERY`]th snapshot restored and serialized.
pub fn checkpoint_probe(kernels: &[Kernel], t: &mut Tracer, m: &mut Metrics, f: &mut Failures) {
    let every = flexcore::RecoveryPolicy::default().checkpoint_every;
    let (mut snap_s, mut restore_s, mut bytes) = (Vec::new(), Vec::new(), Vec::new());
    for k in kernels {
        let label = format!("{}/sec checkpointed", k.name());
        let mut sys = System::new(trial::paper_config(ExtKind::Sec), Sec::new());
        sys.load_program(&k.program);
        let mut snaps = Vec::new();
        let mut at = every;
        f.attempted += 1;
        let done = loop {
            match sys.try_run_until(MAX_INSTRUCTIONS, at) {
                Ok(RunOutcome::Paused { .. }) => {
                    let (snap, secs) = t.time("System::snapshot", || sys.snapshot());
                    snap_s.push(secs);
                    snaps.push(snap);
                    at += every;
                }
                Ok(RunOutcome::Done(r)) => break clean(&label, Ok(r)),
                Err(e) => break clean(&label, Err(e)),
            }
        };
        if let Err(e) = done {
            f.messages.push(e);
        }
        for snap in snaps.iter().step_by(RESTORE_EVERY) {
            f.attempted += 1;
            let (restored, secs) = t.time("System::restore", || sys.restore(snap));
            restore_s.push(secs);
            if let Err(e) = restored {
                f.messages.push(format!("{label}: restore failed: {e}"));
            }
            bytes.push(snap.to_json().len() as f64);
        }
    }
    m.add("flexcore.checkpoint.snapshot_us", median(&snap_s) * 1e6, "us");
    m.add("flexcore.checkpoint.restore_us", median(&restore_s) * 1e6, "us");
    m.add("flexcore.checkpoint.snapshot_bytes", median(&bytes), "bytes");
    m.add("flexcore.checkpoint.samples", snap_s.len() as f64, "count");
}

/// Lockstep probe: clean SEC runs of the campaign kernels with and
/// without the golden model, [`LOCKSTEP_ROUNDS`] rounds.
pub fn lockstep_probe(kernels: &[Kernel], t: &mut Tracer, m: &mut Metrics, f: &mut Failures) {
    let mut plain = vec![Vec::new(); kernels.len()];
    let mut locked = vec![Vec::new(); kernels.len()];
    for _ in 0..LOCKSTEP_ROUNDS {
        for (ki, k) in kernels.iter().enumerate() {
            for lockstep in [false, true] {
                let mut sys = System::new(trial::paper_config(ExtKind::Sec), Sec::new());
                sys.load_program(&k.program);
                if lockstep {
                    sys.enable_lockstep();
                }
                let (r, secs) = t.time("System::try_run", || sys.try_run(MAX_INSTRUCTIONS));
                f.attempted += 1;
                if let Err(e) = clean(&format!("{}/sec lockstep={lockstep}", k.name()), r) {
                    f.messages.push(e);
                }
                let row = if lockstep { &mut locked } else { &mut plain };
                row[ki].push(secs);
            }
        }
    }
    let sum = |v: &[Vec<f64>]| v.iter().map(|s| median(s)).sum::<f64>();
    m.add("flexcore.lockstep_overhead", sum(&locked) / sum(&plain), "ratio");
}

/// Recovery probe: the first ALU-flip trial of each campaign kernel run
/// directly under a `Supervisor`, for the counters of its
/// `RecoveryReport`.
pub fn recovery_probe(
    kernels: &[Kernel],
    s: &CampaignSetup,
    t: &mut Tracer,
    m: &mut Metrics,
    f: &mut Failures,
) {
    let (mut checkpoints, mut replays, mut mttr, mut injected) = (0u64, 0u64, 0u64, 0u64);
    for k in kernels {
        let Some(spec) = s.trials.iter().find(|sp| {
            sp.workload.name() == k.name() && matches!(sp.kind, TrialKind::AluFlip { .. })
        }) else {
            continue;
        };
        let TrialKind::AluFlip { trial_seed, site, bit } = spec.kind else { continue };
        let plan = FaultPlan::new(trial_seed).inject(
            FaultTarget::CommitResult,
            FaultSchedule::AtCommit(site),
            FaultModel::Mask(1 << bit),
        );
        let mut sys = System::new(trial::paper_config(ExtKind::Sec), Sec::new());
        sys.load_program(&k.program);
        sys.arm_faults(plan);
        if spec.lockstep {
            sys.enable_lockstep();
        }
        let mut sup = Supervisor::new(sys, spec.policy);
        let (result, _) = t.time("Supervisor::run", || sup.run(MAX_INSTRUCTIONS));
        let report = sup.report();
        f.attempted += 1;
        let triage = FaultOutcome::classify(report, &result, &s.references[k.name()].0);
        if triage == FaultOutcome::Sdc {
            f.messages.push(format!("{}: supervised run is SDC", spec.label));
        }
        // Rollback rewinds the injector's counters, so the strike is
        // counted on the same trial run once more without supervisor
        // or golden model.
        let plain = TrialSpec { recover: false, lockstep: false, ..spec.clone() };
        let (o, _) = t.time("trial::run_trial", || trial::run_trial(&plain, None));
        injected += o.faults_injected;
        checkpoints += report.checkpoints_taken;
        replays += u64::from(report.replays);
        mttr += report.mttr_cycles;
    }
    m.add("flexcore.recovery.checkpoints", checkpoints as f64, "count");
    m.add("flexcore.recovery.replays", replays as f64, "count");
    m.add("flexcore.recovery.mttr_cycles", mttr as f64, "cycles");
    m.add("flexcore.faults.injected", injected as f64, "count");
}

/// Trial probe: every trial of the campaign job run one at a time
/// through `trial::run_trial`, with the reference the server's pool
/// would hand it. Each outcome must reproduce the server's record.
/// Returns `(label, outcome, seconds)` per trial.
pub fn trial_probe(
    s: &CampaignSetup,
    server_records: &BTreeMap<String, String>,
    t: &mut Tracer,
    m: &mut Metrics,
    f: &mut Failures,
) -> Vec<(String, TrialOutcome, f64)> {
    let mut out = Vec::new();
    let (mut flips, mut swaps) = (Vec::new(), Vec::new());
    let mut triage: BTreeMap<&str, u64> =
        FaultOutcome::ALL.iter().map(|o| (o.label(), 0)).collect();
    for spec in &s.trials {
        let reference = &s.references[spec.workload.name()].0;
        let (o, secs) = t.time("trial::run_trial", || trial::run_trial(spec, Some(reference)));
        f.attempted += 1;
        match o.triage {
            Some(FaultOutcome::Sdc) => f.messages.push(format!("{}: triaged sdc", spec.label)),
            Some(tr) => *triage.entry(tr.label()).or_default() += 1,
            None => f.messages.push(format!("{}: unclassified", spec.label)),
        }
        let line = serde::to_string(&trial::outcome_record(&spec.label, &o));
        if server_records.get(&spec.label) != Some(&line) {
            f.messages.push(format!("{}: run_trial record differs from the server's", spec.label));
        }
        match spec.kind {
            TrialKind::SwapWindow { .. } => swaps.push(secs),
            _ => flips.push(secs),
        }
        out.push((spec.label.clone(), o, secs));
    }
    for (name, v) in [("alu_flip", &flips), ("swap_window", &swaps)] {
        m.add(format!("bench.trial.{name}_ms.p50"), percentile(v, 0.5) * 1e3, "ms");
        m.add(format!("bench.trial.{name}_ms.p90"), percentile(v, 0.9) * 1e3, "ms");
        m.add(format!("bench.trial.{name}.samples"), v.len() as f64, "count");
    }
    for (label, n) in triage {
        m.add(format!("flexcore.triage.{label}"), n as f64, "count");
    }
    out
}

/// Journal probe: the trial outcomes appended to a fresh journal in
/// `dir`, with a sync every [`SYNC_EVERY`] appends.
pub fn journal_probe(
    s: &CampaignSetup,
    outcomes: &[(String, TrialOutcome, f64)],
    dir: &Path,
    t: &mut Tracer,
    m: &mut Metrics,
    f: &mut Failures,
) {
    let path = dir.join("probe.jsonl");
    let (mut append_s, mut sync_s) = (Vec::new(), Vec::new());
    f.attempted += 1;
    let result = (|| {
        let (mut journal, _) =
            Journal::open(&path, &s.spec.header(), &s.spec.canonical(), false, usize::MAX)?;
        for (i, (label, o, _)) in outcomes.iter().enumerate() {
            let (r, secs) = t.time("Journal::append_trial", || journal.append_trial(label, o));
            r?;
            append_s.push(secs);
            if (i + 1) % SYNC_EVERY == 0 || i + 1 == outcomes.len() {
                let (r, secs) = t.time("Journal::sync", || journal.sync());
                r?;
                sync_s.push(secs);
            }
        }
        Ok::<(), flexcore_serve::JournalError>(())
    })();
    if let Err(e) = result {
        f.messages.push(format!("journal probe: {e}"));
    }
    let _ = std::fs::remove_dir_all(dir);
    m.add("serve.journal.append_us", median(&append_s) * 1e6, "us");
    m.add("serve.journal.sync_ms", median(&sync_s) * 1e3, "ms");
}

/// Service metrics from one traced server pass and the sequential
/// trial times: admission latency, and the share of pool capacity
/// (`Server::run` wall × pool width) not spent inside `run_trial`.
pub fn serve_metrics(
    pass: &campaign::CampaignPass,
    outcomes: &[(String, TrialOutcome, f64)],
    m: &mut Metrics,
) {
    let busy: f64 = outcomes.iter().map(|o| o.2).sum();
    let capacity = pass.run_s * campaign::pool_width() as f64;
    m.add("serve.admit_us", pass.admit_s * 1e6, "us");
    m.add("serve.overhead_frac", 1.0 - busy / capacity, "ratio");
    m.add("serve.pool_width", campaign::pool_width() as f64, "count");
}

/// Attempted operations and failure messages of the traced run.
#[derive(Default)]
pub struct Failures {
    /// Operations attempted.
    pub attempted: u64,
    /// One message per failed operation.
    pub messages: Vec<String>,
}
