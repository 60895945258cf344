//! `perfbench`: the end-to-end and per-layer performance benchmark of
//! the FlexCore simulator. See `README.md` beside this package for the
//! workloads, metrics, and how to run it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --bless
//! ```
//!
//! The last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, and `metrics` — the end-to-end metrics with
//! `--trace 0`, the per-layer metrics of the traced run with
//! `--trace 1`. Exit status: 0 after a measured run (failed operations
//! are reported in the JSON, not in the status), 1 when the benchmark
//! could not run, 2 on a malformed command line.

#![forbid(unsafe_code)]

mod campaign;
mod host;
mod layers;
mod oracle;
mod sim;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::time::Instant;

use host::Reference;
use oracle::Expected;
use sim::SimWorkload;
use stats::median;
use trace::Tracer;

const USAGE: &str = "usage: perfbench --workload <table4_sweep|elided_heldout|fault_campaign> \
                     --seed <n> --seconds <s> --trace <0|1>\n       perfbench --bless";

/// Set-up is repeated at least `SETUP_MIN_REPS` times and until it has
/// taken `SETUP_MIN_SECONDS` in all (at most `SETUP_MAX_REPS` times);
/// `setup_s` is the median, so a set-up of a few milliseconds is timed
/// as steadily as one of a second.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 1000;
const SETUP_MIN_SECONDS: f64 = 1.0;

/// Seeds whose campaign trial records `--bless` stores.
const BLESS_SEEDS: u64 = 10;

/// Where runs leave their scratch journals and the traced run its
/// Chrome trace, relative to the working directory.
const OUT_DIR: &str = ".perfbench-out";

/// A workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Workload {
    Sim(SimWorkload),
    FaultCampaign,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "table4_sweep" => Some(Workload::Sim(SimWorkload::Table4Sweep)),
            "elided_heldout" => Some(Workload::Sim(SimWorkload::ElidedHeldout)),
            "fault_campaign" => Some(Workload::FaultCampaign),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Sim(s) => s.name(),
            Workload::FaultCampaign => "fault_campaign",
        }
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

#[derive(Debug, PartialEq)]
enum Command {
    Run(Args),
    Bless,
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    if args == ["--bless"] {
        return Ok(Command::Bless);
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Command::Run(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    }))
}

/// Named metrics with units, in report order.
#[derive(Default)]
pub struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    /// Adds one metric.
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.push((name.into(), value, unit));
    }
}

/// What one run reports.
struct Report {
    attempted: u64,
    failures: Vec<String>,
    metrics: Metrics,
}

impl Report {
    /// Records a failure unless the metrics are exactly `declared`.
    fn check_declared(&mut self, declared: &[(String, String)]) {
        let mut got: Vec<(String, String)> =
            self.metrics.0.iter().map(|(n, _, u)| (n.clone(), u.to_string())).collect();
        let mut want = declared.to_vec();
        got.sort();
        want.sort();
        if got != want {
            let missing: Vec<_> = want.iter().filter(|m| !got.contains(m)).collect();
            let extra: Vec<_> = got.iter().filter(|m| !want.contains(m)).collect();
            self.failures.push(format!(
                "metrics differ from BENCHMARK.json: missing {missing:?}, undeclared {extra:?}"
            ));
        }
    }

    /// The result line: every value printed with all its digits. A
    /// value that is not finite is reported as a failure.
    fn json(&mut self) -> String {
        let mut fields = Vec::new();
        for (name, value, unit) in &self.metrics.0 {
            let value = if value.is_finite() {
                *value
            } else {
                self.failures.push(format!("metric {name} is not finite"));
                0.0
            };
            fields.push(format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"));
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failures.is_empty(),
            self.attempted.max(1),
            self.failures.len(),
            fields.join(", ")
        )
    }
}

/// The stored expected outputs, built into the binary.
const EXPECTED: &str = include_str!("../expected.json");

/// The benchmark's declaration: every run checks that it emits exactly
/// the metrics declared there for its mode.
const DECLARATION: &str = include_str!("../../BENCHMARK.json");

/// Where `--bless` writes the expected outputs.
fn expected_path() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("expected.json")
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares for a mode.
fn declared_metrics(trace: bool) -> Result<Vec<(String, String)>, String> {
    let v = serde::from_str(DECLARATION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let key = if trace { "per_layer" } else { "end_to_end" };
    let list = v.get(key).and_then(serde::Value::as_array).ok_or(format!("no `{key}` list"))?;
    list.iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(serde::Value::as_str).map(String::from);
            field("name").zip(field("unit")).ok_or(format!("malformed `{key}` entry"))
        })
        .collect()
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// `table4_mae` from the stored `table4_sweep` statistics — what the
/// workloads that do not simulate Table IV report.
fn stored_table4_mae(expected: &Expected) -> Result<f64, String> {
    let runs = expected.runs.get("table4_sweep").ok_or("no stored table4_sweep runs")?;
    sim::table4_mae(&|label| runs.get(label).map(|s| s.cycles))
}

/// Sets up repeatedly (see `SETUP_MIN_REPS`), with a reference run
/// before the first set-up and after each; returns the last set-up and
/// the median set-up seconds × the host factor of those reference runs.
fn timed_setup<T>(
    reference: &mut Reference,
    mut f: impl FnMut() -> Result<T, String>,
) -> Result<(T, f64), String> {
    let (mut secs, mut references) = (Vec::new(), vec![reference.run()]);
    loop {
        let started = Instant::now();
        let last = f()?;
        secs.push(started.elapsed().as_secs_f64());
        references.push(reference.run());
        let enough = secs.len() >= SETUP_MIN_REPS && secs.iter().sum::<f64>() >= SETUP_MIN_SECONDS;
        if enough || secs.len() >= SETUP_MAX_REPS {
            return Ok((last, median(&secs) * host::factor(&references)));
        }
    }
}

/// Runs `pass` until `seconds` have passed (at least once).
fn passes<T>(seconds: f64, mut pass: impl FnMut() -> Result<T, String>) -> Result<Vec<T>, String> {
    let started = Instant::now();
    let mut out = Vec::new();
    while out.is_empty() || started.elapsed().as_secs_f64() < seconds {
        out.push(pass()?);
    }
    Ok(out)
}

/// `label: raw → scaled` seconds of every pass, for the human-readable
/// lines before the result.
fn pass_line(label: &str, raw_and_factor: impl Iterator<Item = (f64, f64)>) -> String {
    let cells: Vec<String> =
        raw_and_factor.map(|(raw, f)| format!("{raw:.3}→{:.3}", raw * f)).collect();
    format!("{} passes, {label} s (measured→nominal host): {}", cells.len(), cells.join(" "))
}

/// The untraced run: set-up, then passes of the workload for `seconds`,
/// every output checked; the end-to-end metrics. Every time is scaled
/// to the nominal host by reference runs timed around it (see `host`).
fn measure(args: &Args) -> Result<Report, String> {
    let out = Path::new(OUT_DIR);
    let mut quiet = Tracer::new(false);
    let mut reference = Reference::new();
    let mut m = Metrics::default();
    let (attempted, failures) = match args.workload {
        Workload::Sim(which) => {
            let ((expected, s), setup_s) = timed_setup(&mut reference, || {
                let expected = Expected::parse(EXPECTED)?;
                Ok((expected, sim::setup(which, &mut quiet)?))
            })?;
            let passes =
                passes(args.seconds, || Ok(sim::run_pass(&s, &mut quiet, Some(&mut reference))))?;
            println!("{}", pass_line("wall", passes.iter().map(|p| (p.wall_s, p.host_factor()))));
            let mut failures: Vec<String> =
                passes.iter().flat_map(|p| sim::check_pass(&s, p, &expected)).collect();
            let wall_s =
                median(&passes.iter().map(|p| p.wall_s * p.host_factor()).collect::<Vec<_>>());
            let measured_mae = match which {
                SimWorkload::Table4Sweep => {
                    let first = &passes[0];
                    Some(sim::table4_mae(&|label| {
                        let i = s.cells.iter().position(|c| c.2 == label)?;
                        first.stats[i].as_ref().ok().map(|st| st.cycles)
                    }))
                }
                SimWorkload::ElidedHeldout => None,
            };
            // A failed Table IV cell is already counted above; the
            // stored figure stands in for the one it spoiled.
            let mae = match measured_mae {
                Some(Ok(mae)) => mae,
                Some(Err(e)) => {
                    failures.push(e);
                    stored_table4_mae(&expected)?
                }
                None => stored_table4_mae(&expected)?,
            };
            m.add("sim_insns_per_s", sim::insns_per_s(&passes), "insns/s");
            m.add("wall_s", wall_s, "s");
            m.add("trials_per_s", s.cells.len() as f64 / wall_s, "1/s");
            m.add("setup_s", setup_s, "s");
            m.add("table4_mae", mae, "ratio");
            ((passes.len() * s.cells.len()) as u64, failures)
        }
        Workload::FaultCampaign => {
            let ((expected, s), setup_s) = timed_setup(&mut reference, || {
                let expected = Expected::parse(EXPECTED)?;
                Ok((expected, campaign::setup(args.seed, &mut quiet)?))
            })?;
            let mut before = reference.run();
            let passes = passes(args.seconds, || {
                let dir = campaign::fresh_dir(out, "journal")?;
                let pass = campaign::run_pass(&s, &dir, &mut quiet)?;
                let after = reference.run();
                let factor = host::factor(&[before, after]);
                before = after;
                Ok((pass, factor))
            })?;
            println!("{}", pass_line("Server::run", passes.iter().map(|(p, f)| (p.run_s, *f))));
            println!("{}", campaign::summary(&s, &passes[0].0));
            let stored = campaign::reference_digests(&expected, args.seed, &passes[0].0);
            let failures: Vec<String> =
                passes.iter().flat_map(|(p, _)| campaign::check_pass(&s, p, &stored)).collect();
            let run_s = median(&passes.iter().map(|(p, f)| p.run_s * f).collect::<Vec<_>>());
            let wall_s = median(&passes.iter().map(|(p, f)| p.wall_s * f).collect::<Vec<_>>());
            m.add("sim_insns_per_s", s.nominal_insns as f64 / run_s, "insns/s");
            m.add("wall_s", wall_s, "s");
            m.add("trials_per_s", s.trials.len() as f64 / run_s, "1/s");
            m.add("setup_s", setup_s, "s");
            m.add("table4_mae", stored_table4_mae(&expected)?, "ratio");
            ((passes.len() * s.trials.len()) as u64, failures)
        }
    };
    m.add("peak_rss_mb", peak_rss_mb()? - Reference::resident_mib(), "MiB");
    Ok(Report { attempted, failures, metrics: m })
}

/// The traced run: set-up and one workload pass under spans, one
/// untraced pass for `trace.overhead`, the ablation ladder over the
/// workload's kernels, and the campaign-layer probes; the per-layer
/// metrics. Prints the ladder rows and a per-span summary, and writes
/// the spans as a Chrome trace under `OUT_DIR`.
fn traced(args: &Args) -> Result<Report, String> {
    let out = Path::new(OUT_DIR);
    let mut t = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut m = Metrics::default();
    let mut f = layers::Failures::default();
    let expected = Expected::parse(EXPECTED)?;
    let setup_span = t.begin("setup");
    let csetup = campaign::setup(args.seed, &mut t)?;
    let (kernel_set, overhead, server_pass) = match args.workload {
        Workload::Sim(which) => {
            let s = sim::setup(which, &mut t)?;
            t.end(setup_span);
            let untraced = sim::run_pass(&s, &mut quiet, None);
            let traced = sim::run_pass(&s, &mut t, None);
            for p in [&untraced, &traced] {
                f.attempted += s.cells.len() as u64;
                f.messages.extend(sim::check_pass(&s, p, &expected));
            }
            let dir = campaign::fresh_dir(out, "journal")?;
            let server_pass = campaign::run_pass(&csetup, &dir, &mut t)?;
            (which.workloads(), traced.wall_s / untraced.wall_s, server_pass)
        }
        Workload::FaultCampaign => {
            t.end(setup_span);
            let dir = campaign::fresh_dir(out, "journal")?;
            let untraced = campaign::run_pass(&csetup, &dir, &mut quiet)?;
            let dir = campaign::fresh_dir(out, "journal")?;
            let traced = campaign::run_pass(&csetup, &dir, &mut t)?;
            let stored = campaign::reference_digests(&expected, args.seed, &untraced);
            for p in [&untraced, &traced] {
                f.attempted += csetup.trials.len() as u64;
                f.messages.extend(campaign::check_pass(&csetup, p, &stored));
            }
            (campaign::kernels(), traced.wall_s / untraced.wall_s, traced)
        }
    };
    m.add("trace.overhead", overhead, "ratio");

    let kernels = layers::prepare_kernels(&kernel_set, &mut t, &mut m)?;
    let ladder = layers::run_ladder(&kernels, args.seconds, &expected, &mut t);
    f.attempted += ladder.attempted;
    f.messages.extend(ladder.failures.iter().cloned());
    ladder.metrics(&mut m);
    println!("ablation ladder ({} rounds; host time of the simulation call):", ladder.rounds);
    print!("{}", ladder.rows());

    let ckernels: Vec<sim::Kernel> = campaign::kernels()
        .into_iter()
        .map(|w| sim::Kernel::prepare(w, false, &mut t))
        .collect::<Result<_, _>>()?;
    layers::checkpoint_probe(&ckernels, &mut t, &mut m, &mut f);
    layers::lockstep_probe(&ckernels, &mut t, &mut m, &mut f);
    layers::recovery_probe(&ckernels, &csetup, &mut t, &mut m, &mut f);
    let outcomes = layers::trial_probe(&csetup, &server_pass.records, &mut t, &mut m, &mut f);
    let dir = campaign::fresh_dir(out, "probe")?;
    layers::journal_probe(&csetup, &outcomes, &dir, &mut t, &mut m, &mut f);
    layers::serve_metrics(&server_pass, &outcomes, &mut m);

    println!("spans (count, total ms, self ms):");
    for (name, (n, total, self_ns)) in t.summary() {
        println!("  {name:<28}{n:>7}{:>12.3}{:>12.3}", total as f64 * 1e-6, self_ns as f64 * 1e-6);
    }
    let trace_path = out.join(format!("trace-{}-seed{}.json", args.workload.name(), args.seed));
    std::fs::create_dir_all(out).map_err(|e| format!("{OUT_DIR}: {e}"))?;
    std::fs::write(&trace_path, t.chrome_json())
        .map_err(|e| format!("{}: {e}", trace_path.display()))?;
    Ok(Report { attempted: f.attempted, failures: f.messages, metrics: m })
}

/// Regenerates `expected.json` from one pass of each simulation
/// workload and one campaign per seed in `0..BLESS_SEEDS`. Refuses to
/// store a run that does not halt cleanly or a campaign that fails its
/// gates.
fn bless() -> Result<(), String> {
    let mut e = Expected::default();
    let mut quiet = Tracer::new(false);
    for which in [SimWorkload::Table4Sweep, SimWorkload::ElidedHeldout] {
        let s = sim::setup(which, &mut quiet)?;
        let pass = sim::run_pass(&s, &mut quiet, None);
        let cells = e.runs.entry(which.name().to_string()).or_default();
        for ((_, _, label), st) in s.cells.iter().zip(pass.stats) {
            cells.insert(label.clone(), st?);
        }
    }
    for seed in 0..BLESS_SEEDS {
        let s = campaign::setup(seed, &mut quiet)?;
        let dir = campaign::fresh_dir(Path::new(OUT_DIR), "journal")?;
        let pass = campaign::run_pass(&s, &dir, &mut quiet)?;
        let digests = campaign::digests(&pass);
        let failures = campaign::check_pass(&s, &pass, &digests);
        if !failures.is_empty() {
            return Err(format!("seed {seed}: {}", failures.join("; ")));
        }
        eprintln!("perfbench: blessed campaign seed {seed}");
        e.campaign.insert(seed, digests);
    }
    let path = expected_path();
    std::fs::write(&path, e.to_json()).map_err(|err| format!("{}: {err}", path.display()))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let command = match parse_args(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let args = match command {
        Command::Bless => {
            if let Err(e) = bless() {
                eprintln!("perfbench: bless: {e}");
                std::process::exit(1);
            }
            return;
        }
        Command::Run(args) => args,
    };
    let result = if args.trace { traced(&args) } else { measure(&args) };
    let _ = std::fs::remove_dir(OUT_DIR);
    match result.and_then(|r| Ok((r, declared_metrics(args.trace)?))) {
        Ok((mut report, declared)) => {
            report.check_declared(&declared);
            let line = report.json();
            for msg in report.failures.iter().take(20) {
                eprintln!("perfbench: FAILED {msg}");
            }
            println!("{line}");
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let c = parse_args(&argv("--workload fault_campaign --seed 3 --seconds 10 --trace 1"));
        assert_eq!(
            c,
            Ok(Command::Run(Args {
                workload: Workload::FaultCampaign,
                seed: 3,
                seconds: 10.0,
                trace: true
            }))
        );
        assert_eq!(parse_args(&argv("--bless")), Ok(Command::Bless));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload table4_sweep --seed -1 --seconds 1 --trace 0",
            "--workload table4_sweep --seed 1 --seconds 0 --trace 0",
            "--workload table4_sweep --seed 1 --seconds 1 --trace 2",
            "--workload table4_sweep --seed 1 --seconds 1 --trace 0 --trails 4",
            "--workload table4_sweep --seed 1 --seconds 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_failure_makes_the_result_incorrect() {
        let mut m = Metrics::default();
        m.add("wall_s", 1.5, "s");
        let mut r = Report { attempted: 3, failures: vec!["x".into()], metrics: m };
        let line = r.json();
        assert!(line.starts_with("{\"correct\": false, \"attempted\": 3, \"failed\": 1"), "{line}");
        assert!(line.contains("\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}"), "{line}");
    }

    #[test]
    fn the_declaration_lists_both_modes() {
        let e2e = declared_metrics(false).expect("end_to_end parses");
        let names: Vec<&str> = e2e.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            ["sim_insns_per_s", "wall_s", "trials_per_s", "setup_s", "peak_rss_mb", "table4_mae"]
        );
        assert!(declared_metrics(true).expect("per_layer parses").len() > 40);
    }

    #[test]
    fn an_undeclared_or_missing_metric_is_a_failure() {
        let declared = vec![("wall_s".to_string(), "s".to_string())];
        let mut m = Metrics::default();
        m.add("wall_s", 1.0, "s");
        let mut ok = Report { attempted: 1, failures: Vec::new(), metrics: m };
        ok.check_declared(&declared);
        assert!(ok.failures.is_empty());
        let mut m = Metrics::default();
        m.add("wall_ms", 1.0, "ms");
        let mut bad = Report { attempted: 1, failures: Vec::new(), metrics: m };
        bad.check_declared(&declared);
        assert_eq!(bad.failures.len(), 1);
    }

    #[test]
    fn non_finite_metric_is_a_failure() {
        let mut m = Metrics::default();
        m.add("x", f64::NAN, "s");
        let mut r = Report { attempted: 1, failures: Vec::new(), metrics: m };
        assert!(r.json().contains("\"correct\": false"));
    }
}
