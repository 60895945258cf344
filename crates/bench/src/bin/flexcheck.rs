//! `flexcheck` — static verification of both halves of the FlexCore
//! artifact, cross-checked against the dynamic monitors.
//!
//! ```text
//! flexcheck [OPTIONS] [workload ...]
//!
//! OPTIONS:
//!   --json <file>   write the findings as a JSON artifact
//!   --xcheck        additionally run every selected workload under the
//!                   UMC extension and fail if the dynamic monitor
//!                   traps on a load the static pass proved initialized
//!   --taint         run the interprocedural taint pass and report the
//!                   check-elision table it proves (tainted-jump /
//!                   tainted-store findings plus per-class PC counts)
//!   --emit-elision <dir>  write each workload's elision table to
//!                   `<dir>/<workload>.elision.json` (implies --taint)
//!   --verify-elision  run every selected workload under UMC, DIFT, and
//!                   CFI twice — full and with the elision table — and
//!                   fail on any divergence (implies --taint)
//!   --max <N>       instruction budget for --xcheck / --verify-elision
//!                   runs (default 200M)
//!   --quiet         print only errors and the per-target summary
//!
//! With no workload arguments, all six paper kernels are analyzed
//! (sha gmac stringsearch fft basicmath bitcount) along with the seven
//! extension netlists (umc dift bc sec mprot cfi nop).
//! ```
//!
//! Exit codes: `0` clean, `1` at least one error-severity finding,
//! `2` usage or harness failure, `3` static/dynamic contradiction in
//! `--xcheck` mode or lockstep divergence in `--verify-elision` mode.
//!
//! The `--xcheck` soundness direction: the static must-initialize
//! analysis under-approximates (it only *proves* loads whose address
//! it resolves to the loaded image), so every proven load must be
//! silent under UMC. A UMC trap at a proven location means one of the
//! two oracles is wrong — either the analysis proved too much or the
//! monitor's tag pipeline lost an initialization — and either way the
//! build must not ship.
//!
//! The hot-swap direction: every ordered pair of swappable extension
//! bitstreams is rehearsed through one partial-reconfiguration region
//! — map, serialize, frame, program A, then program B over it — with
//! each committed mapping proven consistent against a fresh technology
//! mapping of its netlist. A pair that cannot complete this sequence
//! would brick a mid-run `--swap-at` between those extensions.

use std::collections::BTreeSet;
use std::process::ExitCode;

use flexcore::ext::{Bc, Cfi, CfiTable, Dift, Extension, Mprot, Nop, Sec, Umc};
use flexcore::{System, SystemConfig};
use flexcore_analysis::{analyze_program, lint_netlist, AnalysisReport, Diagnostic, Severity};
use flexcore_bench::cli::Args;
use flexcore_bench::elide::{build_elision_table, verify_elision, ELIDABLE_EXTENSIONS};
use flexcore_fabric::{
    from_bitstream, map_to_luts, segment_bitstream, to_bitstream, verify_consistent, Netlist,
    PartialRegion, FRAME_BYTES,
};
use flexcore_workloads::Workload;

/// LUT input count the netlist checks map against (Virtex-5, paper §5).
const LUT_K: usize = 6;

struct Options {
    workloads: Vec<Workload>,
    json: Option<String>,
    xcheck: bool,
    taint: bool,
    emit_elision: Option<String>,
    verify_elision: bool,
    max: u64,
    quiet: bool,
}

impl Options {
    /// `true` when any mode needing the taint pass and elision table is
    /// on (`--emit-elision` / `--verify-elision` imply `--taint`).
    fn wants_elision(&self) -> bool {
        self.taint || self.emit_elision.is_some() || self.verify_elision
    }
}

/// Parses the command line, exiting 2 on any usage error.
fn parse_args() -> Options {
    let mut args = Args::from_env(
        "flexcheck [--json FILE] [--xcheck] [--taint] [--emit-elision DIR]
                 [--verify-elision] [--max N] [--quiet] [workload ...]
       workloads default to: sha gmac stringsearch fft basicmath bitcount",
    );
    let mut opts = Options {
        workloads: Vec::new(),
        json: args.value("--json"),
        xcheck: args.flag("--xcheck"),
        taint: args.flag("--taint"),
        emit_elision: args.value("--emit-elision"),
        verify_elision: args.flag("--verify-elision"),
        max: args.value("--max").unwrap_or(200_000_000),
        quiet: args.flag("--quiet"),
    };
    let all: Vec<Workload> = Workload::all().into_iter().chain(Workload::extra()).collect();
    for name in args.positionals() {
        match all.iter().find(|w| w.name() == name) {
            Some(&w) => opts.workloads.push(w),
            None => args.error(format!("unknown workload `{name}`")),
        }
    }
    if opts.workloads.is_empty() {
        opts.workloads = Workload::all().into_iter().collect();
    }
    args.finish();
    opts
}

/// Severity counts of one finding list.
fn tally(diags: &[Diagnostic]) -> (usize, usize, usize) {
    let count = |s| diags.iter().filter(|d| d.severity == s).count();
    (count(Severity::Error), count(Severity::Warning), count(Severity::Info))
}

fn print_findings(target: &str, diags: &[Diagnostic], quiet: bool) {
    for d in diags {
        if !quiet || d.is_error() {
            println!("{target}: {d}");
        }
    }
    let (e, w, i) = tally(diags);
    println!("[{target}] {e} error(s), {w} warning(s), {i} note(s)");
}

fn diag_json(d: &Diagnostic) -> serde::Value {
    let mut obj =
        serde::Value::object().field("rule", &d.rule.id()).field("severity", &d.severity.name());
    if let Some(a) = d.addr {
        obj = obj.field("addr", &a);
    }
    obj.field("message", &d.message.as_str()).build()
}

fn findings_json(name: &str, diags: &[Diagnostic]) -> serde::Value {
    let (e, w, i) = tally(diags);
    serde::Value::object()
        .field("name", &name)
        .field("errors", &(e as u64))
        .field("warnings", &(w as u64))
        .field("infos", &(i as u64))
        .raw("diagnostics", serde::Value::Array(diags.iter().map(diag_json).collect()))
        .build()
}

/// Analyzes one workload program; returns the report for xcheck reuse.
fn check_workload(w: Workload, opts: &Options) -> Result<AnalysisReport, String> {
    let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
    let report = analyze_program(&program);
    print_findings(w.name(), &report.diagnostics, opts.quiet);
    if !opts.quiet {
        println!(
            "[{}] {} blocks, {} reachable instructions, {} proven load(s)",
            w.name(),
            report.cfg.blocks().len(),
            report.cfg.code_len(),
            report.proven_loads.len()
        );
    }
    Ok(report)
}

fn extension_netlists() -> Vec<Netlist> {
    vec![
        Umc::new().netlist(),
        Dift::new().netlist(),
        Bc::new().netlist(),
        Sec::new().netlist(),
        Mprot::new().netlist(),
        // The CFI datapath (CAM lookups + class decode) is independent
        // of the edge table contents, so an empty table lints the same
        // netlist every program-specific instance uses.
        Cfi::new(CfiTable::new()).netlist(),
        Nop::new().netlist(),
    ]
}

/// Result of rehearsing one ordered swap pair through a fresh
/// partial-reconfiguration region.
struct SwapPairRow {
    from: String,
    to: String,
    from_frames: usize,
    to_frames: usize,
    error: Option<String>,
}

/// Programs `from`'s bitstream into a blank region, then `to`'s over
/// it — the exact frame sequence a mid-run swap performs — proving
/// each committed mapping consistent against a fresh mapping of its
/// netlist.
fn rehearse_swap_pair(from: &Netlist, to: &Netlist) -> SwapPairRow {
    let mut row = SwapPairRow {
        from: from.name().to_string(),
        to: to.name().to_string(),
        from_frames: 0,
        to_frames: 0,
        error: None,
    };
    let mut region = PartialRegion::new();
    let mut program = |netlist: &Netlist, frames_out: &mut usize| -> Result<(), String> {
        let bytes = to_bitstream(&map_to_luts(netlist, LUT_K));
        let decoded = from_bitstream(&bytes)
            .map_err(|e| format!("{}: bitstream does not round-trip: {e}", netlist.name()))?;
        verify_consistent(netlist, &decoded)
            .map_err(|e| format!("{}: decoded mapping: {e}", netlist.name()))?;
        let frames = segment_bitstream(&bytes, FRAME_BYTES);
        *frames_out = frames.len();
        region.begin_load(frames.len() as u32);
        for f in &frames {
            region
                .push_frame(f)
                .map_err(|e| format!("{}: frame {}: {e}", netlist.name(), f.index))?;
        }
        let mapping = region.commit().map_err(|e| format!("{}: commit: {e}", netlist.name()))?;
        verify_consistent(netlist, mapping)
            .map_err(|e| format!("{}: programmed mapping: {e}", netlist.name()))
    };
    row.error =
        program(from, &mut row.from_frames).and_then(|()| program(to, &mut row.to_frames)).err();
    row
}

/// Result of one `--xcheck` run.
struct XcheckRow {
    workload: String,
    proven: usize,
    forwarded_loads: u64,
    trap: Option<String>,
    contradiction: bool,
}

/// Runs `w` under UMC and compares the dynamic trap (if any) against
/// the static proven-load set.
fn xcheck_workload(w: Workload, report: &AnalysisReport, max: u64) -> Result<XcheckRow, String> {
    let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    let r = sys.try_run(max).map_err(|e| format!("{}: {e}", w.name()))?;
    let proven: BTreeSet<u32> = report.proven_loads.iter().map(|p| p.pc).collect();
    let loads = [
        flexcore_isa::InstrClass::Ld,
        flexcore_isa::InstrClass::Ldub,
        flexcore_isa::InstrClass::Lduh,
        flexcore_isa::InstrClass::Ldsb,
        flexcore_isa::InstrClass::Ldsh,
    ]
    .iter()
    .map(|&c| r.forward.class_count(c))
    .sum();
    let contradiction = r.monitor_trap.as_ref().is_some_and(|t| proven.contains(&t.pc));
    Ok(XcheckRow {
        workload: w.name().to_string(),
        proven: proven.len(),
        forwarded_loads: loads,
        trap: r.monitor_trap.as_ref().map(|t| t.to_string()),
        contradiction,
    })
}

fn run() -> Result<u8, String> {
    let opts = parse_args();
    let workloads = opts.workloads.clone();

    let mut any_error = false;
    let mut program_values = Vec::new();
    let mut reports = Vec::new();
    for &w in &workloads {
        let report = check_workload(w, &opts)?;
        any_error |= !report.is_clean();
        program_values.push(findings_json(w.name(), &report.diagnostics));
        reports.push(report);
    }

    let mut netlist_values = Vec::new();
    let netlists = extension_netlists();
    for netlist in &netlists {
        let diags = lint_netlist(netlist, LUT_K);
        print_findings(netlist.name(), &diags, opts.quiet);
        any_error |= diags.iter().any(Diagnostic::is_error);
        netlist_values.push(findings_json(netlist.name(), &diags));
    }

    // Every ordered pair (including A -> A, the bitstream-refresh case)
    // must survive the frame-by-frame region reprogramming a hot-swap
    // performs.
    let mut swap_values = Vec::new();
    let mut swap_failures = 0usize;
    for from in &netlists {
        for to in &netlists {
            let row = rehearse_swap_pair(from, to);
            match &row.error {
                Some(e) => {
                    swap_failures += 1;
                    println!("[swap {} -> {}] ERROR: {e}", row.from, row.to);
                }
                None if !opts.quiet => println!(
                    "[swap {} -> {}] ok ({} then {} frame(s) through one region)",
                    row.from, row.to, row.from_frames, row.to_frames
                ),
                None => {}
            }
            let mut obj = serde::Value::object()
                .field("from", &row.from.as_str())
                .field("to", &row.to.as_str())
                .field("from_frames", &(row.from_frames as u64))
                .field("to_frames", &(row.to_frames as u64))
                .field("ok", &row.error.is_none());
            if let Some(e) = &row.error {
                obj = obj.field("error", &e.as_str());
            }
            swap_values.push(obj.build());
        }
    }
    any_error |= swap_failures > 0;
    println!(
        "[swap-pairs] {} ordered pair(s) rehearsed, {} failure(s)",
        netlists.len() * netlists.len(),
        swap_failures
    );

    let mut contradictions = 0usize;
    let mut xcheck_values = Vec::new();
    if opts.xcheck {
        for (w, report) in workloads.iter().zip(&reports) {
            let row = xcheck_workload(*w, report, opts.max)?;
            println!(
                "[xcheck {}] {} proven load(s) static, {} loads forwarded to UMC, {}",
                row.workload,
                row.proven,
                row.forwarded_loads,
                match (&row.trap, row.contradiction) {
                    (None, _) => "no monitor trap".to_string(),
                    (Some(t), false) => format!("trap outside the proven set: {t}"),
                    (Some(t), true) => format!("CONTRADICTION: {t} at a statically proven load"),
                }
            );
            contradictions += usize::from(row.contradiction);
            let mut obj = serde::Value::object()
                .field("workload", &row.workload.as_str())
                .field("static_proven_loads", &(row.proven as u64))
                .field("dynamic_forwarded_loads", &row.forwarded_loads)
                .field("contradiction", &row.contradiction);
            if let Some(t) = &row.trap {
                obj = obj.field("monitor_trap", &t.as_str());
            }
            xcheck_values.push(obj.build());
        }
    }

    let mut divergences = 0usize;
    let mut taint_values = Vec::new();
    if opts.wants_elision() {
        if let Some(dir) = &opts.emit_elision {
            std::fs::create_dir_all(dir).map_err(|e| format!("{dir}: {e}"))?;
        }
        for &w in &workloads {
            let program = w.program().map_err(|e| format!("{}: {e}", w.name()))?;
            let (table, summary) = build_elision_table(&program);
            let target = format!("taint {}", w.name());
            print_findings(&target, &summary.taint_diagnostics, opts.quiet);
            println!(
                "[elide {}] {} UMC, {} DIFT, {} CFI PC(s) elidable{}",
                w.name(),
                summary.umc_pcs,
                summary.dift_pcs,
                summary.cfi_pcs,
                if summary.taint_forfeited { " (taint forfeited its elision set)" } else { "" }
            );
            let mut obj = serde::Value::object()
                .field("workload", &w.name())
                .field("umc_pcs", &(summary.umc_pcs as u64))
                .field("dift_pcs", &(summary.dift_pcs as u64))
                .field("cfi_pcs", &(summary.cfi_pcs as u64))
                .field("taint_forfeited", &summary.taint_forfeited)
                .raw(
                    "diagnostics",
                    serde::Value::Array(summary.taint_diagnostics.iter().map(diag_json).collect()),
                );
            if let Some(dir) = &opts.emit_elision {
                let path = format!("{dir}/{}.elision.json", w.name());
                std::fs::write(&path, table.to_json()).map_err(|e| format!("{path}: {e}"))?;
                if !opts.quiet {
                    println!("[elide {}] wrote {} entries to {path}", w.name(), table.len());
                }
                obj = obj.field("table", &path.as_str());
            }
            let mut verify_values = Vec::new();
            if opts.verify_elision {
                for ext in ELIDABLE_EXTENSIONS {
                    let v = verify_elision(&program, ext, &table, opts.max)?;
                    match &v.divergence {
                        Some(d) => {
                            divergences += 1;
                            println!("[verify {} {ext}] DIVERGENCE: {d}", w.name());
                        }
                        None => println!(
                            "[verify {} {ext}] ok: {} of {} check(s) elided, verdict identical",
                            w.name(),
                            v.elided_checks,
                            v.full_forwarded
                        ),
                    }
                    let mut row = serde::Value::object()
                        .field("extension", &ext)
                        .field("elided_checks", &v.elided_checks)
                        .field("full_forwarded", &v.full_forwarded)
                        .field("elided_forwarded", &v.elided_forwarded)
                        .field("ok", &v.is_clean());
                    if let Some(d) = &v.divergence {
                        row = row.field("divergence", &d.as_str());
                    }
                    verify_values.push(row.build());
                }
                obj = obj.raw("verify", serde::Value::Array(verify_values));
            }
            taint_values.push(obj.build());
        }
        if opts.verify_elision {
            println!(
                "[verify-elision] {} workload(s) x {} extension(s), {} divergence(s)",
                workloads.len(),
                ELIDABLE_EXTENSIONS.len(),
                divergences
            );
        }
    }

    if let Some(path) = &opts.json {
        let mut artifact = serde::Value::object()
            .field("version", &1u64)
            .raw("programs", serde::Value::Array(program_values))
            .raw("netlists", serde::Value::Array(netlist_values))
            .raw("swaps", serde::Value::Array(swap_values));
        if opts.xcheck {
            artifact = artifact.raw("xcheck", serde::Value::Array(xcheck_values));
        }
        if opts.wants_elision() {
            artifact = artifact.raw("elision", serde::Value::Array(taint_values));
        }
        std::fs::write(path, serde::to_string_pretty(&artifact.build()))
            .map_err(|e| format!("{path}: {e}"))?;
        println!("wrote findings to {path}");
    }

    if contradictions > 0 {
        eprintln!(
            "{contradictions} static/dynamic contradiction(s): the static analysis and the \
             UMC monitor disagree"
        );
        return Ok(3);
    }
    if divergences > 0 {
        eprintln!("{divergences} lockstep divergence(s): an elided run did not match its full run");
        return Ok(3);
    }
    Ok(u8::from(any_error))
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => ExitCode::from(code),
        Err(e) => {
            eprintln!("flexcheck: {e}");
            ExitCode::from(2)
        }
    }
}
