//! The two simulation workloads, `table4_sweep` and `elided_heldout`:
//! kernels assembled in set-up, then passes of runs one after another
//! on one thread, each with a fresh `System` (or bare `Core`).

use flexcore::ext::{Bc, Cfi, CfiTable, Dift, Sec, Umc};
use flexcore::obs::TraceSink;
use flexcore::{ElisionTable, Extension, RunResult, SimError, System, SystemConfig};
use flexcore_asm::Program;
use flexcore_bench::{elide, paper, swap, MAX_INSTRUCTIONS};
use flexcore_mem::{MainMemory, SystemBus};
use flexcore_pipeline::{Core, CoreConfig, ExitReason};
use flexcore_telemetry::PhaseClock;
use flexcore_workloads::Workload;

use crate::host::{self, Reference};
use crate::oracle::{Expected, RunStats};
use crate::stats::median;
use crate::trace::Tracer;

/// A monitoring extension the benchmark runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Ext {
    /// Uninitialized memory check.
    Umc,
    /// Dynamic information flow tracking.
    Dift,
    /// Array bound check.
    Bc,
    /// Soft error check.
    Sec,
    /// Control-flow integrity against the statically recovered CFG.
    Cfi,
}

impl Ext {
    /// Every extension, in the paper's column order with CFI last.
    pub const ALL: [Ext; 5] = [Ext::Umc, Ext::Dift, Ext::Bc, Ext::Sec, Ext::Cfi];
    /// The extensions that consult a static elision table.
    pub const ELIDABLE: [Ext; 3] = [Ext::Umc, Ext::Dift, Ext::Cfi];
    /// The Table IV columns.
    pub const PAPER: [Ext; 4] = [Ext::Umc, Ext::Dift, Ext::Bc, Ext::Sec];

    /// Lowercase name used in labels and metric names.
    pub fn name(self) -> &'static str {
        match self {
            Ext::Umc => "umc",
            Ext::Dift => "dift",
            Ext::Bc => "bc",
            Ext::Sec => "sec",
            Ext::Cfi => "cfi",
        }
    }

    /// The paper's fabric clock for this extension (§V.C: SEC at
    /// 0.25X, everything else at 0.5X) as a label and a configuration.
    pub fn paper_clock(self) -> (&'static str, SystemConfig) {
        match self {
            Ext::Sec => ("0.25x", SystemConfig::fabric_quarter_speed()),
            _ => ("0.5x", SystemConfig::fabric_half_speed()),
        }
    }
}

/// Builds the concrete (monomorphized) extension for `$ext` as `$e`
/// and evaluates `$body` with it — the same static dispatch the
/// `table4` binary uses.
macro_rules! with_ext {
    ($ext:expr, $kernel:expr, |$e:ident| $body:expr) => {
        match $ext {
            Ext::Umc => {
                let $e = Umc::new();
                $body
            }
            Ext::Dift => {
                let $e = Dift::new();
                $body
            }
            Ext::Bc => {
                let $e = Bc::new();
                $body
            }
            Ext::Sec => {
                let $e = Sec::new();
                $body
            }
            Ext::Cfi => {
                let $e = Cfi::new($kernel.cfi_table().clone());
                $body
            }
        }
    };
}
pub(crate) use with_ext;

/// One kernel with everything set-up prepares for it.
pub struct Kernel {
    /// The workload.
    pub workload: Workload,
    /// Its assembled program.
    pub program: Program,
    /// Its static elision table, when the workload needs one.
    pub elision: Option<ElisionTable>,
    /// Its CFI edge table, when the workload needs one.
    pub cfi: Option<CfiTable>,
}

impl Kernel {
    /// Assembles `workload`, and with `analyse` also builds its elision
    /// and CFI tables, each call under its own span.
    pub fn prepare(workload: Workload, analyse: bool, t: &mut Tracer) -> Result<Kernel, String> {
        let (program, _) = t.time("Workload::program", || workload.program());
        let program = program.map_err(|e| format!("{}: {e}", workload.name()))?;
        let (elision, cfi) = if analyse {
            let ((table, _), _) =
                t.time("elide::build_elision_table", || elide::build_elision_table(&program));
            let (cfi, _) = t.time("swap::cfi_table_for", || swap::cfi_table_for(&program));
            (Some(table), Some(cfi))
        } else {
            (None, None)
        };
        Ok(Kernel { workload, program, elision, cfi })
    }

    /// The kernel's name.
    pub fn name(&self) -> &'static str {
        self.workload.name()
    }

    /// The CFI edge table built in set-up.
    pub fn cfi_table(&self) -> &CfiTable {
        self.cfi.as_ref().expect("the CFI table is built in set-up")
    }
}

/// What one run does.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// The bare Leon3 core (Table IV's baseline).
    Core,
    /// Full checking under an extension at its paper clock.
    Ext(Ext),
    /// Like `Ext`, with the kernel's static elision table installed.
    Elided(Ext),
}

impl Mode {
    /// The run label `<kernel>/<mode>`, e.g. `sha/umc+elide@0.5x`.
    pub fn label(self, kernel: &str) -> String {
        match self {
            Mode::Core => format!("{kernel}/core"),
            Mode::Ext(e) => format!("{kernel}/{}@{}", e.name(), e.paper_clock().0),
            Mode::Elided(e) => format!("{kernel}/{}+elide@{}", e.name(), e.paper_clock().0),
        }
    }
}

/// Checks that a run halted cleanly: exit code 0, no monitor trap, no
/// simulation error.
pub fn clean(label: &str, r: Result<RunResult, SimError>) -> Result<RunResult, String> {
    let r = r.map_err(|e| format!("{label}: simulation error: {e}"))?;
    if r.exit != ExitReason::Halt(0) || r.monitor_trap.is_some() {
        return Err(format!("{label}: exit {:?}, trap {:?}", r.exit, r.monitor_trap));
    }
    Ok(r)
}

/// Loads `k` into `sys` (installing the elision table when `elide`),
/// runs it to completion, and returns the result with the host seconds
/// of the `try_run` call alone.
pub fn drive<E: Extension, S: TraceSink, P: PhaseClock>(
    mut sys: System<E, S, P>,
    k: &Kernel,
    elide: bool,
    t: &mut Tracer,
) -> (Result<RunResult, SimError>, f64, System<E, S, P>) {
    if elide {
        sys.set_elision(k.elision.clone().expect("the elision table is built in set-up"));
    }
    t.time("System::load_program", || sys.load_program(&k.program));
    let (r, secs) = t.time("System::try_run", || sys.try_run(MAX_INSTRUCTIONS));
    (r, secs, sys)
}

/// Runs `k` on the bare core; returns its statistics and the host
/// seconds of the `Core::run` call.
pub fn run_core(k: &Kernel, t: &mut Tracer) -> (Result<RunStats, String>, f64) {
    let mut mem = MainMemory::new();
    let mut bus = SystemBus::default();
    let mut core = Core::new(CoreConfig::leon3());
    core.load_program(&k.program, &mut mem);
    let (exit, secs) = t.time("Core::run", || core.run(&mut mem, &mut bus, MAX_INSTRUCTIONS));
    let out = if exit == ExitReason::Halt(0) {
        Ok(RunStats::of_core(&core))
    } else {
        Err(format!("{}: bare core exit {exit:?}", Mode::Core.label(k.name())))
    };
    (out, secs)
}

/// Runs one cell; returns its statistics and the host seconds of the
/// simulation call.
pub fn run_cell(k: &Kernel, mode: Mode, t: &mut Tracer) -> (Result<RunStats, String>, f64) {
    let (ext, elide) = match mode {
        Mode::Core => return run_core(k, t),
        Mode::Ext(e) => (e, false),
        Mode::Elided(e) => (e, true),
    };
    let config = ext.paper_clock().1;
    let (r, secs) = with_ext!(ext, k, |e| {
        let (sys, _) = t.time("System::new", || System::new(config, e));
        let (r, secs, _) = drive(sys, k, elide, t);
        (r, secs)
    });
    (clean(&mode.label(k.name()), r).map(|r| RunStats::of_system(&r)), secs)
}

/// Which simulation workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimWorkload {
    /// The six paper kernels, bare and under UMC/DIFT/BC/SEC.
    Table4Sweep,
    /// Nine kernels under UMC/DIFT/CFI with their elision tables.
    ElidedHeldout,
}

impl SimWorkload {
    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::Table4Sweep => "table4_sweep",
            SimWorkload::ElidedHeldout => "elided_heldout",
        }
    }

    /// The kernels the workload runs.
    pub fn workloads(self) -> Vec<Workload> {
        match self {
            SimWorkload::Table4Sweep => Workload::all(),
            SimWorkload::ElidedHeldout => {
                let mut all = Workload::all();
                all.extend(Workload::extra());
                all
            }
        }
    }

    /// The modes every kernel runs under, in order.
    pub fn modes(self) -> Vec<Mode> {
        match self {
            SimWorkload::Table4Sweep => {
                std::iter::once(Mode::Core).chain(Ext::PAPER.map(Mode::Ext)).collect()
            }
            SimWorkload::ElidedHeldout => Ext::ELIDABLE.map(Mode::Elided).to_vec(),
        }
    }
}

/// A prepared simulation workload.
pub struct SimSetup {
    /// Which workload.
    pub which: SimWorkload,
    /// Its kernels.
    pub kernels: Vec<Kernel>,
    /// `(kernel index, mode, label)` of every run of a pass.
    pub cells: Vec<(usize, Mode, String)>,
}

/// Set-up: assembles the kernels and, for `elided_heldout`, builds
/// their elision and CFI tables.
pub fn setup(which: SimWorkload, t: &mut Tracer) -> Result<SimSetup, String> {
    let analyse = which == SimWorkload::ElidedHeldout;
    let kernels = which
        .workloads()
        .into_iter()
        .map(|w| Kernel::prepare(w, analyse, t))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cells = Vec::new();
    for (ki, k) in kernels.iter().enumerate() {
        for mode in which.modes() {
            cells.push((ki, mode, mode.label(k.name())));
        }
    }
    Ok(SimSetup { which, kernels, cells })
}

/// One pass: every cell once.
pub struct SimPass {
    /// Wall seconds of the pass without its reference runs: Σ over
    /// cells of `System::new`, `load_program`, the simulation call and
    /// its result handling.
    pub wall_s: f64,
    /// Host seconds of each cell's simulation call, in cell order.
    pub run_s: Vec<f64>,
    /// Seconds of the reference runs timed before the first cell and
    /// after every cell; empty for a pass run without a reference.
    pub reference_s: Vec<f64>,
    /// Each cell's statistics, or why it failed.
    pub stats: Vec<Result<RunStats, String>>,
}

impl SimPass {
    /// Σ committed simulated instructions of the pass.
    pub fn instret(&self) -> u64 {
        self.stats.iter().map(|st| st.as_ref().map_or(0, |st| st.instret)).sum()
    }

    /// The factor that scales the pass's times to the nominal host.
    pub fn host_factor(&self) -> f64 {
        host::factor(&self.reference_s)
    }
}

/// Runs every cell of `s` once, one after another, with a reference run
/// before the first cell and after each cell when `reference` is given.
pub fn run_pass(s: &SimSetup, t: &mut Tracer, mut reference: Option<&mut Reference>) -> SimPass {
    let mut reference_s = Vec::new();
    let mut time_reference = || {
        if let Some(r) = reference.as_deref_mut() {
            reference_s.push(r.run());
        }
    };
    time_reference();
    let pass = t.begin("pass");
    let mut wall_s = 0.0;
    let mut run_s = Vec::with_capacity(s.cells.len());
    let mut stats = Vec::with_capacity(s.cells.len());
    for (ki, mode, _) in &s.cells {
        let started = std::time::Instant::now();
        let (st, secs) = run_cell(&s.kernels[*ki], *mode, t);
        wall_s += started.elapsed().as_secs_f64();
        run_s.push(secs);
        stats.push(st);
        time_reference();
    }
    t.end(pass);
    SimPass { wall_s, run_s, reference_s, stats }
}

/// Checks every cell of a pass against the oracle; returns the failure
/// messages.
pub fn check_pass(s: &SimSetup, pass: &SimPass, expected: &Expected) -> Vec<String> {
    let mut failures = Vec::new();
    for ((_, _, label), st) in s.cells.iter().zip(&pass.stats) {
        let checked = st
            .as_ref()
            .map_err(Clone::clone)
            .and_then(|st| expected.check_run(s.which.name(), label, st));
        if let Err(e) = checked {
            failures.push(e);
        }
    }
    failures
}

/// Simulated instructions per second of simulation calls on the
/// nominal host: per pass, Σ committed instructions ÷ (Σ host seconds
/// of the `try_run` / `Core::run` calls × the pass's host factor); the
/// median over passes.
pub fn insns_per_s(passes: &[SimPass]) -> f64 {
    let rates: Vec<f64> = passes
        .iter()
        .map(|p| p.instret() as f64 / (p.run_s.iter().sum::<f64>() * p.host_factor()))
        .collect();
    median(&rates)
}

/// Mean |measured − paper| normalized execution time over the 24
/// paper-operating-point cells of Table IV (UMC/DIFT/BC at 0.5X, SEC
/// at 0.25X), from `table4_sweep` statistics keyed by run label.
pub fn table4_mae(stats: &dyn Fn(&str) -> Option<u64>) -> Result<f64, String> {
    let mut errors = Vec::new();
    for row in paper::TABLE_IV.iter().filter(|r| r.benchmark != "geomean") {
        let base = stats(&Mode::Core.label(row.benchmark))
            .ok_or(format!("{}: no baseline cycles", row.benchmark))?;
        for ext in Ext::PAPER {
            let label = Mode::Ext(ext).label(row.benchmark);
            let cycles = stats(&label).ok_or(format!("{label}: no cycles"))?;
            let paper = match ext {
                Ext::Umc => row.umc[1],
                Ext::Dift => row.dift[1],
                Ext::Bc => row.bc[1],
                _ => row.sec[2],
            };
            errors.push((cycles as f64 / base as f64 - paper).abs());
        }
    }
    Ok(errors.iter().sum::<f64>() / errors.len() as f64)
}
