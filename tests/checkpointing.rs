//! Checkpoint/restore round-trips and lockstep golden-model checking.
//!
//! The headline invariants:
//!
//! * A run interrupted at *any* commit boundary, snapshotted through
//!   JSON, and restored into a freshly built system finishes with a
//!   [`RunResult`] bit-identical to the uninterrupted run — on every
//!   paper workload, with or without an armed fault campaign.
//! * An injected architectural fault under lockstep surfaces as
//!   [`SimError::Divergence`] with a populated report, while
//!   monitoring-path corruption (which touches no architectural state)
//!   does not.

use std::sync::OnceLock;

use flexcore_suite::flexcore::checkpoint::Snapshot;
use flexcore_suite::flexcore::ext::Umc;
use flexcore_suite::flexcore::faults::{
    FaultAction, FaultModel, FaultPlan, FaultSchedule, FaultTarget,
};
use flexcore_suite::flexcore::{RunOutcome, RunResult, SimError, System, SystemConfig};
use flexcore_suite::pipeline::ExitReason;
use flexcore_suite::workloads::Workload;
use proptest::prelude::*;
use serde::Value;

const MAX_INSTRUCTIONS: u64 = 50_000_000;

fn fresh(w: &Workload) -> System<Umc> {
    let program = w.program().unwrap_or_else(|e| panic!("{} assembles: {e}", w.name()));
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// Uninterrupted reference results, one per paper workload, computed
/// once and shared across proptest cases.
fn reference(idx: usize) -> &'static RunResult {
    static REFS: OnceLock<Vec<RunResult>> = OnceLock::new();
    &REFS.get_or_init(|| {
        Workload::all()
            .iter()
            .map(|w| fresh(w).try_run(MAX_INSTRUCTIONS).expect("uninterrupted run"))
            .collect()
    })[idx]
}

/// Interrupts a fresh run of workload `idx` after about `frac` of its
/// commits, round-trips the snapshot through JSON, restores it into
/// another fresh system, and returns the resumed run's result.
fn interrupt_and_resume(idx: usize, frac: f64) -> RunResult {
    let w = &Workload::all()[idx];
    let pause = (reference(idx).instret as f64 * frac) as u64;
    let mut first = fresh(w);
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { instret, .. } => assert!(instret >= pause),
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    let json = snap.to_json();
    let parsed = Snapshot::from_json(&json).expect("checkpoint JSON parses");
    assert_eq!(parsed, snap, "snapshot survives the JSON round-trip");
    let mut resumed = fresh(w);
    resumed.restore(&parsed).expect("snapshot restores into an identically built system");
    resumed.try_run(MAX_INSTRUCTIONS).expect("resumed run")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Interrupt each workload at a random point; the resumed run's
    /// result must be bit-identical to the uninterrupted run's.
    #[test]
    fn interrupted_run_reproduces_uninterrupted_result(
        idx in 0usize..6,
        frac_ppm in 20_000u64..980_000,
    ) {
        prop_assert_eq!(&interrupt_and_resume(idx, frac_ppm as f64 / 1e6), reference(idx));
    }
}

/// Every workload survives at least one interrupt point (the proptest
/// above samples; this pins full coverage of the six kernels).
#[test]
fn every_workload_round_trips_at_the_midpoint() {
    for idx in 0..Workload::all().len() {
        assert_eq!(
            &interrupt_and_resume(idx, 0.5),
            reference(idx),
            "{} diverged after restore",
            Workload::all()[idx].name()
        );
    }
}

/// Checkpointing composes with an armed fault campaign: the injector's
/// generator position rides along, so the resumed run replays the
/// exact same strikes.
#[test]
fn checkpoint_preserves_fault_campaign_determinism() {
    let w = Workload::bitcount();
    let plan = || {
        FaultPlan::new(0xf1e2)
            .inject(
                FaultTarget::FifoPacket,
                FaultSchedule::EveryCommits(977),
                FaultModel::BitFlip { bits: 1 },
            )
            .inject(
                FaultTarget::Register,
                FaultSchedule::AtCommit(12_345),
                FaultModel::BitFlip { bits: 1 },
            )
    };
    let mut full = fresh(&w);
    full.arm_faults(plan());
    let full = full.try_run(MAX_INSTRUCTIONS).expect("faulted run completes");
    assert!(full.resilience.faults_injected > 0, "the campaign fired");

    let mut first = fresh(&w);
    first.arm_faults(plan());
    let pause = full.instret / 3;
    match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(r) => panic!("finished before the pause point: {:?}", r.exit),
    }
    let snap = first.snapshot();
    assert!(snap.faults.is_some(), "injector state rides in the snapshot");

    let mut resumed = fresh(&w);
    resumed.arm_faults(plan());
    resumed.restore(&snap).expect("restore with the re-armed plan");
    let resumed = resumed.try_run(MAX_INSTRUCTIONS).expect("resumed faulted run");
    assert_eq!(resumed, full, "fault campaign diverged after restore");
}

/// Restoring requires the same construction: a missing fault plan is a
/// typed error, not silent corruption.
#[test]
fn restore_rejects_mismatched_construction() {
    let w = Workload::bitcount();
    let mut sys = fresh(&w);
    sys.arm_faults(FaultPlan::new(1).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::EveryCommits(1000),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run_until(MAX_INSTRUCTIONS, 1000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = sys.snapshot();

    let mut unarmed = fresh(&w);
    let err = unarmed.restore(&snap).expect_err("fault state with no armed plan must fail");
    assert!(err.to_string().contains("fault"), "unhelpful error: {err}");

    let mut wrong_depth =
        System::<Umc>::new(SystemConfig::fabric_half_speed().with_fifo_depth(8), Umc::new());
    wrong_depth.load_program(&w.program().expect("assembles"));
    let err = wrong_depth.restore(&snap).expect_err("mismatched FIFO depth must fail");
    assert!(err.to_string().contains("depth"), "unhelpful error: {err}");
}

/// The node of `v` at `path`: object keys, or decimal indices into
/// arrays.
fn node<'a>(v: &'a mut Value, path: &[&str]) -> &'a mut Value {
    path.iter().fold(v, |v, key| match v {
        Value::Object(fields) => {
            &mut fields.iter_mut().find(|(k, _)| k == key).unwrap_or_else(|| panic!("no `{key}`")).1
        }
        Value::Array(items) => &mut items[key.parse::<usize>().expect("array index")],
        other => panic!("cannot index {other:?} with `{key}`"),
    })
}

/// A checkpoint read back from disk is outside input: one corrupted
/// field must refuse the whole file with an error naming that field,
/// never resume with a truncated or defaulted value.
#[test]
fn hostile_checkpoints_are_refused_naming_the_field() {
    let mut sys = fresh(&Workload::bitcount());
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::Register,
        FaultSchedule::AtCommit(500),
        FaultModel::BitFlip { bits: 1 },
    ));
    match sys.try_run_until(MAX_INSTRUCTIONS, 2_000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = sys.snapshot();
    let log = &snap.faults.as_ref().expect("a plan is armed").log;
    assert!(matches!(log[0].action, FaultAction::FlipRegister { .. }), "{log:?}");
    let good = serde::from_str(&snap.to_json()).expect("checkpoint JSON parses");
    assert_eq!(Snapshot::from_json(&serde::to_string(&good)), Ok(snap));

    // (path, replacement or `None` to delete the field, expected error)
    let cases: [(&[&str], Option<Value>, &str); 8] = [
        (
            &["core", "regs", "3"],
            Some(Value::U64(1 << 32)),
            "core.regs[3]: 4294967296 does not fit in u32",
        ),
        (&["core", "icc"], Some(Value::U64(256)), "core.icc: 256 does not fit in u8"),
        (&["shadow", "5"], Some(Value::U64(256)), "shadow[5]: 256 does not fit in u8"),
        (
            &["core", "console"],
            Some(Value::Array(vec![Value::U64(300)])),
            "core.console[0]: 300 does not fit in u8",
        ),
        (
            &["core", "icache", "lines", "0", "1"],
            Some(Value::U64(1)),
            "core.icache.lines[0][1]: expected a boolean, found 1",
        ),
        (
            &["faults", "log", "0", "action", "reg"],
            Some(Value::U64(300)),
            "faults.log[0].action.reg: 300 does not fit in u8",
        ),
        (&["fifo"], None, "fifo: missing field"),
        (&["format"], Some(Value::U64(4)), "format: unsupported snapshot format 4"),
    ];
    for (path, to, expected) in cases {
        let mut bad = good.clone();
        match to {
            Some(to) => *node(&mut bad, path) = to,
            None => {
                let (key, parent) = path.split_last().expect("a non-empty path");
                let Value::Object(fields) = node(&mut bad, parent) else { panic!("not an object") };
                fields.retain(|(k, _)| k != key);
            }
        }
        let err = Snapshot::from_json(&serde::to_string(&bad)).expect_err(expected);
        assert!(err.to_string().contains(expected), "expected `{expected}`, got `{err}`");
    }
}

/// A small all-ALU kernel where commit `4 + 4k` is always the `add`
/// with a live destination register — a deterministic divergence site.
fn alu_loop_source() -> &'static str {
    "start:  mov 0, %o0
            set 100, %o1
    loop:   add %o0, 1, %o0
            subcc %o1, 1, %o1
            bne loop
            nop
            ta 0"
}

fn alu_system() -> System<Umc> {
    let program = flexcore_suite::asm::assemble(alu_loop_source()).expect("assembles");
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Umc::new());
    sys.load_program(&program);
    sys
}

/// The acceptance criterion: an injected pipeline fault under
/// `--lockstep` yields `SimError::Divergence` with a populated report.
#[test]
fn injected_result_fault_diverges_under_lockstep() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    // Commit 40 is an `add %o0, 1, %o0`: flip bit 3 of its result.
    sys.inject_result_fault(40, 3);
    match sys.try_run(MAX_INSTRUCTIONS) {
        Err(SimError::Divergence(report)) => {
            assert_eq!(report.commit_index, 40, "caught at the faulted commit");
            assert_eq!(report.reason, "register file diverged (first at r8)", "{report}");
            let m = report.reg_mismatches.first().expect("a register mismatch is recorded");
            assert_eq!(m.dut ^ m.golden, 1 << 3, "exactly the injected bit differs");
            assert!(!report.dut_recent.is_empty(), "recent DUT commits are included");
            assert!(!report.golden_recent.is_empty(), "recent golden commits are included");
            assert_eq!(
                report.dut_recent.last().map(|c| c.index),
                Some(40),
                "the divergent commit is the newest ring entry"
            );
        }
        other => panic!("expected a divergence, got {other:?}"),
    }
}

/// Monitoring-path corruption (an FFIFO packet strike) touches no
/// architectural state, so lockstep must stay quiet — that separation
/// is the point of checking at the architectural level.
#[test]
fn monitoring_path_corruption_does_not_diverge() {
    let mut sys = alu_system();
    sys.enable_lockstep();
    sys.arm_faults(FaultPlan::new(3).inject(
        FaultTarget::FifoPacket,
        FaultSchedule::AtCommit(40),
        FaultModel::BitFlip { bits: 2 },
    ));
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence from a packet strike");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(r.resilience.packets_corrupted, 1, "the strike did land");
}

/// Lockstep agrees with the cycle-level core across a full workload
/// (the golden model and the pipeline implement the same ISA).
#[test]
fn lockstep_agrees_across_a_full_workload() {
    let mut sys = fresh(&Workload::bitcount());
    sys.enable_lockstep();
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no divergence");
    assert_eq!(r.exit, ExitReason::Halt(0), "workload self-check");
    let checked = sys.lockstep().expect("checker installed").commits_checked();
    assert_eq!(checked, r.forward.committed, "every commit was checked");
    assert!(checked > 50_000, "a non-trivial run: {checked} commits");
}

/// Lockstep survives a checkpoint/restore cycle: the golden model is
/// re-seeded from the restored state and keeps agreeing.
#[test]
fn lockstep_resynchronizes_after_restore() {
    let mut first = fresh(&Workload::sha());
    first.enable_lockstep();
    match first.try_run_until(MAX_INSTRUCTIONS, 10_000).expect("run to the pause point") {
        RunOutcome::Paused { .. } => {}
        RunOutcome::Done(_) => panic!("finished before the pause point"),
    }
    let snap = first.snapshot();

    let mut resumed = fresh(&Workload::sha());
    resumed.enable_lockstep();
    resumed.restore(&snap).expect("restore re-seeds the checker");
    let r = resumed.try_run(MAX_INSTRUCTIONS).expect("no divergence after restore");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(&r, reference(0), "sha is Workload::all()[0]");
}
