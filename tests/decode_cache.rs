//! Coherence of the core's decode cache with everything that rewrites
//! instruction memory.
//!
//! The core memoizes decodes keyed on `(pc, fetched word)`, so a cached
//! entry can never outlive the word it was decoded from. These tests
//! pin that down at the system level: a program that stores over its
//! own already-executed text, a fault that flips a hot loop
//! instruction, and a checkpoint restored into both a fresh system and
//! one whose cache still holds the overwritten words.

use flexcore_suite::asm::{assemble, Program};
use flexcore_suite::flexcore::checkpoint::Snapshot;
use flexcore_suite::flexcore::ext::Nop;
use flexcore_suite::flexcore::faults::{FaultModel, FaultPlan, FaultSchedule, FaultTarget};
use flexcore_suite::flexcore::{RunOutcome, RunResult, System, SystemConfig};
use flexcore_suite::isa::Reg;
use flexcore_suite::pipeline::ExitReason;

const MAX_INSTRUCTIONS: u64 = 100_000;

/// Three loop passes; the first pass's `st` replaces the loop's
/// `add %o2, 1, %o2` with the word at `patch` (`add %o2, 100, %o2`),
/// so the later passes must execute the new instruction.
const SELF_MODIFYING: &str = "
start:  mov 0, %o2
        mov 3, %o1
        set loop, %o3
        set patch, %o4
        ld [%o4], %o5
loop:   add %o2, 1, %o2
        st %o5, [%o3]
        subcc %o1, 1, %o1
        bne loop
        nop
        ta 0
patch:  add %o2, 100, %o2
";

/// Ten passes over a hot `add %o2, 1, %o2`.
const HOT_LOOP: &str = "
start:  mov 0, %o2
        mov 10, %o1
loop:   add %o2, 1, %o2
        subcc %o1, 1, %o1
        bne loop
        nop
        ta 0
";

fn system(program: &Program) -> System<Nop> {
    let mut sys = System::new(SystemConfig::fabric_half_speed(), Nop::new());
    sys.load_program(program);
    sys
}

fn self_modifying() -> Program {
    assemble(SELF_MODIFYING).expect("self-modifying program assembles")
}

#[test]
fn stores_over_executed_text_take_effect_under_lockstep() {
    let mut sys = system(&self_modifying());
    sys.enable_lockstep();
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("no lockstep divergence");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(sys.core().reg(Reg::O2), 1 + 100 + 100, "passes 2 and 3 ran the stored add");
    let checked = sys.lockstep().expect("checker installed").commits_checked();
    assert_eq!(checked, r.forward.committed, "every commit was checked");
}

#[test]
fn text_fault_on_a_hot_loop_changes_what_executes() {
    let program = assemble(HOT_LOOP).expect("hot loop assembles");
    let add = program.symbol("loop").expect("loop label");
    let mut sys = system(&program);
    // Commit 3 is the loop add's first execution; flipping bit 1 of its
    // simm13 field turns every later pass into `add %o2, 3, %o2`.
    sys.arm_faults(FaultPlan::new(7).inject(
        FaultTarget::InstructionWord { base: add, len: 4 },
        FaultSchedule::AtCommit(3),
        FaultModel::Mask(1 << 1),
    ));
    let r = sys.try_run(MAX_INSTRUCTIONS).expect("faulted run completes");
    assert_eq!(r.exit, ExitReason::Halt(0));
    assert_eq!(r.resilience.faults_injected, 1);
    assert_eq!(sys.core().reg(Reg::O2), 1 + 9 * 3, "one clean pass, nine flipped passes");
}

fn resume(snap: &Snapshot, into: &mut System<Nop>) -> RunResult {
    into.restore(snap).expect("snapshot restores");
    into.try_run(MAX_INSTRUCTIONS).expect("resumed run")
}

#[test]
fn restore_at_every_commit_reproduces_the_uninterrupted_run() {
    let program = self_modifying();
    let reference = system(&program).try_run(MAX_INSTRUCTIONS).expect("uninterrupted run");
    // Ran to completion: its decode cache holds the patched loop word.
    let mut warm = system(&program);
    warm.try_run(MAX_INSTRUCTIONS).expect("warm-up run");

    for pause in 1..reference.instret {
        let mut first = system(&program);
        match first.try_run_until(MAX_INSTRUCTIONS, pause).expect("run to the pause point") {
            RunOutcome::Paused { .. } => {}
            RunOutcome::Done(r) => panic!("finished before commit {pause}: {:?}", r.exit),
        }
        let snap = Snapshot::from_json(&first.snapshot().to_json()).expect("snapshot JSON parses");
        assert_eq!(resume(&snap, &mut system(&program)), reference, "fresh system, pause {pause}");
        assert_eq!(resume(&snap, &mut warm), reference, "warm system, pause {pause}");
    }
}
