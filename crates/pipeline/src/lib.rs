//! Leon3-like in-order SPARC core model.
//!
//! The FlexCore paper prototypes on Leon3: a synthesizable 32-bit SPARC
//! V8 processor with a single-issue, in-order, 7-stage pipeline,
//! 32-KB write-through L1 caches, and an AMBA bus to off-chip SDRAM.
//! This crate models that core at the level the paper's evaluation
//! depends on:
//!
//! * **Functional execution** of the SPARC subset in [`flexcore_isa`],
//!   with the pc/npc delay-slot architecture, annulled slots,
//!   condition codes, traps (`ta` halts the program), and big-endian
//!   memory.
//! * **Commit-driven timing**: one base cycle per instruction, plus
//!   I-cache and D-cache misses (refilled over the shared
//!   [`SystemBus`](flexcore_mem::SystemBus)), write-through store
//!   traffic through a [`StoreBuffer`](flexcore_mem::StoreBuffer),
//!   load-use and multiply/divide latencies.
//! * A **commit-stage tap**: every committed instruction is described
//!   by a [`TracePacket`] carrying exactly the fields of the paper's
//!   Table II forward-FIFO packet (PC, undecoded instruction, address,
//!   result, both source values, condition codes, branch direction, and
//!   the decoded opcode/register fields). The FlexCore interface crate
//!   consumes these packets.
//!
//! The model is *commit-driven*: stalls are charged at the instruction
//! that suffers them rather than tracked per stage. For a single-issue
//! in-order core this reproduces cycle counts at the fidelity the
//! paper's experiments need (CPI, miss behaviour, bus contention, FIFO
//! back-pressure).
//!
//! # Example
//!
//! ```
//! use flexcore_asm::assemble;
//! use flexcore_mem::{MainMemory, SystemBus};
//! use flexcore_pipeline::{Core, CoreConfig, ExitReason};
//!
//! let program = assemble("
//!     start:  mov 10, %o0
//!             mov 0, %o1
//!     loop:   add %o1, %o0, %o1
//!             subcc %o0, 1, %o0
//!             bne loop
//!             nop
//!             ta 0
//! ")?;
//! let mut mem = MainMemory::new();
//! let mut bus = SystemBus::default();
//! let mut core = Core::new(CoreConfig::leon3());
//! core.load_program(&program, &mut mem);
//! let exit = core.run(&mut mem, &mut bus, 1_000_000);
//! assert_eq!(exit, ExitReason::Halt(0));
//! assert_eq!(core.reg(flexcore_isa::Reg::O1), 55); // sum 1..=10
//! # Ok::<(), flexcore_asm::AsmError>(())
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod alu;
mod config;
mod core;
mod decode_cache;
#[cfg(feature = "serde")]
mod serde_impls;
mod stats;
mod trace;

pub use config::CoreConfig;
pub use core::{Core, CoreSnapshot, ExitReason, StepResult};
#[cfg(feature = "serde")]
pub use serde_impls::{per_class_from_value, per_class_value};
pub use stats::CoreStats;
pub use trace::TracePacket;

/// Byte stores to this address appear on the simulated console
/// (see [`Core::console`]).
pub const CONSOLE_ADDR: u32 = 0xffff_0000;
