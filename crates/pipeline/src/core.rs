//! The core model: functional execution plus commit-driven timing.

use flexcore_asm::Program;
use flexcore_isa::{IccFlags, Instruction, Opcode, Operand2, Reg};
use flexcore_mem::{BusMaster, CacheStats, MainMemory, StoreBuffer, SystemBus, TimingCache};
use flexcore_telemetry::{NullPhaseClock, Phase, PhaseClock};

use crate::alu::alu;
use crate::decode_cache::DecodeCache;
use crate::{CoreConfig, CoreStats, TracePacket, CONSOLE_ADDR};

/// Why execution stopped.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ExitReason {
    /// A taken `t<cond>` trap; carries the software trap number.
    /// Workloads use `ta 0` for success and `ta 1` for assertion
    /// failure.
    Halt(u32),
    /// An undecodable instruction word.
    IllegalInstruction {
        /// PC of the offending instruction.
        pc: u32,
        /// The word that failed to decode.
        word: u32,
    },
    /// A misaligned load or store.
    MisalignedAccess {
        /// PC of the offending instruction.
        pc: u32,
        /// The misaligned effective address.
        addr: u32,
    },
    /// An integer divide by zero.
    DivideByZero {
        /// PC of the offending instruction.
        pc: u32,
    },
    /// [`Core::run`] hit its instruction budget.
    InstructionLimit,
    /// An external monitor raised an exception (the FlexCore TRAP
    /// signal); carries the PC the monitor reported.
    MonitorTrap {
        /// PC of the instruction that failed the monitor's check.
        pc: u32,
    },
}

/// Outcome of a single [`Core::step`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StepResult {
    /// An instruction committed; here is its trace packet.
    Committed(TracePacket),
    /// The delay-slot instruction was annulled (consumes a cycle,
    /// commits nothing, forwards nothing).
    Annulled,
    /// Execution stopped.
    Exited(ExitReason),
}

/// Complete checkpointable state of a [`Core`]: architectural state
/// (registers, condition codes, pc/npc window), microarchitectural
/// state (cache tags, store buffer, commit slot, cycle counter), and
/// accounting (statistics, console output, exit status).
///
/// Captured by [`Core::snapshot`] and reapplied by [`Core::restore`]
/// onto a core built with the same [`CoreConfig`].
#[derive(Clone, PartialEq, Debug)]
pub struct CoreSnapshot {
    /// Architectural register file.
    pub regs: [u32; 32],
    /// Condition codes, as [`IccFlags::to_bits`] (NZVC).
    pub icc: u8,
    /// Current program counter.
    pub pc: u32,
    /// Next program counter (delay-slot window).
    pub npc: u32,
    /// Whether the next fetch is an annulled delay slot.
    pub annul_next: bool,
    /// Core-clock cycle count.
    pub cycle: u64,
    /// I-cache tag/LRU state.
    pub icache: flexcore_mem::CacheSnapshot,
    /// D-cache tag/LRU state.
    pub dcache: flexcore_mem::CacheSnapshot,
    /// Pending store completions, oldest first.
    pub storebuf_pending: Vec<u64>,
    /// Store-buffer stall accounting.
    pub storebuf_stalls: u64,
    /// Execution statistics.
    pub stats: CoreStats,
    /// Console bytes produced so far.
    pub console: Vec<u8>,
    /// Exit status, if execution has stopped.
    pub exited: Option<ExitReason>,
    /// Commit-group slot (for `commit_width > 1`).
    pub commit_slot: u32,
}

/// The Leon3-like in-order core.
///
/// See the [crate docs](crate) for the modeling approach and an
/// end-to-end example.
///
/// # Decode cache
///
/// Every step fetches its instruction word from memory and charges the
/// I-cache exactly as the hardware would, but the *decode* of that word
/// is memoized in a 1024-entry direct-mapped cache indexed by `pc >> 2`.
/// An entry hits only when both its PC and the freshly fetched word
/// match. Because decoding depends on nothing but the word, a hit is
/// always what a fresh decode would return, so nothing that rewrites
/// memory — program stores over text, injected text faults, checkpoint
/// restore, bitstream hot-swap — needs to invalidate it, and the cache
/// is not part of [`CoreSnapshot`]: a restored core starts with a cold
/// cache and produces the same results.
#[derive(Clone, Debug)]
pub struct Core {
    config: CoreConfig,
    regs: [u32; 32],
    icc: IccFlags,
    pc: u32,
    npc: u32,
    annul_next: bool,
    cycle: u64,
    icache: TimingCache,
    dcache: TimingCache,
    storebuf: StoreBuffer,
    stats: CoreStats,
    console: Vec<u8>,
    exited: Option<ExitReason>,
    /// Instructions committed since the last base-cycle charge (for
    /// `commit_width > 1`).
    commit_slot: u32,
    /// Memoized decodes (host-side only; see the type docs).
    decoded: DecodeCache,
}

impl Core {
    /// Initial stack pointer after [`Core::load_program`] (grows down).
    pub const STACK_TOP: u32 = 0x00ff_fff0;

    /// Creates a core in reset state (PC 0, registers zero).
    pub fn new(config: CoreConfig) -> Core {
        Core {
            config,
            regs: [0; 32],
            icc: IccFlags::default(),
            pc: 0,
            npc: 4,
            annul_next: false,
            cycle: 0,
            icache: TimingCache::new(config.icache),
            dcache: TimingCache::new(config.dcache),
            storebuf: StoreBuffer::new(config.store_buffer_depth),
            stats: CoreStats::default(),
            console: Vec::new(),
            exited: None,
            commit_slot: 0,
            decoded: DecodeCache::new(),
        }
    }

    /// Loads a program image into memory, points the PC at its entry,
    /// and initializes `%sp`/`%fp` to [`Core::STACK_TOP`].
    pub fn load_program(&mut self, program: &Program, mem: &mut MainMemory) {
        mem.load(program.base(), program.image());
        self.pc = program.entry();
        self.npc = program.entry().wrapping_add(4);
        self.regs[Reg::SP.index()] = Core::STACK_TOP;
        self.regs[Reg::FP.index()] = Core::STACK_TOP;
    }

    /// Reads an architectural register (`%g0` reads as zero).
    pub fn reg(&self, r: Reg) -> u32 {
        if r.is_zero() {
            0
        } else {
            self.regs[r.index()]
        }
    }

    /// Writes an architectural register (writes to `%g0` are ignored).
    pub fn set_reg(&mut self, r: Reg, value: u32) {
        if !r.is_zero() {
            self.regs[r.index()] = value;
        }
    }

    /// Current condition codes.
    pub fn icc(&self) -> IccFlags {
        self.icc
    }

    /// Current program counter.
    pub fn pc(&self) -> u32 {
        self.pc
    }

    /// Core-clock cycle count so far.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Execution statistics.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// I-cache statistics.
    pub fn icache_stats(&self) -> CacheStats {
        self.icache.stats()
    }

    /// D-cache statistics.
    pub fn dcache_stats(&self) -> CacheStats {
        self.dcache.stats()
    }

    /// Bytes written to the console device at
    /// [`CONSOLE_ADDR`](crate::CONSOLE_ADDR).
    pub fn console(&self) -> &[u8] {
        &self.console
    }

    /// Stalls the commit stage until cycle `t` (used by the FlexCore
    /// interface when the forward FIFO is full). No-op if `t` is in the
    /// past.
    pub fn stall_until(&mut self, t: u64) {
        if t > self.cycle {
            self.stats.external_stall_cycles += t - self.cycle;
            self.cycle = t;
        }
    }

    /// Forces execution to stop with `reason` (the FlexCore TRAP path).
    pub fn halt(&mut self, reason: ExitReason) {
        self.exited.get_or_insert(reason);
    }

    /// Why execution stopped, if it has.
    pub fn exit_reason(&self) -> Option<ExitReason> {
        self.exited
    }

    /// The cycle at which all pending write-through stores have
    /// drained.
    pub fn quiesced_at(&self) -> u64 {
        self.storebuf.drained_at(self.cycle)
    }

    /// Next program counter (the second half of the SPARC delay-slot
    /// window). Lockstep verification uses this to seed a reference
    /// model mid-run.
    pub fn npc(&self) -> u32 {
        self.npc
    }

    /// Whether the next fetch will be annulled (the slot of a taken
    /// `ba,a` or an untaken annulling branch).
    pub fn annul_pending(&self) -> bool {
        self.annul_next
    }

    /// Captures the complete core state for checkpointing.
    pub fn snapshot(&self) -> CoreSnapshot {
        CoreSnapshot {
            regs: self.regs,
            icc: self.icc.to_bits(),
            pc: self.pc,
            npc: self.npc,
            annul_next: self.annul_next,
            cycle: self.cycle,
            icache: self.icache.snapshot(),
            dcache: self.dcache.snapshot(),
            storebuf_pending: self.storebuf.pending_completions(),
            storebuf_stalls: self.storebuf.stall_cycles(),
            stats: self.stats,
            console: self.console.clone(),
            exited: self.exited,
            commit_slot: self.commit_slot,
        }
    }

    /// Restores state captured by [`Core::snapshot`].
    ///
    /// The core must have been constructed with the same
    /// [`CoreConfig`] as the snapshotted one; the cache restore panics
    /// on a geometry mismatch.
    pub fn restore(&mut self, snap: &CoreSnapshot) {
        self.regs = snap.regs;
        self.icc = IccFlags::from_bits(snap.icc);
        self.pc = snap.pc;
        self.npc = snap.npc;
        self.annul_next = snap.annul_next;
        self.cycle = snap.cycle;
        self.icache.restore(&snap.icache);
        self.dcache.restore(&snap.dcache);
        self.storebuf.restore(&snap.storebuf_pending, snap.storebuf_stalls);
        self.stats = snap.stats;
        self.console = snap.console.clone();
        self.exited = snap.exited;
        self.commit_slot = snap.commit_slot;
    }

    fn operand2(&self, op2: Operand2) -> u32 {
        match op2 {
            Operand2::Reg(r) => self.reg(r),
            Operand2::Imm(i) => i as u32,
        }
    }

    fn exit(&mut self, reason: ExitReason) -> StepResult {
        self.exited = Some(reason);
        StepResult::Exited(reason)
    }

    /// Executes one instruction: fetch, decode, execute, charge timing,
    /// and produce the commit-stage trace packet.
    pub fn step(&mut self, mem: &mut MainMemory, bus: &mut SystemBus) -> StepResult {
        self.step_phased(mem, bus, &mut NullPhaseClock)
    }

    /// [`Core::step`] with host-time phase attribution: the fetch
    /// (icache/bus/annul) through decode window is charged to
    /// [`Phase::FetchDecode`] and functional execution plus commit
    /// timing to [`Phase::Execute`]. With the default
    /// [`NullPhaseClock`] (`ENABLED = false`) both spans fold away and
    /// this is exactly `step`. Terminal exits (illegal instruction,
    /// halt, misalignment) drop the in-flight span — they occur at
    /// most once per run, which is below the profiler's resolution
    /// anyway.
    pub fn step_phased<C: PhaseClock>(
        &mut self,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        clock: &mut C,
    ) -> StepResult {
        if let Some(reason) = self.exited {
            return StepResult::Exited(reason);
        }
        let fetch_span = clock.begin();
        let pc = self.pc;

        // Instruction fetch.
        let ifetch = self.icache.access(pc, false);
        if !ifetch.hit {
            let done = bus.transfer(BusMaster::Core, self.cycle, self.config.icache.line_words());
            self.cycle = done;
        }
        let word = mem.read_u32(pc);

        // Default control flow: slide the delay-slot window.
        let next_pc = self.npc;
        let mut next_npc = self.npc.wrapping_add(4);

        // An annulled delay slot consumes a fetch cycle but does not
        // decode, execute, or commit.
        if std::mem::take(&mut self.annul_next) {
            self.cycle += 1;
            self.stats.annulled += 1;
            self.pc = next_pc;
            self.npc = next_npc;
            clock.commit(Phase::FetchDecode, fetch_span);
            return StepResult::Annulled;
        }

        let Some(decoded) = self.decoded.decode(pc, word) else {
            return self.exit(ExitReason::IllegalInstruction { pc, word });
        };
        let inst = decoded.inst;
        let mut packet = TracePacket {
            pc,
            inst_word: word,
            inst,
            class: decoded.class,
            addr: 0,
            result: 0,
            srcv1: decoded.src1.map_or(0, |r| self.reg(r)),
            srcv2: 0,
            store_value: 0,
            cond: self.icc,
            branch_taken: false,
            src1: decoded.src1,
            src2: decoded.src2,
            dest: decoded.dest,
            commit_cycle: 0,
        };
        clock.commit(Phase::FetchDecode, fetch_span);

        let exec_span = clock.begin();
        match inst {
            Instruction::Alu { op, rd, rs1, op2 } => {
                let a = self.reg(rs1);
                let b = self.operand2(op2);
                packet.srcv2 = b;
                let Some(out) = alu(op, a, b) else {
                    return self.exit(ExitReason::DivideByZero { pc });
                };
                self.set_reg(rd, out.value);
                if let Some(icc) = out.icc {
                    self.icc = icc;
                }
                packet.result = out.value;
                packet.cond = self.icc;
                match op {
                    Opcode::Umul | Opcode::Smul => self.cycle += u64::from(self.config.mul_latency),
                    Opcode::Udiv | Opcode::Sdiv => self.cycle += u64::from(self.config.div_latency),
                    _ => {}
                }
            }
            Instruction::Sethi { rd, imm22 } => {
                let value = imm22 << 10;
                self.set_reg(rd, value);
                packet.result = value;
            }
            Instruction::Branch { cond, annul, disp22 } => {
                let taken = cond.eval(self.icc);
                packet.branch_taken = taken;
                if taken {
                    next_npc = pc.wrapping_add((disp22 as u32) << 2);
                }
                // SPARC annul rule: the delay slot is annulled when the
                // annul bit is set and the branch is untaken — or, for
                // `ba,a`/`bn,a`, unconditionally.
                if annul && (cond.is_unconditional() || !taken) {
                    self.annul_next = true;
                }
            }
            Instruction::Call { disp30 } => {
                self.set_reg(Reg::O7, pc);
                packet.result = pc;
                packet.branch_taken = true;
                next_npc = pc.wrapping_add((disp30 as u32) << 2);
            }
            Instruction::Jmpl { rd, rs1, op2 } => {
                let target = self.reg(rs1).wrapping_add(self.operand2(op2));
                packet.srcv2 = self.operand2(op2);
                packet.addr = target;
                if !target.is_multiple_of(4) {
                    return self.exit(ExitReason::MisalignedAccess { pc, addr: target });
                }
                self.set_reg(rd, pc);
                packet.result = pc;
                packet.branch_taken = true;
                next_npc = target;
            }
            Instruction::Trap { cond, rs1, op2 } => {
                packet.srcv2 = self.operand2(op2);
                if cond.eval(self.icc) {
                    let tn = self.reg(rs1).wrapping_add(self.operand2(op2)) & 0x7f;
                    // Traps drain the store buffer before transferring
                    // control (the paper's EMPTY-signal discipline).
                    self.cycle = self.storebuf.drained_at(self.cycle);
                    return self.exit(ExitReason::Halt(tn));
                }
            }
            Instruction::Cpop { rs1, rs2, .. } => {
                // Co-processor ops are transparent to the core: the
                // FlexCore interface layer interprets them (and supplies
                // the BFIFO value for "read from co-processor").
                packet.srcv1 = self.reg(rs1);
                packet.srcv2 = self.reg(rs2);
            }
            Instruction::Mem { op, rd, rs1, op2 } => {
                let ea = self.reg(rs1).wrapping_add(self.operand2(op2));
                packet.addr = ea;
                packet.srcv2 = self.operand2(op2);
                let bytes = op.access_bytes().expect("memory opcode");
                if !ea.is_multiple_of(bytes) {
                    return self.exit(ExitReason::MisalignedAccess { pc, addr: ea });
                }
                if matches!(op, Opcode::Ldd | Opcode::Std) && rd.index() % 2 != 0 {
                    // Doubleword ops require an even register pair.
                    return self.exit(ExitReason::IllegalInstruction { pc, word });
                }
                if ea >= CONSOLE_ADDR {
                    // Memory-mapped console: uncached, no bus model
                    // (a real UART sits on a peripheral bus).
                    if op.is_store() {
                        self.console.push(self.reg(rd) as u8);
                        packet.store_value = self.reg(rd);
                    }
                } else if op == Opcode::Swap {
                    // Atomic swap: one read plus one write, locked on
                    // the bus.
                    let old = mem.read_u32(ea);
                    mem.write_u32(ea, self.reg(rd));
                    packet.store_value = self.reg(rd);
                    packet.result = old;
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(
                            BusMaster::Core,
                            self.cycle,
                            self.config.dcache.line_words(),
                        );
                        self.cycle = done;
                    }
                    self.dcache.access(ea, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 1);
                    // Atomicity: the core holds the bus; no store
                    // buffering.
                    self.cycle = done;
                    self.set_reg(rd, old);
                    self.cycle += u64::from(self.config.load_latency);
                } else if op == Opcode::Std {
                    // SPARC-V8 doubleword ops pair even/odd registers.
                    // A crafted (or fault-flipped) odd rd would address
                    // past %r31, so the low bit is ignored and rd is
                    // the even-aligned pair base.
                    let rd = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                    let rd2 = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                    let (v1, v2) = (self.reg(rd), self.reg(rd2));
                    mem.write_u32(ea, v1);
                    mem.write_u32(ea + 4, v2);
                    packet.store_value = v1;
                    packet.result = v1;
                    self.dcache.access(ea, true);
                    self.dcache.access(ea + 4, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 2);
                    let proceed = self.storebuf.push(self.cycle, done);
                    self.stats.store_stall_cycles += proceed - self.cycle;
                    self.cycle = proceed;
                    // The second word occupies the memory stage an
                    // extra cycle.
                    self.cycle += 1;
                } else if op.is_store() {
                    let value = self.reg(rd);
                    packet.store_value = value;
                    packet.result = value;
                    match op {
                        Opcode::St => mem.write_u32(ea, value),
                        Opcode::Sth => mem.write_u16(ea, value as u16),
                        Opcode::Stb => mem.write_u8(ea, value as u8),
                        _ => unreachable!(),
                    }
                    // Write-through: tags updated on hit, no allocate;
                    // the word goes to memory via the store buffer.
                    self.dcache.access(ea, true);
                    let done = bus.write(BusMaster::Core, self.cycle, 1);
                    let proceed = self.storebuf.push(self.cycle, done);
                    self.stats.store_stall_cycles += proceed - self.cycle;
                    self.cycle = proceed;
                } else if op == Opcode::Ldd {
                    // Even-aligned pair base, as for `std` above.
                    let rd = Reg::new(rd.index() as u8 & !1).unwrap_or(rd);
                    let rd2 = Reg::new(rd.index() as u8 | 1).unwrap_or(rd);
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(
                            BusMaster::Core,
                            self.cycle,
                            self.config.dcache.line_words(),
                        );
                        self.cycle = done;
                    }
                    self.dcache.access(ea + 4, false); // same line: 8-aligned
                    let v1 = mem.read_u32(ea);
                    let v2 = mem.read_u32(ea + 4);
                    self.set_reg(rd, v1);
                    self.set_reg(rd2, v2);
                    packet.result = v1;
                    // Two memory-stage beats plus the usual load use.
                    self.cycle += u64::from(self.config.load_latency) + 1;
                } else {
                    let lookup = self.dcache.access(ea, false);
                    if !lookup.hit {
                        let done = bus.transfer(
                            BusMaster::Core,
                            self.cycle,
                            self.config.dcache.line_words(),
                        );
                        self.cycle = done;
                    }
                    let value = match op {
                        Opcode::Ld => mem.read_u32(ea),
                        Opcode::Lduh => u32::from(mem.read_u16(ea)),
                        Opcode::Ldsh => mem.read_u16(ea) as i16 as i32 as u32,
                        Opcode::Ldub => u32::from(mem.read_u8(ea)),
                        Opcode::Ldsb => mem.read_u8(ea) as i8 as i32 as u32,
                        _ => unreachable!(),
                    };
                    self.set_reg(rd, value);
                    packet.result = value;
                    self.cycle += u64::from(self.config.load_latency);
                }
            }
        }

        // Taken control transfers pay the fetch-redirect bubble (and
        // break the commit group).
        if packet.branch_taken {
            self.cycle += u64::from(self.config.taken_branch_penalty);
            self.commit_slot = 0;
        }
        // Base cycle, shared by `commit_width` instructions.
        self.commit_slot += 1;
        if self.commit_slot >= self.config.commit_width {
            self.commit_slot = 0;
            self.cycle += 1;
        }
        self.stats.instret += 1;
        self.stats.per_class[packet.class.index()] += 1;
        packet.commit_cycle = self.cycle;

        self.pc = next_pc;
        self.npc = next_npc;
        clock.commit(Phase::Execute, exec_span);
        StepResult::Committed(packet)
    }

    /// Performs one extra data access on behalf of instrumentation
    /// code (used by the software-monitoring baselines): charges
    /// D-cache, bus, and store-buffer timing exactly like a real
    /// load/store plus its base cycle, without touching architectural
    /// state.
    pub fn instrumentation_access(
        &mut self,
        addr: u32,
        is_write: bool,
        _mem: &mut MainMemory,
        bus: &mut SystemBus,
    ) {
        if is_write {
            self.dcache.access(addr, true);
            let done = bus.write(BusMaster::Core, self.cycle, 1);
            let proceed = self.storebuf.push(self.cycle, done);
            self.cycle = proceed;
        } else {
            let lookup = self.dcache.access(addr, false);
            if !lookup.hit {
                let done =
                    bus.transfer(BusMaster::Core, self.cycle, self.config.dcache.line_words());
                self.cycle = done;
            }
            self.cycle += u64::from(self.config.load_latency);
        }
        self.cycle += 1;
    }

    /// Runs until the program exits or `max_instructions` commit.
    pub fn run(
        &mut self,
        mem: &mut MainMemory,
        bus: &mut SystemBus,
        max_instructions: u64,
    ) -> ExitReason {
        loop {
            if self.stats.instret >= max_instructions {
                self.exited = Some(ExitReason::InstructionLimit);
                return ExitReason::InstructionLimit;
            }
            if let StepResult::Exited(reason) = self.step(mem, bus) {
                return reason;
            }
        }
    }
}
