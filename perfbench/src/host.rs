//! Host-speed reference: a fixed interpreter run the benchmark owns,
//! timed beside every measured operation.
//!
//! On a shared machine, other tenants slow the host by up to 2× for
//! seconds to minutes at a time, and a run of the simulator measured
//! then reads as a regression of the simulator. The reference run slows
//! with the host but never with the simulator, so a time scaled by
//! `NOMINAL_S ÷ reference seconds` measured around it cancels most of
//! that drift: it reads as the time the operation would take on the
//! host at its nominal speed.
//!
//! The reference is shaped like the simulator's hot loop, because the
//! slow phases hit the front end and the memory system: an interpreter
//! that dispatches through a table of 1024 distinct operations (each a
//! separate function, so the code and branch targets do not fit the
//! core's small caches) over an 8 MiB data memory, larger than a core's
//! L2, that it loads and stores at random.

use std::time::Instant;

/// Registers of the reference interpreter.
type Regs = [u32; 16];
/// One operation: updates the registers and memory, returns a value the
/// interpreter folds into its next program counter.
type Op = fn(&mut Regs, &mut [u32], u32) -> u32;

/// Words of the data memory (8 MiB).
const MEM_WORDS: usize = 1 << 21;
/// Instructions in the program.
const PROGRAM_LEN: usize = 8192;
/// Instructions one reference run executes.
const STEPS: usize = 100_000;
/// Seconds one reference run takes at the host's nominal speed: its
/// median on the 2-core Xeon (Emerald Rapids) virtual machine the
/// benchmark was defined on. Scaled times read in seconds of that host.
pub const NOMINAL_S: f64 = 0.006;

/// Operation `K`. The constants derived from `K` differ in every
/// instantiation, so each is separate machine code.
#[inline(never)]
fn op<const K: u32>(r: &mut Regs, mem: &mut [u32], ins: u32) -> u32 {
    let (a, b, d) = ((ins >> 4) as usize & 15, (ins >> 8) as usize & 15, (ins >> 12) as usize & 15);
    let x =
        r[a].wrapping_mul(K | 1).rotate_left(K % 31) ^ r[b].wrapping_add(K.wrapping_mul(0x9e37));
    if x & (1 << (K % 7)) != 0 {
        let i = (x ^ K) as usize % mem.len();
        r[d] = mem[i].wrapping_add(K ^ 0x5bd1);
        let j = (i + K as usize) % mem.len();
        mem[j] = x;
    } else {
        r[d] = x.wrapping_sub(K.wrapping_mul(0x85eb)) ^ (r[d] >> (K % 13));
    }
    x.wrapping_add(K) >> 3
}

macro_rules! ops4 {
    ($a:literal, $b:literal, $c:literal, $d:literal) => {
        [
            op::<{ $a * 256 + $b * 64 + $c * 16 + $d * 4 }>,
            op::<{ $a * 256 + $b * 64 + $c * 16 + $d * 4 + 1 }>,
            op::<{ $a * 256 + $b * 64 + $c * 16 + $d * 4 + 2 }>,
            op::<{ $a * 256 + $b * 64 + $c * 16 + $d * 4 + 3 }>,
        ]
    };
}
macro_rules! ops16 {
    ($a:literal, $b:literal, $c:literal) => {
        [ops4!($a, $b, $c, 0), ops4!($a, $b, $c, 1), ops4!($a, $b, $c, 2), ops4!($a, $b, $c, 3)]
    };
}
macro_rules! ops64 {
    ($a:literal, $b:literal) => {
        [ops16!($a, $b, 0), ops16!($a, $b, 1), ops16!($a, $b, 2), ops16!($a, $b, 3)]
    };
}
macro_rules! ops256 {
    ($a:literal) => {
        [ops64!($a, 0), ops64!($a, 1), ops64!($a, 2), ops64!($a, 3)]
    };
}

/// The 1024 operations, indexed by the ten bits of an opcode two at a
/// time.
static OPS: [[[[[Op; 4]; 4]; 4]; 4]; 4] = [ops256!(0), ops256!(1), ops256!(2), ops256!(3)];

/// The reference interpreter's program and data memory.
pub struct Reference {
    program: Vec<u32>,
    mem: Vec<u32>,
}

impl Reference {
    /// Generates the program, touches the memory, and runs once to warm
    /// both.
    pub fn new() -> Reference {
        let mut x: u32 = 12345;
        let program = (0..PROGRAM_LEN)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 17;
                x ^= x << 5;
                x
            })
            .collect();
        let mut r = Reference { program, mem: vec![7; MEM_WORDS] };
        r.run();
        r
    }

    /// Resident size of the program and memory in MiB, which the
    /// benchmark takes off its peak resident set.
    pub fn resident_mib() -> f64 {
        ((MEM_WORDS + PROGRAM_LEN) * std::mem::size_of::<u32>()) as f64 / (1024.0 * 1024.0)
    }

    /// Times one reference run, in seconds.
    pub fn run(&mut self) -> f64 {
        let started = Instant::now();
        let mut r: Regs = [1; 16];
        let mut pc = 0;
        for _ in 0..STEPS {
            let ins = self.program[pc] ^ r[0];
            let k = (ins >> 16) as usize & 1023;
            let f = OPS[k >> 8][(k >> 6) & 3][(k >> 4) & 3][(k >> 2) & 3][k & 3];
            let next = f(&mut r, &mut self.mem, ins);
            pc = (pc + 1 + (next & 3) as usize) % PROGRAM_LEN;
        }
        std::hint::black_box(r);
        started.elapsed().as_secs_f64()
    }
}

/// The factor that scales a time measured while the reference runs
/// `runs` were timed around it to the nominal host: `NOMINAL_S` ÷
/// their mean.
pub fn factor(runs: &[f64]) -> f64 {
    NOMINAL_S * runs.len() as f64 / runs.iter().sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_down() {
        assert!((factor(&[NOMINAL_S, NOMINAL_S]) - 1.0).abs() < 1e-12);
        assert!((factor(&[2.0 * NOMINAL_S, 2.0 * NOMINAL_S]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn the_reference_run_takes_time() {
        let mut r = Reference::new();
        assert!(r.run() > 0.0);
        assert!((Reference::resident_mib() - 8.03125).abs() < 1e-12);
    }
}
