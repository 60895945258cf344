//! The core's word-tagged cache of decoded instructions.

use flexcore_isa::{decode, InstrClass, Instruction, Reg};

/// Number of entries; the cache is direct-mapped on `pc >> 2`.
const ENTRIES: usize = 1024;

/// A decoded instruction plus the per-commit facts derived from it.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Decoded {
    pub inst: Instruction,
    pub class: InstrClass,
    pub src1: Option<Reg>,
    pub src2: Option<Reg>,
    pub dest: Option<Reg>,
}

#[derive(Clone, Copy)]
struct Entry {
    pc: u32,
    word: u32,
    decoded: Decoded,
}

/// Direct-mapped cache from `(pc, instruction word)` to [`Decoded`].
///
/// An entry hits only when both its PC and the word just fetched from
/// memory match, and decoding is a pure function of the word, so a hit
/// always equals a fresh decode (see the "Decode cache" section of
/// [`Core`](crate::Core)'s docs). Words that fail to decode are never
/// cached.
#[derive(Clone)]
pub(crate) struct DecodeCache {
    entries: Box<[Option<Entry>; ENTRIES]>,
}

impl DecodeCache {
    pub(crate) fn new() -> DecodeCache {
        DecodeCache { entries: Box::new([None; ENTRIES]) }
    }

    /// Decodes `word`, fetched from `pc`, reusing the cached result when
    /// it was decoded from the same word at the same PC. `None` for an
    /// undecodable word.
    pub(crate) fn decode(&mut self, pc: u32, word: u32) -> Option<Decoded> {
        let slot = &mut self.entries[(pc >> 2) as usize % ENTRIES];
        if let Some(e) = slot {
            if e.pc == pc && e.word == word {
                return Some(e.decoded);
            }
        }
        let inst = decode(word).ok()?;
        let (src1, src2) = inst.source_regs();
        let decoded =
            Decoded { inst, class: InstrClass::of(&inst), src1, src2, dest: inst.dest_reg() };
        *slot = Some(Entry { pc, word, decoded });
        Some(decoded)
    }
}

impl std::fmt::Debug for DecodeCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let valid = self.entries.iter().filter(|e| e.is_some()).count();
        f.debug_struct("DecodeCache").field("valid_entries", &valid).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_isa::{encode, Opcode, Operand2};

    fn add(rd: u8, imm: i32) -> u32 {
        let r = |i| Reg::new(i).unwrap();
        encode(&Instruction::alu(Opcode::Add, r(0), r(rd), Operand2::Imm(imm)))
    }

    #[test]
    fn hit_requires_the_same_word() {
        let mut c = DecodeCache::new();
        let a = c.decode(0x100, add(1, 5)).unwrap();
        let b = c.decode(0x100, add(2, 7)).unwrap();
        assert_eq!(a.inst, decode(add(1, 5)).unwrap());
        assert_eq!(b.inst, decode(add(2, 7)).unwrap());
        assert_eq!(b.dest, Reg::new(2));
    }

    #[test]
    fn aliasing_pcs_do_not_share_an_entry() {
        let mut c = DecodeCache::new();
        let alias = 0x100 + (ENTRIES as u32) * 4;
        c.decode(0x100, add(1, 5)).unwrap();
        let d = c.decode(alias, add(1, 5)).unwrap();
        assert_eq!(d.inst, decode(add(1, 5)).unwrap());
        let e = c.decode(0x100, add(3, 1)).unwrap();
        assert_eq!(e.dest, Reg::new(3));
    }

    #[test]
    fn undecodable_words_are_not_cached() {
        let mut c = DecodeCache::new();
        let bad = (0..u32::MAX).step_by(4097).find(|&w| decode(w).is_err()).unwrap();
        assert!(c.decode(0x200, bad).is_none());
        assert!(c.entries[(0x200 >> 2) % ENTRIES].is_none());
    }
}
