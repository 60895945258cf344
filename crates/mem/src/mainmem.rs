//! Sparse big-endian backing store, held in a two-level radix page
//! table.
//!
//! A 32-bit address splits 10 / 10 / 12: the top ten bits pick one of
//! 1024 directory slots, the next ten pick one of that directory's
//! 1024 page slots, and the low twelve are the offset into a 4-KiB
//! page. Both levels are plain arrays indexed by those bits, so an
//! access that stays inside one page costs one table walk and one
//! slice copy, with no hashing. Only accesses that straddle a page
//! boundary (or wrap the address space at `0xffff_ffff`) take a slower
//! path that splits them into per-page pieces.

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u32 = (PAGE_SIZE as u32) - 1;
const DIR_SHIFT: u32 = 22;
const DIR_SLOTS: usize = 1 << (32 - DIR_SHIFT);
const PAGE_SLOTS: usize = 1 << (DIR_SHIFT - PAGE_SHIFT);

type Page = [u8; PAGE_SIZE];
type Directory = [Option<Box<Page>>; PAGE_SLOTS];

/// The (directory, page slot) indices of the page holding `addr`.
fn slots(addr: u32) -> (usize, usize) {
    ((addr >> DIR_SHIFT) as usize, ((addr >> PAGE_SHIFT) as usize) & (PAGE_SLOTS - 1))
}

/// Flat 32-bit physical address space, allocated lazily in 4-KB pages.
///
/// All multi-byte accesses are **big-endian**, matching SPARC V8.
/// Unwritten memory reads as zero (the simulator's loader zero-fills
/// `.bss` implicitly this way) and reading it allocates nothing; a page
/// is allocated on its first write.
///
/// Pages live in a two-level radix table (1024 directories × 1024
/// pages), so every `read_*`/`write_*` that stays inside one page is a
/// single indexed lookup. Halfword and word accesses that cross a page
/// boundary, or wrap from `0xffff_ffff` to `0`, are split per page.
///
/// `MainMemory` is purely functional; all timing lives in
/// [`SystemBus`](crate::SystemBus) and the caches.
///
/// # Example
///
/// ```
/// use flexcore_mem::MainMemory;
/// let mut m = MainMemory::new();
/// m.write_u32(0x100, 0x1122_3344);
/// assert_eq!(m.read_u8(0x100), 0x11); // big-endian: MSB first
/// assert_eq!(m.read_u16(0x102), 0x3344);
/// ```
#[derive(Clone)]
pub struct MainMemory {
    dirs: Box<[Option<Box<Directory>>; DIR_SLOTS]>,
    resident: usize,
}

impl Default for MainMemory {
    fn default() -> MainMemory {
        MainMemory { dirs: Box::new(std::array::from_fn(|_| None)), resident: 0 }
    }
}

impl std::fmt::Debug for MainMemory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MainMemory").field("resident_pages", &self.resident).finish()
    }
}

impl MainMemory {
    /// Creates an empty (all-zero) memory.
    pub fn new() -> MainMemory {
        MainMemory::default()
    }

    fn page(&self, addr: u32) -> Option<&Page> {
        let (d, p) = slots(addr);
        self.dirs[d].as_ref()?[p].as_deref()
    }

    fn page_mut(&mut self, addr: u32) -> &mut Page {
        let (d, p) = slots(addr);
        let dir = self.dirs[d].get_or_insert_with(|| Box::new(std::array::from_fn(|_| None)));
        let slot = &mut dir[p];
        if slot.is_none() {
            self.resident += 1;
        }
        slot.get_or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// The `N` bytes at `addr`, if they lie inside one page. Unwritten
    /// pages read as zero.
    fn read_in_page<const N: usize>(&self, addr: u32) -> Option<[u8; N]> {
        let off = (addr & PAGE_MASK) as usize;
        if off + N > PAGE_SIZE {
            return None;
        }
        let mut out = [0; N];
        if let Some(p) = self.page(addr) {
            out.copy_from_slice(&p[off..off + N]);
        }
        Some(out)
    }

    /// Writes `bytes` at `addr` if they lie inside one page; returns
    /// whether it did. Callers fall back to [`MainMemory::load`].
    fn write_in_page(&mut self, addr: u32, bytes: &[u8]) -> bool {
        let off = (addr & PAGE_MASK) as usize;
        if off + bytes.len() > PAGE_SIZE {
            return false;
        }
        self.page_mut(addr)[off..off + bytes.len()].copy_from_slice(bytes);
        true
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u32) -> u8 {
        self.page(addr).map_or(0, |p| p[(addr & PAGE_MASK) as usize])
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u32, value: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = value;
    }

    /// Reads `N` bytes one at a time, wrapping at the top of the address
    /// space (the page-crossing slow path).
    fn read_bytes<const N: usize>(&self, addr: u32) -> [u8; N] {
        std::array::from_fn(|i| self.read_u8(addr.wrapping_add(i as u32)))
    }

    /// Reads a big-endian halfword. `addr` is interpreted as given; the
    /// caller (the core) enforces alignment traps.
    pub fn read_u16(&self, addr: u32) -> u16 {
        u16::from_be_bytes(self.read_in_page(addr).unwrap_or_else(|| self.read_bytes(addr)))
    }

    /// Writes a big-endian halfword.
    pub fn write_u16(&mut self, addr: u32, value: u16) {
        let bytes = value.to_be_bytes();
        if !self.write_in_page(addr, &bytes) {
            self.load(addr, &bytes);
        }
    }

    /// Reads a big-endian word.
    pub fn read_u32(&self, addr: u32) -> u32 {
        u32::from_be_bytes(self.read_in_page(addr).unwrap_or_else(|| self.read_bytes(addr)))
    }

    /// Writes a big-endian word.
    pub fn write_u32(&mut self, addr: u32, value: u32) {
        let bytes = value.to_be_bytes();
        if !self.write_in_page(addr, &bytes) {
            self.load(addr, &bytes);
        }
    }

    /// Copies `bytes` into memory starting at `addr` (the program
    /// loader), one in-page span at a time. Wraps at the top of the
    /// address space like the single-value writes.
    pub fn load(&mut self, mut addr: u32, mut bytes: &[u8]) {
        while !bytes.is_empty() {
            let off = (addr & PAGE_MASK) as usize;
            let (span, rest) = bytes.split_at(bytes.len().min(PAGE_SIZE - off));
            self.page_mut(addr)[off..off + span.len()].copy_from_slice(span);
            addr = addr.wrapping_add(span.len() as u32);
            bytes = rest;
        }
    }

    /// Reads `len` bytes starting at `addr` into a fresh vector, one
    /// in-page span at a time. Allocates no pages.
    pub fn dump(&self, mut addr: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let off = (addr & PAGE_MASK) as usize;
            let n = (len - out.len()).min(PAGE_SIZE - off);
            match self.page(addr) {
                Some(p) => out.extend_from_slice(&p[off..off + n]),
                None => out.resize(out.len() + n, 0),
            }
            addr = addr.wrapping_add(n as u32);
        }
        out
    }

    /// Number of 4-KB pages that have been touched.
    pub fn resident_pages(&self) -> usize {
        self.resident
    }

    /// The page size used by [`MainMemory::page_indices`] /
    /// [`MainMemory::page_bytes`], in bytes.
    pub const PAGE_BYTES: usize = PAGE_SIZE;

    /// Indices of every resident page, sorted ascending. A page's base
    /// address is `index << 12`.
    ///
    /// Checkpointing uses this (together with
    /// [`MainMemory::page_bytes`]) to delta-compress memory against a
    /// baseline image without walking the whole 32-bit address space.
    pub fn page_indices(&self) -> Vec<u32> {
        let mut v = Vec::with_capacity(self.resident);
        for (d, dir) in self.dirs.iter().enumerate() {
            let Some(dir) = dir else { continue };
            for (p, page) in dir.iter().enumerate() {
                if page.is_some() {
                    v.push((d * PAGE_SLOTS + p) as u32);
                }
            }
        }
        v
    }

    /// The raw bytes of a resident page, or `None` if the page has
    /// never been touched (and therefore reads as zero).
    pub fn page_bytes(&self, index: u32) -> Option<&[u8]> {
        if index >= 1 << (32 - PAGE_SHIFT) {
            return None;
        }
        self.page(index << PAGE_SHIFT).map(|p| &p[..])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let m = MainMemory::new();
        assert_eq!(m.read_u8(0), 0);
        assert_eq!(m.read_u32(0xdead_beec), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn big_endian_layout() {
        let mut m = MainMemory::new();
        m.write_u32(0x40, 0x0102_0304);
        assert_eq!(m.read_u8(0x40), 0x01);
        assert_eq!(m.read_u8(0x43), 0x04);
        assert_eq!(m.read_u16(0x40), 0x0102);
        assert_eq!(m.read_u16(0x42), 0x0304);
    }

    #[test]
    fn cross_page_word_access() {
        let mut m = MainMemory::new();
        let addr = PAGE_SIZE as u32 - 2;
        m.write_u32(addr, 0xaabb_ccdd);
        assert_eq!(m.read_u32(addr), 0xaabb_ccdd);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn load_and_dump_round_trip() {
        let mut m = MainMemory::new();
        let data: Vec<u8> = (0..=255).collect();
        m.load(0x1000, &data);
        assert_eq!(m.dump(0x1000, 256), data);
    }

    #[test]
    fn address_wraparound_is_defined() {
        let mut m = MainMemory::new();
        m.write_u32(0xffff_fffe, 0x1234_5678);
        assert_eq!(m.read_u8(0xffff_ffff), 0x34);
        assert_eq!(m.read_u8(0x0000_0000), 0x56);
        assert_eq!(m.read_u8(0x0000_0001), 0x78);
    }
}
