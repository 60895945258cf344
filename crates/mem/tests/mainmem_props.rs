//! Differential property test: `MainMemory` against a byte-map
//! reference model, over random mixes of byte/halfword/word reads and
//! writes plus bulk `load`/`dump`. Addresses lean toward page edges and
//! the top of the address space, where accesses split across pages or
//! wrap to zero.

use std::collections::{BTreeMap, BTreeSet};

use flexcore_mem::MainMemory;
use proptest::prelude::*;

const PAGE: u32 = MainMemory::PAGE_BYTES as u32;

/// The reference: one map entry per byte ever written.
#[derive(Default)]
struct RefMem {
    bytes: BTreeMap<u32, u8>,
}

impl RefMem {
    fn read(&self, addr: u32, len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| self.bytes.get(&addr.wrapping_add(i as u32)).copied().unwrap_or(0))
            .collect()
    }

    fn write(&mut self, addr: u32, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.bytes.insert(addr.wrapping_add(i as u32), b);
        }
    }

    fn pages(&self) -> BTreeSet<u32> {
        self.bytes.keys().map(|a| a / PAGE).collect()
    }
}

#[derive(Clone, Debug)]
enum Op {
    Read { addr: u32, len: usize },
    Write { addr: u32, len: usize, value: u32 },
    Load { addr: u32, bytes: Vec<u8> },
    Dump { addr: u32, len: usize },
}

fn arb_addr() -> impl Strategy<Value = u32> {
    let page = prop::sample::select(vec![0u32, 1, 2, 0x3ff, 0x400, 0x401, 0xf_ffff]);
    let offset = prop_oneof![
        3 => prop::sample::select(vec![0u32, 1, 2, 3, 0xffc, 0xffd, 0xffe, 0xfff]),
        1 => 0u32..PAGE,
    ];
    prop_oneof![
        4 => (page, offset).prop_map(|(p, o)| p * PAGE + o),
        1 => prop::sample::select(vec![0xffff_fffc, 0xffff_fffd, 0xffff_fffe, 0xffff_ffff]),
        1 => any::<u32>(),
    ]
}

fn arb_width() -> impl Strategy<Value = usize> {
    prop::sample::select(vec![1usize, 2, 4])
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (arb_addr(), arb_width()).prop_map(|(addr, len)| Op::Read { addr, len }),
        3 => (arb_addr(), arb_width(), any::<u32>())
            .prop_map(|(addr, len, value)| Op::Write { addr, len, value }),
        1 => (arb_addr(), 0usize..2 * PAGE as usize + 3, any::<u8>()).prop_map(
            |(addr, len, seed)| Op::Load {
                addr,
                bytes: (0..len).map(|i| (i as u8).wrapping_mul(31) ^ seed).collect(),
            }
        ),
        1 => (arb_addr(), 0usize..2 * PAGE as usize + 3).prop_map(|(addr, len)| Op::Dump { addr, len }),
    ]
}

fn read(m: &MainMemory, addr: u32, len: usize) -> Vec<u8> {
    match len {
        1 => vec![m.read_u8(addr)],
        2 => m.read_u16(addr).to_be_bytes().to_vec(),
        _ => m.read_u32(addr).to_be_bytes().to_vec(),
    }
}

fn write(m: &mut MainMemory, addr: u32, len: usize, value: u32) -> Vec<u8> {
    match len {
        1 => m.write_u8(addr, value as u8),
        2 => m.write_u16(addr, value as u16),
        _ => m.write_u32(addr, value),
    }
    value.to_be_bytes()[4 - len..].to_vec()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn main_memory_matches_a_byte_map(ops in prop::collection::vec(arb_op(), 1..40)) {
        let mut mem = MainMemory::new();
        let mut model = RefMem::default();
        for op in ops {
            let resident = mem.resident_pages();
            match op {
                Op::Read { addr, len } => {
                    prop_assert_eq!(read(&mem, addr, len), model.read(addr, len), "{:?}", op);
                    prop_assert_eq!(mem.resident_pages(), resident, "read allocated: {:?}", op);
                }
                Op::Dump { addr, len } => {
                    prop_assert!(mem.dump(addr, len) == model.read(addr, len), "{:?}", op);
                    prop_assert_eq!(mem.resident_pages(), resident, "dump allocated: {:?}", op);
                }
                Op::Write { addr, len, value } => {
                    let bytes = write(&mut mem, addr, len, value);
                    model.write(addr, &bytes);
                }
                Op::Load { addr, ref bytes } => {
                    mem.load(addr, bytes);
                    model.write(addr, bytes);
                }
            }
            let indices = mem.page_indices();
            prop_assert!(indices.windows(2).all(|w| w[0] < w[1]), "unsorted: {:?}", indices);
            prop_assert_eq!(indices.iter().copied().collect::<BTreeSet<_>>(), model.pages());
            prop_assert_eq!(mem.resident_pages(), indices.len());
        }

        // Every resident page's raw bytes agree with the model, and a
        // clone carries the same pages.
        let copy = mem.clone();
        prop_assert_eq!(copy.page_indices(), mem.page_indices());
        for index in mem.page_indices() {
            let bytes = mem.page_bytes(index).expect("resident page has bytes");
            prop_assert!(bytes == &model.read(index * PAGE, PAGE as usize)[..]);
            prop_assert!(copy.page_bytes(index) == Some(bytes));
        }
    }
}
