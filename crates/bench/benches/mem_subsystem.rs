//! Micro-benchmarks: the memory substrate (main-memory word accesses,
//! meta-data cache masked writes, L1 timing-cache lookups, bus
//! arbitration).

use flexcore_asm::Program;
use flexcore_bench::microbench::Harness;
use flexcore_mem::{BusMaster, CacheConfig, MainMemory, MetaDataCache, SystemBus, TimingCache};
use flexcore_pipeline::Core;

fn main() {
    let h = Harness::new();

    // Aligned word traffic over the three regions a monitored run
    // touches: program text, the stack, and the meta-data region.
    let regions = [Program::DEFAULT_BASE, Core::STACK_TOP - 0x4000, 0x4000_0000];
    let mut mem = MainMemory::new();
    h.run("mainmem_word_rw", || {
        let mut acc = 0u32;
        for i in 0..4096u32 {
            let addr = regions[(i % 3) as usize] + ((i / 3) * 4) % 0x4000;
            mem.write_u32(addr, acc ^ i);
            acc = acc.wrapping_add(mem.read_u32(addr ^ 4));
        }
        acc
    });

    h.run("metacache_masked_writes_4k", || {
        let mut cache = MetaDataCache::new(CacheConfig::meta_default());
        let mut mem = MainMemory::new();
        let mut bus = SystemBus::default();
        let mut t = 0;
        for i in 0..4096u32 {
            let a = cache.write_masked(
                0x4000_0000 + (i % 2048) * 4,
                i,
                1 << (i % 32),
                &mut mem,
                &mut bus,
                BusMaster::Fabric,
                t,
            );
            t = a.ready_at;
        }
        t
    });

    h.run("l1_lookups_16k", || {
        let mut cache = TimingCache::new(CacheConfig::l1_default());
        let mut hits = 0u64;
        for i in 0..16384u32 {
            if cache.access(i.wrapping_mul(68) & 0xffff, i % 4 == 0).hit {
                hits += 1;
            }
        }
        hits
    });

    h.run("bus_transfers_8k", || {
        let mut bus = SystemBus::default();
        let mut t = 0u64;
        for i in 0..8192 {
            let m = if i % 3 == 0 { BusMaster::Fabric } else { BusMaster::Core };
            t = bus.transfer(m, t.saturating_sub(10), 8);
        }
        t
    });
}
