//! Memory substrate for the FlexCore reproduction.
//!
//! The paper's prototype system contains, besides the Leon3 core itself:
//!
//! * 32-KB L1 instruction and data caches with 32-byte lines, using a
//!   write-through / no-allocate policy (the Leon3 default),
//! * a 4-KB **meta-data cache** private to the reconfigurable fabric,
//!   "almost identical to regular data caches except for the capability
//!   to write at a bit granularity" (§III.D),
//! * a shared memory bus to off-chip SDRAM, used by both the main core
//!   and the meta-data cache — meta-data refills "hog the memory bus"
//!   and slow down the main core's own misses (§V.C).
//!
//! This crate models all of those pieces:
//!
//! * [`MainMemory`] — sparse, big-endian backing store in a two-level
//!   radix page table (one indexed lookup per in-page access),
//! * [`SystemBus`] — a single shared bus with SDRAM burst timing and
//!   per-master contention accounting,
//! * [`TimingCache`] — a tag-only set-associative cache used for the L1
//!   caches (write-through means the flat memory is always current, so
//!   the L1s need no data array in the model),
//! * [`MetaDataCache`] — a data-carrying, write-back, write-allocate
//!   cache with the paper's 32-bit *bit write-enable mask* interface,
//! * [`StoreBuffer`] — the write buffer that hides write-through store
//!   latency until it fills.
//!
//! # Example
//!
//! ```
//! use flexcore_mem::{BusMaster, CacheConfig, MainMemory, MetaDataCache, SystemBus};
//!
//! let mut mem = MainMemory::new();
//! let mut bus = SystemBus::default();
//! let mut meta = MetaDataCache::new(CacheConfig::meta_default());
//!
//! // Set bit 5 of the meta word at 0x4000_0000 without touching the rest.
//! let w = meta.write_masked(0x4000_0000, 1 << 5, 1 << 5, &mut mem, &mut bus, BusMaster::Fabric, 0);
//! let r = meta.read_word(0x4000_0000, &mut mem, &mut bus, BusMaster::Fabric, w.ready_at);
//! assert_eq!(r.value, 1 << 5);
//! ```

#![forbid(unsafe_code)]
#![cfg_attr(not(test), warn(clippy::unwrap_used))]
#![warn(missing_docs)]

mod bus;
mod cache;
mod mainmem;
mod metacache;
#[cfg(feature = "serde")]
mod serde_impls;
mod storebuf;

pub use bus::{BusMaster, BusStats, SdramTiming, SystemBus};
pub use cache::{
    CacheConfig, CacheSnapshot, CacheStats, LineState, Lookup, TimingCache, WritePolicy,
};
pub use mainmem::MainMemory;
pub use metacache::{MetaAccess, MetaCacheSnapshot, MetaDataCache};
pub use storebuf::StoreBuffer;
