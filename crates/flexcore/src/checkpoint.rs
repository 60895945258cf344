//! Checkpoint/restore of a complete [`System`](crate::System).
//!
//! A [`Snapshot`] captures every bit of simulation state a resumed run
//! can observe: the pipeline core (architectural registers, pc/npc
//! window, cache tags, store buffer, cycle counter, statistics,
//! console), main memory (delta-compressed against the loaded program
//! image), the meta-data cache with its resident lines, the shared
//! bus, the shadow register file, the extension's run-time state, the
//! forward FIFO, trap plumbing, and the fault injector's generator
//! positions and event log.
//!
//! The restore contract: build a system *the same way* as the one that
//! was snapshotted — same [`SystemConfig`](crate::SystemConfig), same
//! extension construction, same
//! [`load_program`](crate::System::load_program) call, and the same
//! re-armed [`FaultPlan`](crate::faults::FaultPlan) if one was armed —
//! then call [`System::restore`](crate::System::restore). A run
//! interrupted at any commit boundary and restored this way produces a
//! [`RunResult`](crate::RunResult) bit-identical to the uninterrupted
//! run. The trace sink is *not* part of the snapshot: observability
//! state (metrics series, Chrome spans, the flight ring) restarts
//! empty after a restore.
//!
//! With the `serde` feature the snapshot serializes to JSON
//! ([`Snapshot::to_json`]) and parses back ([`Snapshot::from_json`]),
//! which is what the `flexsim --checkpoint-every` / `--resume` flags
//! ship to disk.

use flexcore_mem::{BusStats, MainMemory, MetaCacheSnapshot};
use flexcore_pipeline::CoreSnapshot;

use crate::ext::MonitorTrap;
use crate::faults::FaultInjectorSnapshot;
use crate::interface::FifoSnapshot;
use crate::stats::{ForwardStats, ResilienceStats};

/// Version tag embedded in every serialized snapshot; restore rejects
/// other versions. Version 2 widened the resilience counter array from
/// 5 to 7 entries (degraded-mode accounting); version 3 widened it to
/// 10 (hot-swap accounting); version 4 widened it to 11 (static
/// check-elision accounting); version 5 encodes every component in the
/// one JSON shape its own `Serialize` writes (statistics as keyed
/// objects, exit reasons and monitor traps with hex PCs).
pub const SNAPSHOT_FORMAT: u32 = 5;

/// Word-level difference of one 4-KB page against the baseline image
/// captured at [`load_program`](crate::System::load_program).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PageDelta {
    /// Base address of the page (index << 12).
    pub base: u32,
    /// `(byte offset within page, word value)` for every aligned word
    /// that differs from the baseline, ascending by offset.
    pub words: Vec<(u16, u32)>,
}

/// Complete checkpointable state of a [`System`](crate::System) (see
/// the [module docs](self) for the restore contract).
#[derive(Clone, Debug, PartialEq)]
pub struct Snapshot {
    /// Serialization format version ([`SNAPSHOT_FORMAT`]).
    pub format: u32,
    /// Name of the extension that was running (restore sanity check).
    pub ext_name: String,
    /// Configured forward-FIFO depth (restore sanity check).
    pub fifo_depth: u64,
    /// The pipeline core, caches, and store buffer.
    pub core: CoreSnapshot,
    /// Main memory as word diffs against the baseline image.
    pub mem_pages: Vec<PageDelta>,
    /// The meta-data cache: tag array plus resident line data.
    pub meta: MetaCacheSnapshot,
    /// Shared-bus busy timeline.
    pub bus_busy_until: u64,
    /// Shared-bus statistics.
    pub bus_stats: BusStats,
    /// The shadow register file's 8-bit tags, `%g0` first.
    pub shadow: Vec<u8>,
    /// Extension run-time state
    /// ([`Extension::snapshot_state`](crate::Extension::snapshot_state)).
    pub ext_state: Vec<u64>,
    /// The forward FIFO's resident entries and counters.
    pub fifo: FifoSnapshot,
    /// Cycle at which the fabric next frees up.
    pub fabric_free_at: u64,
    /// Forwarding statistics.
    pub forward: ForwardStats,
    /// The monitor trap, if one has been raised.
    pub monitor_trap: Option<MonitorTrap>,
    /// In-flight TRAP delivery: `(assert cycle, instret at violation)`.
    pub pending_trap: Option<(u64, u64)>,
    /// Fault-injector generator positions and logs (present exactly
    /// when a plan was armed).
    pub faults: Option<FaultInjectorSnapshot>,
    /// Fault-injection and graceful-degradation counters.
    pub resilience: ResilienceStats,
    /// Whether a fault has wedged the fabric.
    pub fabric_stuck: bool,
}

/// Why a checkpoint could not be restored: a malformed or
/// version-mismatched serialized snapshot, or a snapshot taken from a
/// differently-constructed system.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RestoreError(String);

impl RestoreError {
    pub(crate) fn new(msg: impl Into<String>) -> RestoreError {
        RestoreError(msg.into())
    }
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "checkpoint restore failed: {}", self.0)
    }
}

impl std::error::Error for RestoreError {}

/// Word diffs of `current` against `baseline` (`None` = all-zero
/// memory). Pages only ever accrete, so iterating `current`'s resident
/// pages covers every address that can differ.
pub(crate) fn mem_delta(baseline: Option<&MainMemory>, current: &MainMemory) -> Vec<PageDelta> {
    const ZERO_PAGE: [u8; MainMemory::PAGE_BYTES] = [0; MainMemory::PAGE_BYTES];
    let mut pages = Vec::new();
    for index in current.page_indices() {
        let cur = current.page_bytes(index).expect("index came from page_indices");
        let base = baseline.and_then(|b| b.page_bytes(index)).unwrap_or(&ZERO_PAGE);
        let mut words = Vec::new();
        for off in (0..MainMemory::PAGE_BYTES).step_by(4) {
            if cur[off..off + 4] != base[off..off + 4] {
                let value =
                    u32::from_be_bytes([cur[off], cur[off + 1], cur[off + 2], cur[off + 3]]);
                words.push((off as u16, value));
            }
        }
        if !words.is_empty() {
            pages.push(PageDelta { base: index << 12, words });
        }
    }
    pages
}

/// Applies [`mem_delta`] diffs onto a clone of the baseline.
pub(crate) fn apply_delta(mem: &mut MainMemory, pages: &[PageDelta]) {
    for page in pages {
        for &(off, value) in &page.words {
            mem.write_u32(page.base + u32::from(off), value);
        }
    }
}

#[cfg(feature = "serde")]
mod json {
    //! [`Snapshot`]'s JSON shape, composed from its components' own
    //! codecs (which live beside each component type).

    use serde::{field, object_codec, Deserialize};

    use super::{PageDelta, RestoreError, Snapshot, SNAPSHOT_FORMAT};

    // Changed words are `[offset, value]` pairs.
    object_codec!(PageDelta { base, words });

    object_codec!(Snapshot {
        format,
        ext_name,
        fifo_depth,
        core,
        mem_pages,
        meta,
        bus_busy_until,
        bus_stats,
        shadow,
        ext_state,
        fifo,
        fabric_free_at,
        forward,
        monitor_trap,
        pending_trap,
        faults,
        resilience,
        fabric_stuck,
    });

    impl Snapshot {
        /// Serializes the snapshot to one-line JSON.
        pub fn to_json(&self) -> String {
            serde::to_string(self)
        }

        /// Parses a snapshot serialized by [`Snapshot::to_json`].
        ///
        /// # Errors
        ///
        /// Returns [`RestoreError`] on malformed JSON, a format-version
        /// mismatch, or a missing, mistyped or out-of-range field (the
        /// error names the field's path).
        pub fn from_json(s: &str) -> Result<Snapshot, RestoreError> {
            let v = serde::from_str(s)
                .map_err(|e| RestoreError::new(format!("invalid checkpoint JSON: {e}")))?;
            // The version is checked first, so an older file fails on
            // its version rather than on a reshaped field.
            let format: u32 = field(&v, "format").map_err(|e| RestoreError::new(e.to_string()))?;
            if format != SNAPSHOT_FORMAT {
                return Err(RestoreError::new(format!(
                    "format: unsupported snapshot format {format} (this build reads {SNAPSHOT_FORMAT})"
                )));
            }
            Snapshot::from_value(&v).map_err(|e| RestoreError::new(e.to_string()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_delta_is_empty_against_self() {
        let mut m = MainMemory::new();
        m.write_u32(0x1000, 0xdead_beef);
        m.write_u32(0x8004, 7);
        assert!(mem_delta(Some(&m.clone()), &m).is_empty());
    }

    #[test]
    fn mem_delta_round_trips_through_apply() {
        let mut baseline = MainMemory::new();
        baseline.load(0x1000, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut current = baseline.clone();
        current.write_u32(0x1004, 0xaabb_ccdd); // changed word
        current.write_u32(0x9000, 42); // fresh page
        let delta = mem_delta(Some(&baseline), &current);
        assert_eq!(delta.iter().map(|p| p.words.len()).sum::<usize>(), 2);
        let mut restored = baseline.clone();
        apply_delta(&mut restored, &delta);
        assert_eq!(restored.read_u32(0x1000), current.read_u32(0x1000));
        assert_eq!(restored.read_u32(0x1004), 0xaabb_ccdd);
        assert_eq!(restored.read_u32(0x9000), 42);
    }

    #[test]
    fn mem_delta_with_no_baseline_diffs_against_zero() {
        let mut m = MainMemory::new();
        m.write_u32(0x2000, 9);
        let delta = mem_delta(None, &m);
        assert_eq!(delta.len(), 1);
        assert_eq!(delta[0].words, vec![(0, 9)]);
    }
}
