//! Static check-elision tables.
//!
//! The static analyses in `flexcore-analysis` can prove some dynamic
//! monitor checks redundant before a single cycle is simulated: a load
//! whose target is initialized on every path never trips UMC, an ALU
//! op over provably-untainted sources never propagates taint, a direct
//! branch whose edge is in the CFI table never violates it. An
//! [`ElisionTable`] carries those proofs to the runtime as a per-PC
//! bitmask of which extension checks are statically discharged; the
//! [`System`](crate::System) consults it on the commit path and skips
//! enqueueing a forwarded packet when the running extension agrees
//! (see [`Extension::check_elidable`](crate::Extension::check_elidable))
//! that the packet's check is covered.
//!
//! The safety contract is end-to-end bit-exactness: an elided run must
//! produce the same trap verdict, architectural state, and console
//! output as the full run. The table itself is untrusted input — each
//! extension re-validates per packet (the CFI monitor, for example,
//! re-checks the edge against its own loaded table), so a stale or
//! corrupted table can only cost performance, never soundness.

use std::collections::BTreeMap;

/// Version tag embedded in serialized elision tables; loading rejects
/// other versions.
pub const ELISION_FORMAT: u32 = 1;

/// Elision-table bit: the UMC initialized-load check is discharged at
/// this PC.
pub const ELIDE_UMC: u8 = 1 << 0;

/// Elision-table bit: the DIFT taint-propagation/check work is
/// discharged at this PC.
pub const ELIDE_DIFT: u8 = 1 << 1;

/// Elision-table bit: the CFI edge check is discharged at this PC.
pub const ELIDE_CFI: u8 = 1 << 2;

/// Per-PC bitmask of statically discharged monitor checks.
///
/// Produced by `flexcheck --taint --emit-elision`, consumed by
/// [`System::set_elision`](crate::System::set_elision) (the `flexsim
/// --elide` flag). PCs absent from the table elide nothing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ElisionTable {
    masks: BTreeMap<u32, u8>,
}

impl ElisionTable {
    /// An empty table (no check is ever elided).
    pub fn new() -> ElisionTable {
        ElisionTable::default()
    }

    /// ORs `bits` into the mask at `pc` (a zero `bits` is a no-op).
    pub fn set(&mut self, pc: u32, bits: u8) {
        if bits != 0 {
            *self.masks.entry(pc).or_insert(0) |= bits;
        }
    }

    /// The elision mask at `pc` (0 when the PC is absent).
    pub fn mask(&self, pc: u32) -> u8 {
        self.masks.get(&pc).copied().unwrap_or(0)
    }

    /// Number of PCs with a nonzero mask.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Whether the table elides nothing.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// `(pc, mask)` entries in ascending PC order.
    pub fn entries(&self) -> impl Iterator<Item = (u32, u8)> + '_ {
        self.masks.iter().map(|(&pc, &m)| (pc, m))
    }

    /// PCs whose mask contains all of `bits`.
    pub fn pcs_with(&self, bits: u8) -> impl Iterator<Item = u32> + '_ {
        self.masks.iter().filter(move |(_, &m)| m & bits == bits).map(|(&pc, _)| pc)
    }
}

#[cfg(feature = "serde")]
mod json {
    use serde::{field, Value};

    use super::{ElisionTable, ELISION_FORMAT};

    /// Entries are `[pc, mask]` pairs, ascending by PC.
    impl serde::Serialize for ElisionTable {
        fn to_value(&self) -> Value {
            let entries: Vec<(u32, u8)> = self.entries().collect();
            Value::object().field("format", &ELISION_FORMAT).field("entries", &entries).build()
        }
    }

    impl ElisionTable {
        /// Serializes the table to one-line JSON.
        pub fn to_json(&self) -> String {
            serde::to_string(self)
        }

        /// Parses a table serialized by [`ElisionTable::to_json`].
        ///
        /// # Errors
        ///
        /// Returns a message on malformed JSON, a missing, mistyped or
        /// out-of-range field, or a format-version mismatch.
        pub fn from_json(s: &str) -> Result<ElisionTable, String> {
            let v = serde::from_str(s).map_err(|e| format!("invalid elision JSON: {e}"))?;
            let format: u64 = field(&v, "format").map_err(|e| format!("elision table: {e}"))?;
            if format != u64::from(ELISION_FORMAT) {
                return Err(format!(
                    "unsupported elision format {format} (this build reads {ELISION_FORMAT})"
                ));
            }
            let entries: Vec<(u32, u8)> =
                field(&v, "entries").map_err(|e| format!("elision table: {e}"))?;
            let mut table = ElisionTable::new();
            for (pc, mask) in entries {
                table.set(pc, mask);
            }
            Ok(table)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_ors_and_zero_is_noop() {
        let mut t = ElisionTable::new();
        t.set(0x1000, ELIDE_UMC);
        t.set(0x1000, ELIDE_DIFT);
        t.set(0x1004, 0);
        assert_eq!(t.mask(0x1000), ELIDE_UMC | ELIDE_DIFT);
        assert_eq!(t.mask(0x1004), 0);
        assert_eq!(t.len(), 1);
        assert_eq!(t.pcs_with(ELIDE_UMC).collect::<Vec<_>>(), vec![0x1000]);
        assert_eq!(t.pcs_with(ELIDE_CFI).count(), 0);
    }

    #[test]
    fn entries_ascend_by_pc() {
        let mut t = ElisionTable::new();
        t.set(0x2000, ELIDE_CFI);
        t.set(0x1000, ELIDE_UMC);
        let e: Vec<_> = t.entries().collect();
        assert_eq!(e, vec![(0x1000, ELIDE_UMC), (0x2000, ELIDE_CFI)]);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_round_trip() {
        let mut t = ElisionTable::new();
        t.set(0x1000, ELIDE_UMC | ELIDE_DIFT);
        t.set(0x1010, ELIDE_CFI);
        let back = ElisionTable::from_json(&t.to_json()).unwrap();
        assert_eq!(back, t);
    }

    #[cfg(feature = "serde")]
    #[test]
    fn json_rejects_bad_format() {
        assert!(ElisionTable::from_json("{\"format\":99,\"entries\":[]}").is_err());
        assert!(ElisionTable::from_json("not json").is_err());
    }
}
