//! JSON codecs for the statistics and snapshot types (behind the
//! `serde` feature). Each type has one shape, decoded by the
//! `Deserialize` impl beside its `Serialize`.

use serde::{field, object_codec, DecodeError, Deserialize, Serialize, Value};

use crate::{BusStats, CacheSnapshot, CacheStats, LineState, MetaCacheSnapshot};

impl Serialize for CacheStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("read_hits", &self.read_hits)
            .field("read_misses", &self.read_misses)
            .field("write_hits", &self.write_hits)
            .field("write_misses", &self.write_misses)
            .field("writebacks", &self.writebacks)
            .field("accesses", &self.accesses())
            .field("miss_ratio", &self.miss_ratio())
            .build()
    }
}

/// The derived `accesses` and `miss_ratio` are recomputed, not read.
impl Deserialize for CacheStats {
    fn from_value(v: &Value) -> Result<CacheStats, DecodeError> {
        Ok(CacheStats {
            read_hits: field(v, "read_hits")?,
            read_misses: field(v, "read_misses")?,
            write_hits: field(v, "write_hits")?,
            write_misses: field(v, "write_misses")?,
            writebacks: field(v, "writebacks")?,
        })
    }
}

object_codec!(BusStats {
    busy_cycles,
    core_transfers,
    fabric_transfers,
    core_wait_cycles,
    fabric_wait_cycles,
});

/// A line is the array `[tag, valid, dirty, lru]`: a snapshot holds
/// thousands of them, so they carry no key names.
impl Serialize for LineState {
    fn to_value(&self) -> Value {
        (self.tag, self.valid, self.dirty, self.lru).to_value()
    }
}

impl Deserialize for LineState {
    fn from_value(v: &Value) -> Result<LineState, DecodeError> {
        let (tag, valid, dirty, lru) = Deserialize::from_value(v)?;
        Ok(LineState { tag, valid, dirty, lru })
    }
}

object_codec!(CacheSnapshot { lines, stamp, stats });

// Resident meta lines are `[base, [bytes...]]` pairs.
object_codec!(MetaCacheSnapshot { tags, lines });

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_stats_serialize_with_derived_fields() {
        let s = CacheStats { read_hits: 3, read_misses: 1, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("accesses").and_then(Value::as_u64), Some(4));
        assert_eq!(v.get("miss_ratio").and_then(Value::as_f64), Some(0.25));
        assert_eq!(CacheStats::from_value(&v), Ok(s));
    }

    #[test]
    fn snapshots_round_trip_and_reject_mistyped_lines() {
        let line = LineState { tag: 7, valid: true, dirty: false, lru: 3 };
        let snap = MetaCacheSnapshot {
            tags: CacheSnapshot { lines: vec![line], stamp: 4, stats: CacheStats::default() },
            lines: vec![(0x4000_0000, vec![1, 2, 255])],
        };
        let v = serde::from_str(&serde::to_string(&snap)).expect("parses");
        assert_eq!(MetaCacheSnapshot::from_value(&v), Ok(snap));

        let bad = serde::from_str(r#"[7,1,false,3]"#).expect("parses");
        let e = LineState::from_value(&bad).expect_err("valid must be a boolean");
        assert_eq!(e.to_string(), "[1]: expected a boolean, found 1");
    }
}
