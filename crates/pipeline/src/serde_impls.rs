//! JSON codecs for the statistics, exit and snapshot types (behind the
//! `serde` feature). Each type has one shape, decoded by the
//! `Deserialize` impl beside its `Serialize`.

use flexcore_isa::{InstrClass, NUM_INSTR_CLASSES};
use serde::{field, field_with, hex_u32, object_codec, DecodeError, Deserialize, Serialize, Value};

use crate::{CoreSnapshot, CoreStats, ExitReason};

fn class_key(c: InstrClass) -> String {
    format!("{c:?}").to_lowercase()
}

/// Per-class counter arrays serialize as an object keyed by class name,
/// omitting zero entries (32 mostly-zero keys would drown the signal).
pub fn per_class_value(per_class: &[u64; NUM_INSTR_CLASSES]) -> Value {
    let mut obj = Value::object();
    for c in InstrClass::all() {
        let n = per_class[c.index()];
        if n > 0 {
            obj = obj.field(&class_key(c), &n);
        }
    }
    obj.build()
}

/// Decodes [`per_class_value`]'s shape: an absent class counts zero.
///
/// # Errors
///
/// Returns [`DecodeError`] for a key that names no instruction class
/// or a count that is not an unsigned integer.
pub fn per_class_from_value(v: &Value) -> Result<[u64; NUM_INSTR_CLASSES], DecodeError> {
    let Value::Object(entries) = v else {
        return Err(DecodeError::new("expected an object of per-class counts"));
    };
    let mut per_class = [0; NUM_INSTR_CLASSES];
    for (key, n) in entries {
        let c = InstrClass::all()
            .find(|&c| class_key(c) == *key)
            .ok_or_else(|| DecodeError::new("not an instruction class").in_field(key))?;
        per_class[c.index()] = u64::from_value(n).map_err(|e| e.in_field(key))?;
    }
    Ok(per_class)
}

impl Serialize for CoreStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("instret", &self.instret)
            .field("annulled", &self.annulled)
            .field("external_stall_cycles", &self.external_stall_cycles)
            .field("store_stall_cycles", &self.store_stall_cycles)
            .raw("per_class", per_class_value(&self.per_class))
            .build()
    }
}

impl Serialize for ExitReason {
    fn to_value(&self) -> Value {
        let (kind, detail) = match *self {
            ExitReason::Halt(code) => ("halt", Value::object().field("code", &code).build()),
            ExitReason::IllegalInstruction { pc, word } => (
                "illegal_instruction",
                Value::object()
                    .field("pc", &format!("{pc:#010x}"))
                    .field("word", &format!("{word:#010x}"))
                    .build(),
            ),
            ExitReason::MisalignedAccess { pc, addr } => (
                "misaligned_access",
                Value::object()
                    .field("pc", &format!("{pc:#010x}"))
                    .field("addr", &format!("{addr:#010x}"))
                    .build(),
            ),
            ExitReason::DivideByZero { pc } => {
                ("divide_by_zero", Value::object().field("pc", &format!("{pc:#010x}")).build())
            }
            ExitReason::InstructionLimit => ("instruction_limit", Value::object().build()),
            ExitReason::MonitorTrap { pc } => {
                ("monitor_trap", Value::object().field("pc", &format!("{pc:#010x}")).build())
            }
        };
        Value::object().field("kind", &kind).raw("detail", detail).build()
    }
}

impl Deserialize for CoreStats {
    fn from_value(v: &Value) -> Result<CoreStats, DecodeError> {
        Ok(CoreStats {
            instret: field(v, "instret")?,
            annulled: field(v, "annulled")?,
            per_class: field_with(v, "per_class", per_class_from_value)?,
            external_stall_cycles: field(v, "external_stall_cycles")?,
            store_stall_cycles: field(v, "store_stall_cycles")?,
        })
    }
}

impl Deserialize for ExitReason {
    fn from_value(v: &Value) -> Result<ExitReason, DecodeError> {
        let kind: String = field(v, "kind")?;
        let exit = field_with(v, "detail", |d| {
            let hex = |key| field_with(d, key, hex_u32);
            Ok(Some(match kind.as_str() {
                "halt" => ExitReason::Halt(field(d, "code")?),
                "illegal_instruction" => {
                    ExitReason::IllegalInstruction { pc: hex("pc")?, word: hex("word")? }
                }
                "misaligned_access" => {
                    ExitReason::MisalignedAccess { pc: hex("pc")?, addr: hex("addr")? }
                }
                "divide_by_zero" => ExitReason::DivideByZero { pc: hex("pc")? },
                "instruction_limit" => ExitReason::InstructionLimit,
                "monitor_trap" => ExitReason::MonitorTrap { pc: hex("pc")? },
                _ => return Ok(None),
            }))
        })?;
        exit.ok_or_else(|| DecodeError::new(format!("unknown exit kind `{kind}`")).in_field("kind"))
    }
}

object_codec!(CoreSnapshot {
    regs,
    icc,
    pc,
    npc,
    annul_next,
    cycle,
    icache,
    dcache,
    storebuf_pending,
    storebuf_stalls,
    stats,
    console,
    exited,
    commit_slot,
});

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_reason_tags_its_kind() {
        let v = ExitReason::Halt(0).to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("halt"));
        let v = ExitReason::MonitorTrap { pc: 0x40 }.to_value();
        assert_eq!(
            v.get("detail").and_then(|d| d.get("pc")).and_then(Value::as_str),
            Some("0x00000040")
        );
    }

    #[test]
    fn per_class_omits_zeroes() {
        let mut s = CoreStats { instret: 2, ..CoreStats::default() };
        s.per_class[InstrClass::Ld.index()] = 2;
        let v = s.to_value();
        let pc = v.get("per_class").expect("present");
        assert_eq!(pc.get("ld").and_then(Value::as_u64), Some(2));
        assert!(pc.get("st").is_none());
        assert_eq!(CoreStats::from_value(&v), Ok(s));
    }

    #[test]
    fn exit_reasons_round_trip_through_their_tagged_shape() {
        for exit in [
            ExitReason::Halt(3),
            ExitReason::IllegalInstruction { pc: 0x40, word: 0xdead_beef },
            ExitReason::MisalignedAccess { pc: 0x44, addr: 0x1001 },
            ExitReason::DivideByZero { pc: 0x48 },
            ExitReason::InstructionLimit,
            ExitReason::MonitorTrap { pc: 0x4c },
        ] {
            assert_eq!(ExitReason::from_value(&exit.to_value()), Ok(exit));
        }
        let bad = serde::from_str(r#"{"kind":"halt","detail":{"code":-1}}"#).expect("parses");
        let e = ExitReason::from_value(&bad).expect_err("negative exit code");
        assert_eq!(e.to_string(), "detail.code: expected an unsigned integer, found -1");
        let bad = serde::from_str(r#"{"kind":"explode","detail":{}}"#).expect("parses");
        assert!(ExitReason::from_value(&bad).expect_err("unknown kind").path == "kind");
    }

    #[test]
    fn per_class_rejects_unknown_classes() {
        let bad = serde::from_str(r#"{"ld":1,"teleport":2}"#).expect("parses");
        let e = per_class_from_value(&bad).expect_err("no such class");
        assert_eq!(e.to_string(), "teleport: not an instruction class");
    }
}
