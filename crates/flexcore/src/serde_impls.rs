//! JSON codecs for run results, diagnostics and the snapshot
//! components this crate owns (behind the `serde` feature). Each type
//! has one shape, decoded by the `Deserialize` impl beside its
//! `Serialize`.

use flexcore_pipeline::{per_class_from_value, per_class_value};
use serde::{
    deny_unknown_fields, field, field_or, field_with, hex_u32, object_codec, DecodeError,
    Deserialize, Serialize, Value,
};

use crate::error::{DeadlockSnapshot, SimError};
use crate::ext::MonitorTrap;
use crate::faults::{
    BitstreamStrike, FaultAction, FaultEvent, FaultInjectorSnapshot, PACKET_FIELDS,
};
use crate::interface::FifoSnapshot;
use crate::lockstep::{DivergenceReport, LockstepCommit, RegMismatch};
use crate::obs::FlightEntry;
use crate::recovery::RecoveryPolicy;
use crate::stats::{ForwardStats, ResilienceStats, RunResult};

impl Serialize for ForwardStats {
    fn to_value(&self) -> Value {
        Value::object()
            .field("committed", &self.committed)
            .field("forwarded", &self.forwarded)
            .field("dropped", &self.dropped)
            .field("forwarded_fraction", &self.forwarded_fraction())
            .field("fifo_stall_cycles", &self.fifo_stall_cycles)
            .field("peak_occupancy", &self.peak_occupancy)
            .raw("per_class", per_class_value(&self.per_class))
            .build()
    }
}

/// `forwarded_fraction` is derived and is recomputed, not read.
impl Deserialize for ForwardStats {
    fn from_value(v: &Value) -> Result<ForwardStats, DecodeError> {
        Ok(ForwardStats {
            committed: field(v, "committed")?,
            forwarded: field(v, "forwarded")?,
            dropped: field(v, "dropped")?,
            per_class: field_with(v, "per_class", per_class_from_value)?,
            fifo_stall_cycles: field(v, "fifo_stall_cycles")?,
            peak_occupancy: field(v, "peak_occupancy")?,
        })
    }
}

object_codec!(ResilienceStats {
    faults_injected,
    packets_corrupted,
    dropped_overflow,
    bitstream_retries,
    bitstream_reloads,
    unmonitored_commits,
    suppressed_checks,
    swaps_completed,
    swap_drained_packets,
    swap_stall_cycles,
    elided_checks,
});

impl Serialize for MonitorTrap {
    fn to_value(&self) -> Value {
        Value::object()
            .field("pc", &format!("{:#010x}", self.pc))
            .field("reason", &self.reason)
            .build()
    }
}

impl Deserialize for MonitorTrap {
    fn from_value(v: &Value) -> Result<MonitorTrap, DecodeError> {
        Ok(MonitorTrap { pc: field_with(v, "pc", hex_u32)?, reason: field(v, "reason")? })
    }
}

object_codec!(FifoSnapshot { dequeues, stall_cycles, peak_occupancy });

/// Tagged by `kind`, with the variant's own fields beside it; a packet
/// field is its index in the injector's field table.
impl Serialize for FaultAction {
    fn to_value(&self) -> Value {
        let o = Value::object();
        match *self {
            FaultAction::FlipResult { mask } => {
                o.field("kind", &"flip-result").field("mask", &mask)
            }
            FaultAction::FlipRegister { reg, mask } => {
                o.field("kind", &"flip-register").field("reg", &reg).field("mask", &mask)
            }
            FaultAction::FlipMemory { addr, mask } => {
                o.field("kind", &"flip-memory").field("addr", &addr).field("mask", &mask)
            }
            FaultAction::FlipText { addr, mask } => {
                o.field("kind", &"flip-text").field("addr", &addr).field("mask", &mask)
            }
            FaultAction::CorruptPacket { field, mask } => {
                let index = PACKET_FIELDS.iter().position(|&f| f == field);
                let index = index.expect("PACKET_FIELDS lists every packet field");
                o.field("kind", &"corrupt-packet").field("field", &index).field("mask", &mask)
            }
            FaultAction::PoisonMeta { addr, mask } => {
                o.field("kind", &"poison-meta").field("addr", &addr).field("mask", &mask)
            }
            FaultAction::StickFabric => o.field("kind", &"stick-fabric"),
        }
        .build()
    }
}

impl Deserialize for FaultAction {
    fn from_value(v: &Value) -> Result<FaultAction, DecodeError> {
        let kind: String = field(v, "kind")?;
        let mask = || field(v, "mask");
        let addr = || field(v, "addr");
        Ok(match kind.as_str() {
            "flip-result" => FaultAction::FlipResult { mask: mask()? },
            "flip-register" => FaultAction::FlipRegister { reg: field(v, "reg")?, mask: mask()? },
            "flip-memory" => FaultAction::FlipMemory { addr: addr()?, mask: mask()? },
            "flip-text" => FaultAction::FlipText { addr: addr()?, mask: mask()? },
            "corrupt-packet" => {
                let field = field_with(v, "field", |f| {
                    let index = usize::from_value(f)?;
                    PACKET_FIELDS
                        .get(index)
                        .copied()
                        .ok_or_else(|| DecodeError::new(format!("no packet field {index}")))
                })?;
                FaultAction::CorruptPacket { field, mask: mask()? }
            }
            "poison-meta" => FaultAction::PoisonMeta { addr: addr()?, mask: mask()? },
            "stick-fabric" => FaultAction::StickFabric,
            other => {
                return Err(
                    DecodeError::new(format!("unknown fault action `{other}`")).in_field("kind")
                )
            }
        })
    }
}

object_codec!(FaultEvent { at, cycle, action });

object_codec!(BitstreamStrike { attempt, offset, mask });

object_codec!(FaultInjectorSnapshot {
    rng_states,
    exhausted,
    log,
    bitstream_log,
    bitstream_attempts,
});

impl Serialize for FlightEntry {
    fn to_value(&self) -> Value {
        Value::object()
            .field("instret", &self.instret)
            .field("cycle", &self.cycle)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("disassembly", &self.inst.to_string())
            .build()
    }
}

impl Serialize for DeadlockSnapshot {
    fn to_value(&self) -> Value {
        Value::object()
            .field("cycle", &self.cycle)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("instret", &self.instret)
            .field("fifo_occupancy", &self.fifo_occupancy)
            .field("fifo_depth", &self.fifo_depth)
            .field("fabric_free_at", &self.fabric_free_at)
            .field("fabric_stuck", &self.fabric_stuck)
            .field("bus", &self.bus)
            .field("recent", &self.recent)
            .build()
    }
}

impl Serialize for LockstepCommit {
    fn to_value(&self) -> Value {
        Value::object()
            .field("index", &self.index)
            .field("pc", &format!("{:#010x}", self.pc))
            .field("inst_word", &format!("{:#010x}", self.inst_word))
            .build()
    }
}

impl Serialize for RegMismatch {
    fn to_value(&self) -> Value {
        Value::object()
            .field("reg", &u64::from(self.reg))
            .field("dut", &format!("{:#010x}", self.dut))
            .field("golden", &format!("{:#010x}", self.golden))
            .build()
    }
}

impl Serialize for DivergenceReport {
    fn to_value(&self) -> Value {
        Value::object()
            .field("commit_index", &self.commit_index)
            .field("cycle", &self.cycle)
            .field("reason", &self.reason)
            .field("dut_pc", &format!("{:#010x}", self.dut_pc))
            .field("golden_pc", &format!("{:#010x}", self.golden_pc))
            .field("dut_inst_word", &format!("{:#010x}", self.dut_inst_word))
            .field("golden_inst_word", &format!("{:#010x}", self.golden_inst_word))
            .field("reg_mismatches", &self.reg_mismatches)
            .raw(
                "icc_mismatch",
                self.icc_mismatch.map_or(Value::Null, |(dut, golden)| {
                    Value::object()
                        .field("dut", &u64::from(dut))
                        .field("golden", &u64::from(golden))
                        .build()
                }),
            )
            .field("dut_recent", &self.dut_recent)
            .field("golden_recent", &self.golden_recent)
            .field("flight", &self.flight)
            .build()
    }
}

impl Serialize for SimError {
    fn to_value(&self) -> Value {
        match self {
            SimError::Deadlock(snap) => {
                Value::object().field("kind", &"deadlock").field("detail", snap).build()
            }
            SimError::Divergence(report) => {
                Value::object().field("kind", &"divergence").field("detail", &**report).build()
            }
            SimError::CycleBudgetExceeded { budget, cycle, instret } => Value::object()
                .field("kind", &"cycle_budget_exceeded")
                .raw(
                    "detail",
                    Value::object()
                        .field("budget", budget)
                        .field("cycle", cycle)
                        .field("instret", instret)
                        .build(),
                )
                .build(),
            SimError::UnrecoverableCorruption { context, attempts, detail } => Value::object()
                .field("kind", &"unrecoverable_corruption")
                .raw(
                    "detail",
                    Value::object()
                        .field("context", context)
                        .field("attempts", attempts)
                        .field("detail", detail)
                        .build(),
                )
                .build(),
        }
    }
}

impl Serialize for RecoveryPolicy {
    fn to_value(&self) -> Value {
        Value::object()
            .field("checkpoint_every", &self.checkpoint_every)
            .field("max_replays", &self.max_replays)
            .field("max_reload_replays", &self.max_reload_replays)
            .field("allow_degraded", &self.allow_degraded)
            .field("checkpoint_cost_cycles", &self.checkpoint_cost_cycles)
            .build()
    }
}

/// The job-spec shape: an absent field keeps its default, so specs can
/// override selectively; an unknown or mistyped one is an error.
impl Deserialize for RecoveryPolicy {
    fn from_value(v: &Value) -> Result<RecoveryPolicy, DecodeError> {
        deny_unknown_fields(
            v,
            &[
                "checkpoint_every",
                "max_replays",
                "max_reload_replays",
                "allow_degraded",
                "checkpoint_cost_cycles",
            ],
        )?;
        let d = RecoveryPolicy::default();
        Ok(RecoveryPolicy {
            checkpoint_every: field_or(v, "checkpoint_every", d.checkpoint_every)?,
            max_replays: field_or(v, "max_replays", d.max_replays)?,
            max_reload_replays: field_or(v, "max_reload_replays", d.max_reload_replays)?,
            allow_degraded: field_or(v, "allow_degraded", d.allow_degraded)?,
            checkpoint_cost_cycles: field_or(
                v,
                "checkpoint_cost_cycles",
                d.checkpoint_cost_cycles,
            )?,
        })
    }
}

impl Serialize for RunResult {
    fn to_value(&self) -> Value {
        Value::object()
            .field("exit", &self.exit)
            .field("monitor_trap", &self.monitor_trap)
            .field("trap_skid", &self.trap_skid)
            .field("cycles", &self.cycles)
            .field("instret", &self.instret)
            .field("cpi", &self.cpi())
            .field("forward", &self.forward)
            .field("core", &self.core)
            .field("icache", &self.icache)
            .field("dcache", &self.dcache)
            .field("meta_cache", &self.meta_cache)
            .field("bus", &self.bus)
            .field("resilience", &self.resilience)
            .field("console", &String::from_utf8_lossy(&self.console).into_owned())
            .field("flight", &self.flight)
            // Host-time measurement fields all carry the `host_` prefix
            // so determinism gates can filter them (`grep -v '"host_'`):
            // wall-clock legitimately differs between identical runs.
            .field("host_ns", &self.host_ns)
            .field("host_sim_insns_per_sec", &self.sim_insns_per_sec())
            .field("host_sim_cycles_per_sec", &self.sim_cycles_per_sec())
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_stats_round_trip_key_counters() {
        let s =
            ForwardStats { committed: 10, forwarded: 4, peak_occupancy: 3, ..Default::default() };
        let v = s.to_value();
        assert_eq!(v.get("committed").and_then(Value::as_u64), Some(10));
        assert_eq!(v.get("peak_occupancy").and_then(Value::as_u64), Some(3));
        assert_eq!(v.get("forwarded_fraction").and_then(Value::as_f64), Some(0.4));
        assert_eq!(ForwardStats::from_value(&v), Ok(s));
    }

    #[test]
    fn fault_actions_round_trip_and_range_check() {
        use crate::faults::PacketField;
        for action in [
            FaultAction::FlipResult { mask: 1 },
            FaultAction::FlipRegister { reg: 9, mask: 2 },
            FaultAction::FlipMemory { addr: 0x100, mask: 4 },
            FaultAction::FlipText { addr: 0x104, mask: 8 },
            FaultAction::CorruptPacket { field: PacketField::StoreValue, mask: 16 },
            FaultAction::PoisonMeta { addr: 0x4000_0000, mask: 32 },
            FaultAction::StickFabric,
        ] {
            assert_eq!(FaultAction::from_value(&action.to_value()), Ok(action));
        }
        let bad = serde::from_str(r#"{"kind":"corrupt-packet","field":5,"mask":1}"#).unwrap();
        let e = FaultAction::from_value(&bad).expect_err("no sixth packet field");
        assert_eq!(e.to_string(), "field: no packet field 5");
    }

    #[test]
    fn recovery_policy_decodes_overrides_and_rejects_bad_fields() {
        let v = serde::from_str(r#"{"max_replays":9}"#).unwrap();
        let p = RecoveryPolicy::from_value(&v).expect("decodes");
        assert_eq!(p, RecoveryPolicy { max_replays: 9, ..RecoveryPolicy::default() });
        assert_eq!(RecoveryPolicy::from_value(&p.to_value()), Ok(p));
        for (json, path) in [
            (r#"{"max_replays":4294967297}"#, "max_replays"),
            (r#"{"allow_degraded":"yes"}"#, "allow_degraded"),
            (r#"{"max_replay":3}"#, "max_replay"),
        ] {
            let e = RecoveryPolicy::from_value(&serde::from_str(json).unwrap()).expect_err(json);
            assert_eq!(e.path, path, "{json}: {e}");
        }
    }

    #[test]
    fn sim_error_serializes_tagged() {
        let e = SimError::CycleBudgetExceeded { budget: 10, cycle: 11, instret: 2 };
        let v = e.to_value();
        assert_eq!(v.get("kind").and_then(Value::as_str), Some("cycle_budget_exceeded"));
        let json = serde::to_string(&v);
        assert!(serde::from_str(&json).is_ok(), "emitted JSON parses");
    }
}
