//! The expected-output oracle: every timed run is also checked against
//! simulated statistics and trial records stored with the benchmark
//! (`expected.json`, rewritten by `perfbench --bless`).

use std::collections::BTreeMap;

use flexcore::RunResult;
use flexcore_pipeline::Core;
use serde::Value;

/// Format version of `expected.json`.
pub const FORMAT: u64 = 1;

/// The simulated statistics of one run that the oracle pins.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RunStats {
    /// Core-clock cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub instret: u64,
    /// Packets forwarded to the fabric.
    pub forwarded: u64,
    /// Commit-stage stall cycles on a full forward FIFO.
    pub fifo_stall_cycles: u64,
    /// Meta-data cache misses (reads and writes).
    pub meta_misses: u64,
    /// Checks skipped through the static elision table.
    pub elided_checks: u64,
    /// What the program printed.
    pub console: String,
}

impl RunStats {
    /// The pinned statistics of a monitored run.
    pub fn of_system(r: &RunResult) -> RunStats {
        RunStats {
            cycles: r.cycles,
            instret: r.instret,
            forwarded: r.forward.forwarded,
            fifo_stall_cycles: r.forward.fifo_stall_cycles,
            meta_misses: r.meta_cache.read_misses + r.meta_cache.write_misses,
            elided_checks: r.resilience.elided_checks,
            console: String::from_utf8_lossy(&r.console).into_owned(),
        }
    }

    /// The pinned statistics of a bare-core run (no fabric, so the
    /// fabric-side counters are zero).
    pub fn of_core(core: &Core) -> RunStats {
        RunStats {
            cycles: core.quiesced_at(),
            instret: core.stats().instret,
            forwarded: 0,
            fifo_stall_cycles: 0,
            meta_misses: 0,
            elided_checks: 0,
            console: String::from_utf8_lossy(core.console()).into_owned(),
        }
    }

    fn to_value(&self) -> Value {
        Value::object()
            .field("cycles", &self.cycles)
            .field("instret", &self.instret)
            .field("forwarded", &self.forwarded)
            .field("fifo_stall_cycles", &self.fifo_stall_cycles)
            .field("meta_misses", &self.meta_misses)
            .field("elided_checks", &self.elided_checks)
            .field("console", &self.console)
            .build()
    }

    fn from_value(v: &Value) -> Result<RunStats, String> {
        let num = |key: &str| v.get(key).and_then(Value::as_u64).ok_or(format!("missing `{key}`"));
        Ok(RunStats {
            cycles: num("cycles")?,
            instret: num("instret")?,
            forwarded: num("forwarded")?,
            fifo_stall_cycles: num("fifo_stall_cycles")?,
            meta_misses: num("meta_misses")?,
            elided_checks: num("elided_checks")?,
            console: v.get("console").and_then(Value::as_str).ok_or("missing `console`")?.into(),
        })
    }

    /// Names the first statistic that differs from `expected`.
    pub fn diff(&self, expected: &RunStats) -> Option<String> {
        let pairs = [
            ("cycles", self.cycles, expected.cycles),
            ("instret", self.instret, expected.instret),
            ("forwarded", self.forwarded, expected.forwarded),
            ("fifo_stall_cycles", self.fifo_stall_cycles, expected.fifo_stall_cycles),
            ("meta_misses", self.meta_misses, expected.meta_misses),
            ("elided_checks", self.elided_checks, expected.elided_checks),
        ];
        for (name, got, want) in pairs {
            if got != want {
                return Some(format!("{name} {got} != expected {want}"));
            }
        }
        (self.console != expected.console).then(|| "console output differs".to_string())
    }
}

/// FNV-1a 64 of a trial record line: what the oracle stores per trial.
pub fn digest(text: &str) -> String {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// The stored expected outputs.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Expected {
    /// Per simulation workload, per run label: the pinned statistics.
    pub runs: BTreeMap<String, BTreeMap<String, RunStats>>,
    /// Per `--seed`, per trial label: the digest of the trial record.
    pub campaign: BTreeMap<u64, BTreeMap<String, String>>,
}

impl Expected {
    /// Parses `expected.json`.
    pub fn parse(text: &str) -> Result<Expected, String> {
        let v = serde::from_str(text).map_err(|e| format!("expected.json: {e}"))?;
        if v.get("format").and_then(Value::as_u64) != Some(FORMAT) {
            return Err(format!("expected.json: format is not {FORMAT}"));
        }
        let object = |v: Option<&Value>, what: &str| match v {
            Some(Value::Object(fields)) => Ok(fields.clone()),
            _ => Err(format!("expected.json: `{what}` is not an object")),
        };
        let mut out = Expected::default();
        for (workload, runs) in object(v.get("runs"), "runs")? {
            let mut cells = BTreeMap::new();
            for (label, stats) in object(Some(&runs), &workload)? {
                let stats = RunStats::from_value(&stats).map_err(|e| format!("{label}: {e}"))?;
                cells.insert(label, stats);
            }
            out.runs.insert(workload, cells);
        }
        for (seed, records) in object(v.get("campaign"), "campaign")? {
            let seed: u64 = seed.parse().map_err(|_| format!("campaign seed `{seed}`"))?;
            let mut digests = BTreeMap::new();
            for (label, d) in object(Some(&records), "campaign seed")? {
                let d = d.as_str().ok_or(format!("{label}: digest is not a string"))?;
                digests.insert(label, d.to_string());
            }
            out.campaign.insert(seed, digests);
        }
        Ok(out)
    }

    /// Renders `expected.json` (one run or trial per line, so a diff
    /// of a re-blessed file names the runs that moved).
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\n\"format\": {FORMAT},\n\"runs\": {{\n");
        for (wi, (workload, cells)) in self.runs.iter().enumerate() {
            s.push_str(&format!("{}: {{\n", serde::to_string(&workload)));
            for (ci, (label, stats)) in cells.iter().enumerate() {
                let sep = if ci + 1 < cells.len() { "," } else { "" };
                let line = serde::to_string(&stats.to_value());
                s.push_str(&format!("  {}: {line}{sep}\n", serde::to_string(&label)));
            }
            s.push_str(if wi + 1 < self.runs.len() { "},\n" } else { "}\n" });
        }
        s.push_str("},\n\"campaign\": {\n");
        for (si, (seed, digests)) in self.campaign.iter().enumerate() {
            s.push_str(&format!("\"{seed}\": {{\n"));
            for (di, (label, d)) in digests.iter().enumerate() {
                let sep = if di + 1 < digests.len() { "," } else { "" };
                s.push_str(&format!("  {}: \"{d}\"{sep}\n", serde::to_string(&label)));
            }
            s.push_str(if si + 1 < self.campaign.len() { "},\n" } else { "}\n" });
        }
        s.push_str("}\n}\n");
        s
    }

    /// The stored statistics of the run `label`, under whichever
    /// workload stores it.
    pub fn find(&self, label: &str) -> Option<&RunStats> {
        self.runs.values().find_map(|cells| cells.get(label))
    }

    /// Checks one simulation run against its stored statistics.
    pub fn check_run(&self, workload: &str, label: &str, got: &RunStats) -> Result<(), String> {
        let want = self
            .runs
            .get(workload)
            .and_then(|cells| cells.get(label))
            .ok_or_else(|| format!("{label}: no expected statistics stored"))?;
        match got.diff(want) {
            Some(d) => Err(format!("{label}: {d}")),
            None => Ok(()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Expected {
        let stats = RunStats {
            cycles: 100,
            instret: 80,
            forwarded: 40,
            fifo_stall_cycles: 3,
            meta_misses: 2,
            elided_checks: 1,
            console: "ok\n".into(),
        };
        let mut e = Expected::default();
        e.runs.entry("table4_sweep".into()).or_default().insert("sha/umc@0.5x".into(), stats);
        e.campaign.entry(0).or_default().insert("sha trial 0".into(), digest("{}"));
        e
    }

    #[test]
    fn round_trips_through_json() {
        let e = sample();
        assert_eq!(Expected::parse(&e.to_json()).expect("parses"), e);
    }

    #[test]
    fn matching_run_passes() {
        let e = sample();
        let got = e.runs["table4_sweep"]["sha/umc@0.5x"].clone();
        assert_eq!(e.check_run("table4_sweep", "sha/umc@0.5x", &got), Ok(()));
    }

    #[test]
    fn every_perturbed_statistic_is_a_failure() {
        let e = sample();
        let good = e.runs["table4_sweep"]["sha/umc@0.5x"].clone();
        let perturbed = [
            RunStats { cycles: good.cycles + 1, ..good.clone() },
            RunStats { instret: good.instret + 1, ..good.clone() },
            RunStats { forwarded: good.forwarded + 1, ..good.clone() },
            RunStats { fifo_stall_cycles: good.fifo_stall_cycles + 1, ..good.clone() },
            RunStats { meta_misses: good.meta_misses + 1, ..good.clone() },
            RunStats { elided_checks: good.elided_checks + 1, ..good.clone() },
            RunStats { console: "bad\n".into(), ..good.clone() },
        ];
        for p in perturbed {
            assert!(e.check_run("table4_sweep", "sha/umc@0.5x", &p).is_err(), "{p:?}");
        }
        assert!(e.check_run("table4_sweep", "sha/dift@0.5x", &good).is_err(), "unknown label");
    }

    #[test]
    fn the_stored_file_parses_and_covers_every_workload() {
        let text = include_str!("../expected.json");
        let e = Expected::parse(text).expect("expected.json parses");
        assert_eq!(e.runs["table4_sweep"].len(), 30);
        assert_eq!(e.runs["elided_heldout"].len(), 27);
        assert!(e.campaign.contains_key(&0), "default seed stored");
    }
}
