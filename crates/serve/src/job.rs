//! Campaign jobs: what a client submits to `flexserve`.
//!
//! A [`JobSpec`] describes one fault campaign — the sweep parameters,
//! the workload set, and the recovery policy — and deterministically
//! expands into the same trial list `faultsweep` would run (via
//! [`flexcore_bench::trial`]). Jobs are keyed by a campaign hash
//! ([`JobId`]) over the work-defining fields, so a resubmitted or
//! resumed campaign maps to the same journal file, and two jobs that
//! would do identical work collide as duplicates at admission.

use flexcore::recovery::RecoveryPolicy;
use flexcore_bench::trial::{
    campaign1_trials, reconfig_trials, sweep_trials, CampaignSpec, TrialSpec,
};
use flexcore_workloads::Workload;
use serde::{deny_unknown_fields, field_or, DecodeError, Deserialize, Value};

/// Stable identity of a campaign: an FNV-1a hash of the canonical
/// work-defining spec fields (everything except `name` and
/// `priority`, which affect labeling and scheduling but not the work).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct JobId(pub u64);

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Why a [`JobSpec`] could not be interpreted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum JobSpecError {
    /// A workload name that is not in the reproduction's kernel set.
    UnknownWorkload(String),
    /// The spec asked for an empty workload set or zero trials.
    EmptyCampaign,
    /// A spec file/record that does not decode.
    Malformed(String),
}

impl std::fmt::Display for JobSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JobSpecError::UnknownWorkload(w) => {
                let known: Vec<&str> = known_workloads().iter().map(|w| w.name()).collect();
                write!(f, "unknown workload `{w}` (known: {})", known.join(", "))
            }
            JobSpecError::EmptyCampaign => {
                write!(f, "campaign would run zero trials (empty workload set or trials = 0)")
            }
            JobSpecError::Malformed(detail) => write!(f, "malformed job spec: {detail}"),
        }
    }
}

impl std::error::Error for JobSpecError {}

impl From<DecodeError> for JobSpecError {
    fn from(e: DecodeError) -> JobSpecError {
        JobSpecError::Malformed(e.to_string())
    }
}

fn known_workloads() -> Vec<Workload> {
    let mut all = Workload::all();
    all.extend(Workload::extra());
    all
}

/// One fault-campaign job: the unit of admission, scheduling, and
/// journaling.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpec {
    /// Human-readable label (not part of the campaign hash).
    pub name: String,
    /// Campaign seed — every trial seed derives from it.
    pub seed: u64,
    /// Campaign-1 trials per workload (single-bit ALU flips under SEC).
    pub trials: usize,
    /// Workload names (resolved against the reproduction kernel set).
    pub workloads: Vec<String>,
    /// Step the ISA-level golden model on every trial.
    pub lockstep: bool,
    /// Run campaign-1 trials under the rollback-and-replay supervisor
    /// with Masked/Recovered/SDC/DUE triage.
    pub recover: bool,
    /// Also run the rate × target sweep (campaigns 2–3).
    pub sweep: bool,
    /// Also run the reconfig-window campaign: per workload, `trials`
    /// UMC → CFI hot-swaps with bitstream faults striking inside the
    /// swap window (requires `recover` for triage; without it the
    /// trials still run but exhaustion surfaces as an error outcome).
    pub reconfig: bool,
    /// Scheduling priority: higher runs first, and under queue
    /// overload the lowest-priority queued job is shed first.
    pub priority: u8,
    /// Supervisor knobs for `recover` trials.
    pub policy: RecoveryPolicy,
}

impl Default for JobSpec {
    fn default() -> JobSpec {
        JobSpec {
            name: "campaign".to_string(),
            seed: 0xf1ec,
            trials: 8,
            workloads: vec!["sha".to_string(), "bitcount".to_string()],
            lockstep: false,
            recover: false,
            sweep: false,
            reconfig: false,
            priority: 1,
            policy: RecoveryPolicy::default(),
        }
    }
}

impl JobSpec {
    /// The canonical work-defining serialization — the campaign-hash
    /// preimage and the string journal headers are checked against on
    /// resume. Excludes `name` and `priority` deliberately: renaming or
    /// reprioritizing a campaign must not orphan its journal.
    pub fn canonical(&self) -> String {
        let mut v = Value::object()
            .field("seed", &self.seed)
            .field("trials", &(self.trials as u64))
            .field("workloads", &self.workloads)
            .field("lockstep", &self.lockstep)
            .field("recover", &self.recover)
            .field("sweep", &self.sweep);
        // Stamped only when set, so every pre-reconfig campaign keeps
        // its hash (and therefore its journal file) across the upgrade.
        if self.reconfig {
            v = v.field("reconfig", &true);
        }
        serde::to_string(&v.field("policy", &self.policy).build())
    }

    /// The campaign hash keying this job's queue slot and journal file.
    pub fn id(&self) -> JobId {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for b in self.canonical().as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        JobId(h)
    }

    /// The journal header record stamped as line 1 of this campaign's
    /// journal.
    pub fn header(&self) -> Value {
        Value::object()
            .field("flexserve", &1u64)
            .field("campaign", &self.id().to_string())
            .field("name", &self.name)
            .field("spec", &self.canonical())
            .build()
    }

    /// Serializes the full spec (spec-file shape; includes `name` and
    /// `priority`).
    pub fn to_value(&self) -> Value {
        Value::object()
            .field("name", &self.name)
            .field("seed", &self.seed)
            .field("trials", &(self.trials as u64))
            .field("workloads", &self.workloads)
            .field("lockstep", &self.lockstep)
            .field("recover", &self.recover)
            .field("sweep", &self.sweep)
            .field("reconfig", &self.reconfig)
            .field("priority", &(u64::from(self.priority)))
            .field("policy", &self.policy)
            .build()
    }

    /// Parses a JSON spec file's contents.
    pub fn from_json(text: &str) -> Result<JobSpec, JobSpecError> {
        let v = serde::from_str(text).map_err(|e| JobSpecError::Malformed(e.to_string()))?;
        Ok(JobSpec::from_value(&v)?)
    }

    /// Resolves the workload names against the kernel set.
    pub fn resolve_workloads(&self) -> Result<Vec<Workload>, JobSpecError> {
        let known = known_workloads();
        let mut out = Vec::with_capacity(self.workloads.len());
        for name in &self.workloads {
            match known.iter().find(|w| w.name() == name.as_str()) {
                Some(w) => out.push(*w),
                None => return Err(JobSpecError::UnknownWorkload(name.clone())),
            }
        }
        Ok(out)
    }

    /// Expands the job into its full trial list — campaign-1 ALU flips
    /// for every workload, then (with `sweep`) the rate × target
    /// sweep, then (with `reconfig`) the reconfig-window hot-swap
    /// trials — in exactly the order `faultsweep` runs and records
    /// them, so a merged `flexserve` trial log diffs clean against a
    /// `faultsweep` progress log.
    pub fn trial_specs(&self) -> Result<Vec<TrialSpec>, JobSpecError> {
        let workloads = self.resolve_workloads()?;
        if workloads.is_empty() || self.trials == 0 {
            return Err(JobSpecError::EmptyCampaign);
        }
        let cspec = CampaignSpec {
            seed: self.seed,
            trials: self.trials,
            lockstep: self.lockstep,
            recover: self.recover,
            policy: self.policy,
        };
        let mut trials = campaign1_trials(&cspec, &workloads);
        if self.sweep {
            trials.extend(sweep_trials(&cspec, &workloads));
        }
        if self.reconfig {
            trials.extend(reconfig_trials(&cspec, &workloads));
        }
        Ok(trials)
    }
}

/// The spec-file shape ([`JobSpec::to_value`]): an absent field keeps
/// its default; an unknown key, a mistyped or out-of-range value, or an
/// unknown workload name is an error naming the field.
impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<JobSpec, DecodeError> {
        deny_unknown_fields(
            v,
            &[
                "name",
                "seed",
                "trials",
                "workloads",
                "lockstep",
                "recover",
                "sweep",
                "reconfig",
                "priority",
                "policy",
            ],
        )?;
        let d = JobSpec::default();
        let spec = JobSpec {
            name: field_or(v, "name", d.name)?,
            seed: field_or(v, "seed", d.seed)?,
            trials: field_or(v, "trials", d.trials)?,
            workloads: field_or(v, "workloads", d.workloads)?,
            lockstep: field_or(v, "lockstep", d.lockstep)?,
            recover: field_or(v, "recover", d.recover)?,
            sweep: field_or(v, "sweep", d.sweep)?,
            reconfig: field_or(v, "reconfig", d.reconfig)?,
            priority: field_or(v, "priority", d.priority)?,
            policy: field_or(v, "policy", d.policy)?,
        };
        if let Err(e) = spec.resolve_workloads() {
            return Err(DecodeError::new(e.to_string()).in_field("workloads"));
        }
        Ok(spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn campaign_hash_ignores_name_and_priority_only() {
        let a = JobSpec::default();
        let renamed = JobSpec { name: "other".into(), priority: 7, ..a.clone() };
        assert_eq!(a.id(), renamed.id(), "name/priority are not work-defining");

        let reseeded = JobSpec { seed: 1, ..a.clone() };
        assert_ne!(a.id(), reseeded.id());
        let resized = JobSpec { trials: a.trials + 1, ..a.clone() };
        assert_ne!(a.id(), resized.id());
        let swept = JobSpec { sweep: true, ..a.clone() };
        assert_ne!(a.id(), swept.id());
        let reconfigured = JobSpec { reconfig: true, ..a.clone() };
        assert_ne!(a.id(), reconfigured.id());
        // The reconfig stamp is append-only: a job that does not ask
        // for it serializes exactly as it did before the field existed,
        // so pre-upgrade journals still match their campaign hash.
        assert!(!a.canonical().contains("reconfig"));
        let repoliced = JobSpec {
            policy: RecoveryPolicy { max_replays: 9, ..RecoveryPolicy::default() },
            ..a.clone()
        };
        assert_ne!(a.id(), repoliced.id());
    }

    #[test]
    fn spec_roundtrips_through_json() {
        let spec = JobSpec {
            name: "soak".into(),
            seed: 0xabcd,
            trials: 12,
            workloads: vec!["bitcount".into()],
            lockstep: true,
            recover: true,
            sweep: true,
            reconfig: true,
            priority: 3,
            policy: RecoveryPolicy { checkpoint_every: 512, ..RecoveryPolicy::default() },
        };
        let json = serde::to_string(&spec.to_value());
        let back = JobSpec::from_json(&json).expect("roundtrips");
        assert_eq!(back, spec);
        assert_eq!(back.id(), spec.id());
    }

    #[test]
    fn malformed_specs_are_refused_naming_the_field() {
        for (json, field) in [
            (r#"{"priority": 300}"#, "priority"),
            (r#"{"trials": "abc"}"#, "trials"),
            (r#"{"lockstep": "yes"}"#, "lockstep"),
            (r#"{"policy": {"max_replays": 4294967297}}"#, "policy.max_replays"),
            (r#"{"trails": 40}"#, "trails"),
            (r#"{"workloads": ["sha", 7]}"#, "workloads[1]"),
            (r#"{"workloads": ["doom"]}"#, "workloads"),
        ] {
            match JobSpec::from_json(json) {
                Err(JobSpecError::Malformed(detail)) => {
                    assert!(detail.starts_with(&format!("{field}: ")), "{json}: {detail}")
                }
                other => panic!("{json} decoded to {other:?}"),
            }
        }
        let spec = JobSpec::from_json(r#"{"priority": 255, "policy": {}}"#).expect("in range");
        assert_eq!(spec, JobSpec { priority: 255, ..JobSpec::default() });
    }

    #[test]
    fn unknown_workloads_are_a_typed_error() {
        let spec = JobSpec { workloads: vec!["doom".into()], ..JobSpec::default() };
        let err = spec.trial_specs().expect_err("doom is not a kernel");
        assert_eq!(err, JobSpecError::UnknownWorkload("doom".into()));
        assert!(err.to_string().contains("sha"), "error lists the known kernels: {err}");
    }

    #[test]
    fn trial_expansion_matches_the_faultsweep_shape() {
        let spec = JobSpec { trials: 2, sweep: true, ..JobSpec::default() };
        let trials = spec.trial_specs().expect("expands");
        // campaign-1: 2 trials × 2 workloads; sweep: 2 × 4 ext × 4
        // targets × 4 rates.
        assert_eq!(trials.len(), 4 + 128);
        assert_eq!(trials[0].label, "sha trial 0");
        assert_eq!(trials[2].label, "bitcount trial 0");
        assert_eq!(trials[4].label, "sha UMC result rate 0");
        let labels: std::collections::HashSet<&str> =
            trials.iter().map(|t| t.label.as_str()).collect();
        assert_eq!(labels.len(), trials.len(), "labels are unique resume keys");
    }

    #[test]
    fn reconfig_jobs_append_the_swap_window_trials() {
        let spec = JobSpec { trials: 2, reconfig: true, recover: true, ..JobSpec::default() };
        let trials = spec.trial_specs().expect("expands");
        // campaign-1: 2 × 2 workloads; reconfig: 2 × 2 workloads.
        assert_eq!(trials.len(), 4 + 4);
        assert_eq!(trials[4].label, "sha swap 0");
        assert_eq!(trials[6].label, "bitcount swap 0");
        assert!(trials[4].recover, "swap trials inherit the job's recovery setting");
    }

    #[test]
    fn empty_campaigns_are_refused() {
        let spec = JobSpec { trials: 0, ..JobSpec::default() };
        assert_eq!(spec.trial_specs().expect_err("zero trials"), JobSpecError::EmptyCampaign);
        let spec = JobSpec { workloads: Vec::new(), ..JobSpec::default() };
        assert_eq!(spec.trial_specs().expect_err("no workloads"), JobSpecError::EmptyCampaign);
    }
}
