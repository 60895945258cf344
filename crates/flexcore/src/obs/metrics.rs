//! Epoch-bucketed metrics sampling.
//!
//! Every [`TraceEvent`] is binned into a fixed-width window of core
//! cycles (the *epoch*, e.g. 1000 cycles). The result is a time series
//! of exactly the quantities [`RunResult`](crate::RunResult) reports as
//! end-of-run aggregates — and the two views are *exactly* consistent:
//! summing (or max-ing, for occupancy) the epochs reproduces the
//! aggregate counters bit-for-bit. [`MetricsRecorder::check_against`]
//! enforces the invariant; the `observability` integration tests run it
//! on all six workloads.

use flexcore_isa::NUM_INSTR_CLASSES;

use crate::obs::{TraceEvent, TraceSink};
use crate::stats::RunResult;

/// Hard ceiling on the number of epochs a recorder allocates. Events
/// past the ceiling fold into the last epoch (and mark the series
/// truncated) instead of growing without bound — a backstop against
/// pathological schedules, not something healthy runs hit (at the
/// default 1000-cycle epoch the ceiling covers > 10^9 cycles).
pub const MAX_EPOCHS: usize = 1 << 20;

/// Counters accumulated over one epoch.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EpochSample {
    /// Instructions committed in this epoch.
    pub committed: u64,
    /// Packets forwarded to the fabric.
    pub forwarded: u64,
    /// Packets dropped (either drop path).
    pub dropped: u64,
    /// Forwarded packets per instruction class.
    pub per_class: [u64; NUM_INSTR_CLASSES],
    /// Commit-stall cycles that began in this epoch.
    pub fifo_stall_cycles: u64,
    /// FIFO occupancy samples taken (one per enqueue).
    pub occ_samples: u64,
    /// Sum of occupancy samples (for the mean).
    pub occ_sum: u64,
    /// Highest occupancy sample.
    pub occ_peak: u64,
    /// Lowest occupancy sample (`u64::MAX` until the first sample; use
    /// [`EpochSample::fifo_occ_min`]).
    pub occ_min: u64,
    /// Cycles the fabric spent processing packets whose span started in
    /// this epoch.
    pub fabric_busy_cycles: u64,
    /// Meta-data cache misses.
    pub meta_misses: u64,
    /// Shared-bus transfers granted to the fabric.
    pub bus_fabric_transfers: u64,
    /// Cycles fabric bus requests waited for the bus.
    pub bus_fabric_wait_cycles: u64,
    /// Faults the injector applied.
    pub faults: u64,
    /// Monitor traps raised.
    pub traps: u64,
}

impl Default for EpochSample {
    fn default() -> EpochSample {
        EpochSample {
            committed: 0,
            forwarded: 0,
            dropped: 0,
            per_class: [0; NUM_INSTR_CLASSES],
            fifo_stall_cycles: 0,
            occ_samples: 0,
            occ_sum: 0,
            occ_peak: 0,
            occ_min: u64::MAX,
            fabric_busy_cycles: 0,
            meta_misses: 0,
            bus_fabric_transfers: 0,
            bus_fabric_wait_cycles: 0,
            faults: 0,
            traps: 0,
        }
    }
}

impl EpochSample {
    /// Cycles per committed instruction over a window of
    /// `epoch_cycles`; `None` when nothing committed.
    pub fn cpi(&self, epoch_cycles: u64) -> Option<f64> {
        (self.committed > 0).then(|| epoch_cycles as f64 / self.committed as f64)
    }

    /// Lowest FIFO occupancy sampled, if any enqueue happened.
    pub fn fifo_occ_min(&self) -> Option<u64> {
        (self.occ_samples > 0).then_some(self.occ_min)
    }

    /// Mean FIFO occupancy over the epoch's samples, if any.
    pub fn fifo_occ_mean(&self) -> Option<f64> {
        (self.occ_samples > 0).then(|| self.occ_sum as f64 / self.occ_samples as f64)
    }

    fn absorb(&mut self, other: &EpochSample) {
        self.committed += other.committed;
        self.forwarded += other.forwarded;
        self.dropped += other.dropped;
        for (a, b) in self.per_class.iter_mut().zip(&other.per_class) {
            *a += b;
        }
        self.fifo_stall_cycles += other.fifo_stall_cycles;
        self.occ_samples += other.occ_samples;
        self.occ_sum += other.occ_sum;
        self.occ_peak = self.occ_peak.max(other.occ_peak);
        self.occ_min = self.occ_min.min(other.occ_min);
        self.fabric_busy_cycles += other.fabric_busy_cycles;
        self.meta_misses += other.meta_misses;
        self.bus_fabric_transfers += other.bus_fabric_transfers;
        self.bus_fabric_wait_cycles += other.bus_fabric_wait_cycles;
        self.faults += other.faults;
        self.traps += other.traps;
    }
}

/// The epoch-bucketed metrics sampler (a [`TraceSink`]).
#[derive(Clone, Debug)]
pub struct MetricsRecorder {
    epoch_cycles: u64,
    epochs: Vec<EpochSample>,
    truncated: bool,
}

impl MetricsRecorder {
    /// The default epoch width in core cycles.
    pub const DEFAULT_EPOCH_CYCLES: u64 = 1000;

    /// Creates a sampler with the given epoch width (clamped to ≥ 1).
    pub fn new(epoch_cycles: u64) -> MetricsRecorder {
        MetricsRecorder { epoch_cycles: epoch_cycles.max(1), epochs: Vec::new(), truncated: false }
    }

    /// The configured epoch width in core cycles.
    pub fn epoch_cycles(&self) -> u64 {
        self.epoch_cycles
    }

    /// The sampled epochs, in time order. Epoch `i` covers cycles
    /// `[i * epoch_cycles, (i + 1) * epoch_cycles)`.
    pub fn epochs(&self) -> &[EpochSample] {
        &self.epochs
    }

    /// Whether any event folded into the final epoch because the
    /// [`MAX_EPOCHS`] ceiling was hit.
    pub fn truncated(&self) -> bool {
        self.truncated
    }

    /// Sum (max, for occupancy) of every epoch — the aggregate view the
    /// consistency invariant compares against [`RunResult`].
    pub fn totals(&self) -> EpochSample {
        let mut total = EpochSample::default();
        for e in &self.epochs {
            total.absorb(e);
        }
        total
    }

    fn bucket(&mut self, cycle: u64) -> &mut EpochSample {
        let raw = (cycle / self.epoch_cycles) as usize;
        let idx = raw.min(MAX_EPOCHS - 1);
        if idx != raw {
            self.truncated = true;
        }
        if self.epochs.len() <= idx {
            self.epochs.resize_with(idx + 1, EpochSample::default);
        }
        &mut self.epochs[idx]
    }

    /// Checks the exact-consistency invariants against a finished run's
    /// aggregates.
    ///
    /// # Errors
    ///
    /// Returns a description of the first mismatching counter.
    pub fn check_against(&self, r: &RunResult) -> Result<(), String> {
        let t = self.totals();
        let checks: [(&str, u64, u64); 8] = [
            ("committed", t.committed, r.forward.committed),
            ("forwarded", t.forwarded, r.forward.forwarded),
            ("dropped", t.dropped, r.forward.dropped),
            ("fifo_stall_cycles", t.fifo_stall_cycles, r.forward.fifo_stall_cycles),
            ("peak_occupancy", t.occ_peak, r.forward.peak_occupancy),
            ("meta_misses", t.meta_misses, r.meta_cache.read_misses + r.meta_cache.write_misses),
            ("bus_fabric_transfers", t.bus_fabric_transfers, r.bus.fabric_transfers),
            ("faults", t.faults, r.resilience.faults_injected),
        ];
        for (name, sampled, aggregate) in checks {
            if sampled != aggregate {
                return Err(format!(
                    "epoch series {name} = {sampled} but RunResult aggregate = {aggregate}"
                ));
            }
        }
        for (i, (s, a)) in t.per_class.iter().zip(&r.forward.per_class).enumerate() {
            if s != a {
                return Err(format!(
                    "epoch series per_class[{i}] = {s} but RunResult aggregate = {a}"
                ));
            }
        }
        Ok(())
    }
}

impl TraceSink for MetricsRecorder {
    fn event(&mut self, ev: TraceEvent) {
        match ev {
            TraceEvent::Commit { cycle, .. } => self.bucket(cycle).committed += 1,
            TraceEvent::Forward { cycle, class } => {
                let b = self.bucket(cycle);
                b.forwarded += 1;
                b.per_class[class.index()] += 1;
            }
            TraceEvent::Drop { cycle, .. } => self.bucket(cycle).dropped += 1,
            TraceEvent::FifoEnqueue { cycle, occupancy, .. } => {
                let b = self.bucket(cycle);
                b.occ_samples += 1;
                b.occ_sum += occupancy;
                b.occ_peak = b.occ_peak.max(occupancy);
                b.occ_min = b.occ_min.min(occupancy);
            }
            TraceEvent::CommitStall { cycle, until } => {
                self.bucket(cycle).fifo_stall_cycles += until.saturating_sub(cycle);
            }
            TraceEvent::FabricSpan { start, end, .. } => {
                self.bucket(start).fabric_busy_cycles += end.saturating_sub(start);
            }
            TraceEvent::MetaMiss { cycle, count } => self.bucket(cycle).meta_misses += count,
            TraceEvent::BusGrant { cycle, transfers, wait_cycles } => {
                let b = self.bucket(cycle);
                b.bus_fabric_transfers += transfers;
                b.bus_fabric_wait_cycles += wait_cycles;
            }
            TraceEvent::BitstreamRetry { .. } => {}
            // Recovery rewinds the clock to the restored snapshot, so
            // binning these would double-count the replayed window;
            // they are rendered in the Perfetto trace instead.
            TraceEvent::Recovery { .. }
            | TraceEvent::DegradedEnter { .. }
            | TraceEvent::SwapBegin { .. }
            | TraceEvent::SwapComplete { .. } => {}
            // Elisions are a per-run aggregate
            // (`ResilienceStats::elided_checks`); no epoch series.
            TraceEvent::CheckElided { .. } => {}
            TraceEvent::FaultInjected { cycle, .. } => self.bucket(cycle).faults += 1,
            TraceEvent::Trap { cycle, .. } => self.bucket(cycle).traps += 1,
        }
    }
}

/// Serialization of the series (JSONL) — behind the `serde` feature.
#[cfg(feature = "serde")]
mod export {
    use super::*;
    use flexcore_pipeline::per_class_value;
    use serde::Value;

    impl MetricsRecorder {
        /// Serializes the series as JSON Lines: a `meta` header, one
        /// `epoch` record per window (empty windows included, so the
        /// series is a dense time axis), and a `total` footer carrying
        /// the [`RunResult`] aggregates for cross-checking. Output is
        /// byte-deterministic for a deterministic run.
        pub fn to_jsonl(&self, r: &RunResult) -> String {
            let mut out = String::new();
            let meta = Value::object()
                .field("type", &"meta")
                .field("epoch_cycles", &self.epoch_cycles)
                .field("epochs", &(self.epochs.len() as u64))
                .field("truncated", &self.truncated)
                .build();
            out.push_str(&serde::to_string(&meta));
            out.push('\n');
            for (i, e) in self.epochs.iter().enumerate() {
                let start = i as u64 * self.epoch_cycles;
                let line = Value::object()
                    .field("type", &"epoch")
                    .field("epoch", &(i as u64))
                    .field("start_cycle", &start)
                    .field("end_cycle", &(start + self.epoch_cycles))
                    .field("committed", &e.committed)
                    .field("cpi", &e.cpi(self.epoch_cycles))
                    .field("forwarded", &e.forwarded)
                    .field("dropped", &e.dropped)
                    .field("fifo_stall_cycles", &e.fifo_stall_cycles)
                    .field("fifo_occ_min", &e.fifo_occ_min())
                    .field("fifo_occ_mean", &e.fifo_occ_mean())
                    .field("fifo_occ_peak", &e.occ_peak)
                    .field("fabric_busy_cycles", &e.fabric_busy_cycles)
                    .field("meta_misses", &e.meta_misses)
                    .field("bus_fabric_transfers", &e.bus_fabric_transfers)
                    .field("bus_fabric_wait_cycles", &e.bus_fabric_wait_cycles)
                    .field("faults", &e.faults)
                    .field("traps", &e.traps)
                    .raw("per_class", per_class_value(&e.per_class))
                    .build();
                out.push_str(&serde::to_string(&line));
                out.push('\n');
            }
            let total = Value::object()
                .field("type", &"total")
                .field("committed", &r.forward.committed)
                .field("forwarded", &r.forward.forwarded)
                .field("dropped", &r.forward.dropped)
                .field("fifo_stall_cycles", &r.forward.fifo_stall_cycles)
                .field("peak_occupancy", &r.forward.peak_occupancy)
                .field("cycles", &r.cycles)
                .field("instret", &r.instret)
                .field("cpi", &r.cpi())
                .field("unmonitored_commits", &r.resilience.unmonitored_commits)
                .field("suppressed_checks", &r.resilience.suppressed_checks)
                .build();
            out.push_str(&serde::to_string(&total));
            out.push('\n');
            out
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexcore_isa::InstrClass;

    #[test]
    fn events_land_in_their_epoch() {
        let mut m = MetricsRecorder::new(100);
        m.event(TraceEvent::Commit { cycle: 5, pc: 0, instret: 1, class: InstrClass::Add });
        m.event(TraceEvent::Commit { cycle: 105, pc: 4, instret: 2, class: InstrClass::Add });
        m.event(TraceEvent::Forward { cycle: 105, class: InstrClass::Ld });
        assert_eq!(m.epochs().len(), 2);
        assert_eq!(m.epochs()[0].committed, 1);
        assert_eq!(m.epochs()[1].committed, 1);
        assert_eq!(m.epochs()[1].per_class[InstrClass::Ld.index()], 1);
    }

    #[test]
    fn occupancy_tracks_min_mean_peak() {
        let mut m = MetricsRecorder::new(1000);
        for occ in [3u64, 1, 7] {
            m.event(TraceEvent::FifoEnqueue { cycle: 10, dequeue_at: 20, occupancy: occ });
        }
        let e = &m.epochs()[0];
        assert_eq!(e.fifo_occ_min(), Some(1));
        assert_eq!(e.occ_peak, 7);
        assert!((e.fifo_occ_mean().unwrap() - 11.0 / 3.0).abs() < 1e-12);
        assert_eq!(EpochSample::default().fifo_occ_min(), None);
    }

    #[test]
    fn stall_cycles_are_the_interval_width() {
        let mut m = MetricsRecorder::new(1000);
        m.event(TraceEvent::CommitStall { cycle: 40, until: 100 });
        m.event(TraceEvent::CommitStall { cycle: 50, until: 50 });
        assert_eq!(m.epochs()[0].fifo_stall_cycles, 60);
    }

    #[test]
    fn far_future_events_fold_into_the_ceiling_epoch() {
        let mut m = MetricsRecorder::new(1);
        m.event(TraceEvent::Commit {
            cycle: u64::MAX / 2,
            pc: 0,
            instret: 1,
            class: InstrClass::Add,
        });
        assert!(m.truncated());
        assert_eq!(m.epochs().len(), MAX_EPOCHS);
        assert_eq!(m.totals().committed, 1, "folded, not lost");
    }

    #[test]
    fn totals_merge_min_and_peak() {
        let mut m = MetricsRecorder::new(10);
        m.event(TraceEvent::FifoEnqueue { cycle: 1, dequeue_at: 2, occupancy: 5 });
        m.event(TraceEvent::FifoEnqueue { cycle: 11, dequeue_at: 12, occupancy: 2 });
        let t = m.totals();
        assert_eq!(t.occ_peak, 5);
        assert_eq!(t.occ_min, 2);
        assert_eq!(t.occ_samples, 2);
    }
}
