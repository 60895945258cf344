//! Spans recorded around the calls the benchmark makes into each layer.
//!
//! Nothing inside the simulator is instrumented: a span covers one
//! public call (`System::try_run`, `Server::run`, ...) as seen from the
//! benchmark. Spans are kept in memory and written out as one Chrome
//! trace when the run ends. With tracing off, [`Tracer::time`] still
//! returns the call's duration (the end-to-end metrics need it) but
//! records nothing.

use std::collections::BTreeMap;
use std::time::Instant;

/// One completed span.
#[derive(Clone, Debug)]
pub struct Span {
    /// The call the span covers, e.g. `System::try_run`.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

/// Span recorder; a disabled one only measures.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { enabled, epoch: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span that encloses every span recorded until the
    /// matching [`Tracer::end`].
    pub fn begin(&mut self, name: &'static str) -> Option<usize> {
        if !self.enabled {
            return None;
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span { name, start_ns, dur_ns: 0, parent: self.open.last().copied() });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, token: Option<usize>) {
        if let Some(idx) = token {
            let end = self.now_ns();
            let span = &mut self.spans[idx];
            span.dur_ns = end - span.start_ns;
            self.open.pop();
        }
    }

    /// Runs `f` as one leaf span and returns its result with the
    /// elapsed seconds.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let started = Instant::now();
        let out = std::hint::black_box(f());
        let dur = started.elapsed();
        if self.enabled {
            let start_ns = started.duration_since(self.epoch).as_nanos() as u64;
            self.spans.push(Span {
                name,
                start_ns,
                dur_ns: dur.as_nanos() as u64,
                parent: self.open.last().copied(),
            });
        }
        (out, dur.as_secs_f64())
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: count, total and self time (total minus the part
    /// covered by child spans), in nanoseconds.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.dur_ns;
            e.2 += s.dur_ns.saturating_sub(child);
        }
        out
    }

    /// The spans as Chrome trace-event JSON (one `X` event per span).
    pub fn chrome_json(&self) -> String {
        let events: Vec<serde::Value> = self
            .spans
            .iter()
            .map(|s| {
                serde::Value::object()
                    .field("name", &s.name)
                    .field("ph", &"X")
                    .field("pid", &1u64)
                    .field("tid", &1u64)
                    .field("ts", &(s.start_ns as f64 / 1000.0))
                    .field("dur", &(s.dur_ns as f64 / 1000.0))
                    .build()
            })
            .collect();
        serde::to_string(&serde::Value::object().field("traceEvents", &events).build())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_measures_but_records_nothing() {
        let mut t = Tracer::new(false);
        let tok = t.begin("outer");
        let (v, secs) = t.time("leaf", || 7);
        t.end(tok);
        assert_eq!(v, 7);
        assert!(secs >= 0.0);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn self_time_excludes_children() {
        let mut t = Tracer::new(true);
        let tok = t.begin("outer");
        t.time("leaf", || std::thread::sleep(std::time::Duration::from_millis(2)));
        t.end(tok);
        let s = t.summary();
        let (n, total, self_ns) = s["outer"];
        assert_eq!(n, 1);
        assert!(self_ns < total);
        assert_eq!(s["leaf"].0, 1);
    }
}
