//! In-memory spans recorded around calls into each layer's public API.
//!
//! The benchmark times every layer from outside: a span opens before a
//! call into a crate and closes when it returns.  Spans live in per-thread
//! [`Tracer`]s while a phase runs, are merged into a [`SpanLog`] when it
//! ends, and are written out once the run is over — no I/O happens inside a
//! timed window.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent id of a root span.
pub const ROOT: u32 = 0;

/// One timed call: which operation it belongs to, which layer was called,
/// and when, relative to the run's origin.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Operation (request or ingest pass) the span belongs to.
    pub op: u64,
    /// Span id, unique within its operation.
    pub id: u32,
    /// Enclosing span's id, or [`ROOT`].
    pub parent: u32,
    /// Layer (crate) that was called, e.g. `storage`.
    pub layer: &'static str,
    /// What was called, e.g. `read_run_into`.
    pub name: &'static str,
    /// Start, nanoseconds after the run's origin.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
}

/// Per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next_id: u32,
    spans: Vec<Span>,
}

/// An open span, closed by [`Tracer::close`].
#[derive(Debug, Clone, Copy)]
pub struct Open {
    id: u32,
    start: Instant,
}

impl Open {
    /// The span id, for use as a child's parent.
    pub fn id(&self) -> u32 {
        self.id
    }
}

impl Tracer {
    /// A recorder whose timestamps count from `origin`.
    pub fn new(origin: Instant) -> Self {
        Self {
            origin,
            next_id: ROOT + 1,
            spans: Vec::new(),
        }
    }

    /// Open a span now.
    pub fn open(&mut self) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            id,
            start: Instant::now(),
        }
    }

    /// Close `open` now, recording it under `parent`; returns its duration
    /// in nanoseconds.
    pub fn close(
        &mut self,
        open: Open,
        op: u64,
        parent: u32,
        layer: &'static str,
        name: &'static str,
    ) -> u64 {
        self.finish(open, Instant::now(), op, parent, layer, name)
    }

    /// Run `f` inside a span.
    pub fn time<T>(
        &mut self,
        op: u64,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.open();
        let out = f();
        self.close(open, op, parent, layer, name);
        out
    }

    /// Record a span whose start and end were taken elsewhere.
    pub fn record(
        &mut self,
        op: u64,
        parent: u32,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let open = Open {
            start,
            ..self.open()
        };
        self.finish(open, end, op, parent, layer, name)
    }

    fn finish(
        &mut self,
        open: Open,
        end: Instant,
        op: u64,
        parent: u32,
        layer: &'static str,
        name: &'static str,
    ) -> u64 {
        let dur_ns = nanos(end.saturating_duration_since(open.start));
        self.spans.push(Span {
            op,
            id: open.id,
            parent,
            layer,
            name,
            start_ns: nanos(open.start.saturating_duration_since(self.origin)),
            dur_ns,
        });
        dur_ns
    }

    /// The spans recorded so far.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Every span of a run.
#[derive(Debug, Default, Clone)]
pub struct SpanLog {
    spans: Vec<Span>,
}

impl SpanLog {
    /// Append a tracer's spans.
    pub fn absorb(&mut self, tracer: Tracer) {
        self.spans.extend(tracer.into_spans());
    }

    /// All spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (seconds) of every `layer`/`name` span.
    pub fn durations(&self, layer: &str, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(|s| s.dur_ns as f64 / 1e9)
            .collect()
    }

    /// Per operation, the summed duration (seconds) of its `layer`/`name`
    /// spans; operations without such a span are skipped.
    pub fn per_op_sum(&self, layer: &str, name: &str) -> Vec<f64> {
        let mut sums: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
        {
            *sums.entry(s.op).or_default() += s.dur_ns as f64 / 1e9;
        }
        sums.into_values().collect()
    }

    /// Per operation and layer, the layer's self time in seconds: each
    /// span's duration minus the durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, BTreeMap<u64, f64>> {
        let mut child_ns: BTreeMap<(u64, u32), u64> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != ROOT {
                *child_ns.entry((s.op, s.parent)).or_default() += s.dur_ns;
            }
        }
        let mut out: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for s in &self.spans {
            let children = child_ns.get(&(s.op, s.id)).copied().unwrap_or(0);
            let own = s.dur_ns.saturating_sub(children) as f64 / 1e9;
            *out.entry(s.layer).or_default().entry(s.op).or_default() += own;
        }
        out
    }

    /// Write one JSON object per span to `path`.
    ///
    /// # Errors
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let file = std::fs::File::create(path)?;
        let mut out = std::io::BufWriter::new(file);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"op\":{},\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"start_ns\":{},\"dur_ns\":{}}}",
                s.op, s.id, s.parent, s.layer, s.name, s.start_ns, s.dur_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin);
        let root = tracer.open();
        let t0 = Instant::now();
        tracer.record(7, root.id(), "storage", "read", t0, t0);
        tracer.close(root, 7, ROOT, "e2e", "pass");
        let mut log = SpanLog::default();
        log.absorb(tracer);
        let selfs = log.self_times();
        assert_eq!(selfs["storage"][&7], 0.0);
        assert!(selfs["e2e"][&7] >= 0.0);
        assert_eq!(log.per_op_sum("storage", "read"), vec![0.0]);
    }
}
