//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span has a name, a start and an end, the span that caused it, and
//! the id of the request it belongs to (0 for work outside requests).
//! Spans stay in memory while the workload runs and are written out as
//! JSON lines when it ends. A layer's number is its self time: the
//! span's duration minus the parts of it its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

const NONE: usize = usize::MAX;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: usize,
    req: u64,
}

#[derive(Debug)]
pub struct Tracer {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
}

/// Handle of an open span; a no-op handle when tracing is off.
#[derive(Debug, Clone, Copy)]
pub struct SpanId(usize);

impl SpanId {
    pub const ROOT: SpanId = SpanId(NONE);
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.t0).as_nanos() as u64
    }

    /// Opens a span that started at `start` (a request's span starts when
    /// it was due, which can be before it was sent).
    pub fn begin_at(
        &mut self,
        name: &'static str,
        parent: SpanId,
        req: u64,
        start: Instant,
    ) -> SpanId {
        if !self.on {
            return SpanId::ROOT;
        }
        let start_ns = self.ns(start);
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.0,
            req,
        });
        SpanId(self.spans.len() - 1)
    }

    pub fn begin(&mut self, name: &'static str, parent: SpanId, req: u64) -> SpanId {
        self.begin_at(name, parent, req, Instant::now())
    }

    pub fn end(&mut self, id: SpanId) {
        self.end_at(id, Instant::now());
    }

    pub fn end_at(&mut self, id: SpanId, at: Instant) {
        if id.0 != NONE {
            let ns = self.ns(at);
            self.spans[id.0].end_ns = ns;
        }
    }

    /// Runs `f` inside a span of its own.
    pub fn time<R>(&mut self, name: &'static str, parent: SpanId, f: impl FnOnce() -> R) -> R {
        let id = self.begin(name, parent, 0);
        let out = f();
        self.end(id);
        out
    }

    /// Self times in nanoseconds, grouped by span name, in span order.
    pub fn self_times(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NONE {
                let p = &self.spans[s.parent];
                let lo = s.start_ns.max(p.start_ns);
                let hi = s.end_ns.min(p.end_ns);
                covered[s.parent] += hi.saturating_sub(lo);
            }
        }
        let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(covered) {
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(c);
            out.entry(s.name).or_default().push(own as f64);
        }
        out
    }

    /// Median self time of the spans called `name`, in nanoseconds.
    pub fn median_self_ns(&self, name: &str) -> f64 {
        self.self_times()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |(_, v)| {
                crate::measure::median(&crate::measure::sorted(v))
            })
    }

    /// Writes every span as one JSON line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.on {
            return Ok(());
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NONE {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new(true);
        let base = Instant::now();
        let root = t.begin_at("req", SpanId::ROOT, 1, base);
        let child = t.begin_at("enc", root, 1, base + Duration::from_nanos(100));
        t.end_at(child, base + Duration::from_nanos(400));
        t.end_at(root, base + Duration::from_nanos(1000));
        let st = t.self_times();
        assert_eq!(st["req"], vec![700.0]);
        assert_eq!(st["enc"], vec![300.0]);
    }

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", SpanId::ROOT, 0);
        t.end(id);
        assert!(t.self_times().is_empty());
    }
}
