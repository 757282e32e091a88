//! In-memory spans recorded around the benchmark's own calls into each
//! layer. Spans inside the product are a later change; until then a
//! layer's time is what its public function takes when called from here.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// The op the span belongs to: spans of one request share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one (-1 for a root).
    pub parent: i32,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Clone, Copy)]
pub struct SpanId(usize);

const DISABLED: usize = usize::MAX;

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records nothing: the same call sites run with
    /// tracing off, which is what `trace.overhead_ratio` compares against.
    pub fn off() -> Self {
        Tracer {
            enabled: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A recording tracer with room for `capacity` spans, so the timed
    /// loop does not pay for growing the buffer.
    pub fn on(capacity: usize) -> Self {
        Tracer {
            enabled: true,
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
            open: Vec::with_capacity(8),
        }
    }

    pub fn enter(&mut self, op: u32, name: &'static str) -> SpanId {
        if !self.enabled {
            return SpanId(DISABLED);
        }
        let parent = self.open.last().map_or(-1, |&p| p as i32);
        let now = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            op,
            name,
            start_ns: now,
            end_ns: now,
            parent,
        });
        self.open.push(self.spans.len() - 1);
        SpanId(self.spans.len() - 1)
    }

    pub fn exit(&mut self, id: SpanId) {
        if id.0 == DISABLED {
            return;
        }
        self.spans[id.0].end_ns = self.origin.elapsed().as_nanos() as u64;
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id.0), "spans must nest");
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span: its duration minus the part its children
    /// cover.
    pub fn self_nanos(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::nanos).collect();
        for span in &self.spans {
            if span.parent >= 0 {
                let p = span.parent as usize;
                own[p] = own[p].saturating_sub(span.nanos());
            }
        }
        own
    }

    /// Per op, the summed self time of each span name, in microseconds:
    /// `name → [one value per op that has such a span]`.
    pub fn self_us_per_op(&self) -> BTreeMap<&'static str, Vec<f64>> {
        let own = self.self_nanos();
        let mut per_op: BTreeMap<(&'static str, u32), u64> = BTreeMap::new();
        for (span, nanos) in self.spans.iter().zip(own) {
            *per_op.entry((span.name, span.op)).or_default() += nanos;
        }
        let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        for ((name, _), nanos) in per_op {
            by_name.entry(name).or_default().push(nanos as f64 / 1e3);
        }
        by_name
    }

    /// One JSON object per line: `workload`, `op`, `name`, `start_ns`,
    /// `end_ns`, `parent`.
    pub fn write_jsonl(&self, workload: &str, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"workload\":\"{workload}\",\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{}}}",
                s.op, s.name, s.start_ns, s.end_ns, s.parent
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::on(4);
        let op = t.enter(0, "op");
        let a = t.enter(0, "a");
        t.exit(a);
        let b = t.enter(0, "b");
        t.exit(b);
        t.exit(op);
        // Overwrite the clock readings with known values.
        t.spans[0] = Span {
            op: 0,
            name: "op",
            start_ns: 0,
            end_ns: 100,
            parent: -1,
        };
        t.spans[1] = Span {
            op: 0,
            name: "a",
            start_ns: 10,
            end_ns: 40,
            parent: 0,
        };
        t.spans[2] = Span {
            op: 0,
            name: "b",
            start_ns: 50,
            end_ns: 90,
            parent: 0,
        };
        assert_eq!(t.self_nanos(), vec![30, 30, 40]);
        let per_op = t.self_us_per_op();
        assert_eq!(per_op["a"], vec![0.03]);
        assert_eq!(per_op["op"], vec![0.03]);
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let mut t = Tracer::off();
        let id = t.enter(1, "x");
        t.exit(id);
        assert!(t.spans().is_empty());
    }
}
