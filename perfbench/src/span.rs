//! The traced run's in-memory span recorder.
//!
//! Each span has a name, a start, an end, a parent and a trace id; spans
//! of one horizon slot, one tick or one request share a trace id. Spans are
//! recorded from the benchmark's own files around calls into each layer's
//! public functions, kept in memory, and written out once the run ends. A
//! layer's self time is its span minus the part its children cover.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Identifies a span inside one [`Recorder`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    trace: u64,
    parent: Option<SpanId>,
    start_ns: u64,
    end_ns: u64,
}

/// An append-only span store with a clock anchored at its creation.
/// Interior mutability lets the wrappers handed into a layer (a slot
/// iterator, say) record while the caller holds the parent span open.
pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span starting now.
    pub fn open(&self, name: &'static str, trace: u64, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        self.record(name, trace, parent, start, start)
    }

    /// Closes a span opened with [`Recorder::open`] at the current time.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        self.spans.borrow_mut()[id.0].end_ns = end;
    }

    /// Records a finished span with explicit bounds.
    pub fn record(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        start_ns: u64,
        end_ns: u64,
    ) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        spans.push(Span {
            name,
            trace,
            parent,
            start_ns,
            end_ns,
        });
        SpanId(spans.len() - 1)
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &self,
        name: &'static str,
        trace: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, trace, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Duration of one span, nanoseconds.
    pub fn duration_ns(&self, id: SpanId) -> u64 {
        let s = &self.spans.borrow()[id.0];
        s.end_ns.saturating_sub(s.start_ns)
    }

    /// Durations (µs) of every span called `name`, in recording order.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns.saturating_sub(s.start_ns))
            .sum()
    }

    /// Self time of a span: its duration minus the union of its direct
    /// children's intervals (clipped to the parent).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let spans = self.spans.borrow();
        let parent = &spans[id.0];
        let mut children: Vec<(u64, u64)> = spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(parent.start_ns), s.end_ns.min(parent.end_ns)))
            .filter(|(a, b)| b > a)
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = parent.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        (parent.end_ns.saturating_sub(parent.start_ns)).saturating_sub(covered)
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    /// Writes every span as one tab-separated line:
    /// `id trace parent name start_ns end_ns` (`-` for no parent).
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\ttrace\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or(String::from("-"), |p| p.0.to_string());
            writeln!(
                out,
                "{i}\t{:016x}\t{parent}\t{}\t{}\t{}",
                s.trace, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let rec = Recorder::new();
        let root = rec.record("root", 1, None, 100, 200);
        rec.record("a", 1, Some(root), 110, 130);
        // Overlaps `a`: only 130..140 is new coverage.
        rec.record("b", 1, Some(root), 120, 140);
        // Runs past the parent's end: clipped at 200.
        rec.record("c", 1, Some(root), 190, 250);
        // A grandchild does not count against the root.
        let a2 = rec.record("d", 1, Some(root), 150, 160);
        rec.record("e", 1, Some(a2), 151, 159);
        assert_eq!(rec.self_ns(root), 100 - (30 + 10 + 10));
        assert_eq!(rec.self_ns(a2), 2);
        assert_eq!(rec.total_ns("a"), 20);
        assert_eq!(rec.durations_us("c"), vec![0.06]);
    }
}
