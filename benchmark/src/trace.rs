//! In-memory spans around the benchmark's calls into each layer, written
//! out as JSON lines when the run ends.
//!
//! Every span is recorded from the benchmark's own files, outside the
//! program: spans inside `clamd` are a later change. One line per span:
//!
//! ```text
//! {"id":7,"parent":2,"name":"request.lookup","start_ns":1200,"end_ns":9800,"request":41}
//! ```
//!
//! `parent` 0 is the root. `request` ties a span to the request or store
//! call it served (0 for phase and depth spans). The first line is not a
//! span: it says how many spans the run recorded and how the per-request
//! ones were thinned to keep the file small.

use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// Leaf spans a trace file holds at most (about 12 MB of JSON lines).
const MAX_LEAVES_WRITTEN: usize = 100_000;

/// One timed call. Ids are assigned when the span joins the [`Trace`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u64,
}

/// The run's span collector. Disabled, it records nothing.
pub struct Trace {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    pub fn new(enabled: bool) -> Self {
        Trace { enabled, epoch: Instant::now(), spans: Vec::new() }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Nanoseconds since the trace began; span times count from here.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now and returns its id, for children to name as
    /// parent. [`close`](Self::close) sets its end.
    pub fn open(&mut self, name: &'static str, parent: u32) -> u32 {
        if !self.enabled {
            return 0;
        }
        let now = self.now_ns();
        self.spans.push(Span { name, start_ns: now, end_ns: now, parent, request: 0 });
        self.spans.len() as u32
    }

    pub fn close(&mut self, id: u32) {
        if let Some(span) = (id as usize).checked_sub(1).and_then(|i| self.spans.get_mut(i)) {
            span.end_ns = self.epoch.elapsed().as_nanos() as u64;
        }
    }

    /// Adds spans a generator thread recorded on its own.
    pub fn extend(&mut self, spans: Vec<Span>) {
        if self.enabled {
            self.spans.extend(spans);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every root span as `(name, duration ms, self ms, children)`: for a
    /// phase, self time is time with no request in flight; for a
    /// single-threaded ladder depth, the generator's time between calls.
    pub fn roots(&self) -> Vec<(&'static str, f64, f64, usize)> {
        let mut children: Vec<Vec<&Span>> = vec![Vec::new(); self.spans.len() + 1];
        for span in &self.spans {
            children[span.parent as usize].push(span);
        }
        let ms = |ns: u64| ns as f64 / 1e6;
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, span)| span.parent == 0)
            .map(|(i, span)| {
                let own = &children[i + 1];
                (span.name, ms(span.end_ns - span.start_ns), ms(self_time_ns(span, own)), own.len())
            })
            .collect()
    }

    /// Writes the spans as JSON lines. Root spans and their direct
    /// structure are always written; leaf spans (one per request or call)
    /// are thinned to every k-th when there are more than
    /// [`MAX_LEAVES_WRITTEN`], and the first line says so.
    pub fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let leaves = self.spans.iter().filter(|s| s.request != 0).count();
        let keep_every = leaves.div_ceil(MAX_LEAVES_WRITTEN).max(1);
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        writeln!(
            out,
            "{{\"spans_recorded\":{},\"leaf_spans_written_one_in\":{keep_every}}}",
            self.spans.len()
        )?;
        let mut leaf = 0;
        for (i, s) in self.spans.iter().enumerate() {
            if s.request != 0 {
                leaf += 1;
                if leaf % keep_every != 0 {
                    continue;
                }
            }
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns,
                s.request
            )?;
        }
        out.flush()
    }
}

/// A span's self time: its duration minus the part of that interval its
/// children cover. Overlapping children (concurrent requests under one
/// phase) are counted once.
pub fn self_time_ns(span: &Span, children: &[&Span]) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(start, end)| start < end)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = span.start_ns;
    for (start, end) in intervals {
        if end > reach {
            covered += end - start.max(reach);
            reach = end;
        }
    }
    (span.end_ns - span.start_ns) - covered
}

/// Each layer's self time: its depth's time per operation minus the next
/// depth's, depths given outermost first under their layer's name. The
/// deepest layer keeps its whole time, so the self times sum to the
/// outermost depth's time by construction.
pub fn ladder_self_times(depths: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    depths
        .iter()
        .enumerate()
        .map(|(i, &(layer, us))| (layer, us - depths.get(i + 1).map_or(0.0, |next| next.1)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64) -> Span {
        Span { name: "t", start_ns, end_ns, parent: 0, request: 0 }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let parent = span(100, 200);
        assert_eq!(self_time_ns(&parent, &[]), 100);
        // Disjoint children.
        assert_eq!(self_time_ns(&parent, &[&span(110, 120), &span(150, 180)]), 60);
        // Overlapping children cover 110..160 once.
        assert_eq!(self_time_ns(&parent, &[&span(110, 150), &span(130, 160)]), 50);
        // A child reaching outside the parent counts only inside it.
        assert_eq!(self_time_ns(&parent, &[&span(50, 120), &span(190, 300)]), 70);
        // Nested and zero-length children add nothing twice.
        assert_eq!(self_time_ns(&parent, &[&span(100, 200), &span(120, 130), &span(5, 5)]), 0);
    }

    #[test]
    fn ladder_self_times_sum_to_the_outermost_depth() {
        let depths =
            [("server", 11.7), ("batcher", 3.1), ("shared", 1.4), ("clam", 1.6), ("device", 0.2)];
        let selfs = ladder_self_times(&depths);
        assert_eq!(selfs[0].0, "server");
        assert!((selfs[0].1 - 8.6).abs() < 1e-9);
        // A deeper depth slower than the one above gives a negative self
        // time; the sum still telescopes.
        assert!(selfs[2].1 < 0.0);
        let sum: f64 = selfs.iter().map(|s| s.1).sum();
        assert!((sum - depths[0].1).abs() / depths[0].1 < 0.05);
        assert!((sum - depths[0].1).abs() < 1e-9);
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut trace = Trace::new(false);
        let id = trace.open("phase", 0);
        trace.close(id);
        trace.extend(vec![span(1, 2)]);
        assert_eq!(trace.len(), 0);
        let mut trace = Trace::new(true);
        let id = trace.open("phase", 0);
        trace.extend(vec![Span { parent: id, ..span(1, 2) }]);
        trace.close(id);
        assert_eq!(trace.len(), 2);
    }
}
