//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end, the span that caused it and the
//! request id shared by the spans of one submission or batch. The run's
//! thread records into one [`Tracer`], and spans measured on another thread
//! (the ingest drainer's sink calls) are added with [`Tracer::record`] after
//! the fact; the list is written out once, when the run ends. A disabled
//! tracer records nothing, so the untraced phase of a run pays one branch
//! per call site.
//!
//! Per-layer times are **self times**: a span's duration minus the part of
//! its interval covered by its children ([`self_times`]).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One recorded span. Times are nanoseconds since the run's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: u32,
    pub req: u64,
}

/// A per-thread span recorder.
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Handle of a span opened by [`Tracer::begin`]; `None` when tracing is off.
pub type Open = Option<u32>;

impl Tracer {
    pub fn new(origin: Instant, on: bool) -> Self {
        Tracer { origin, on, spans: Vec::new(), open: Vec::new() }
    }

    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Opens a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str, req: u64) -> Open {
        if !self.on {
            return None;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let now = self.nanos(Instant::now());
        self.spans.push(Span { name, start: now, end: now, parent, req });
        self.open.push(idx);
        Some(idx)
    }

    /// Closes a span opened by [`Tracer::begin`] (and any span opened
    /// inside it that was left open).
    pub fn end(&mut self, open: Open) {
        let Some(idx) = open else { return };
        let now = self.nanos(Instant::now());
        self.spans[idx as usize].end = now;
        while let Some(top) = self.open.pop() {
            if top == idx {
                break;
            }
        }
    }

    /// Records a span measured elsewhere, under the innermost open span.
    pub fn record(&mut self, name: &'static str, req: u64, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let (start, end) = (self.nanos(start), self.nanos(end));
        self.spans.push(Span { name, start, end, parent, req });
    }

    /// Takes the recorded spans out of the tracer.
    pub fn take(&mut self) -> Vec<Span> {
        self.open.clear();
        std::mem::take(&mut self.spans)
    }

    fn nanos(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union of
/// its children's intervals, clipped to its own.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if span.parent != NO_PARENT {
            children[span.parent as usize].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(span, kids)| {
            let duration = span.end.saturating_sub(span.start);
            kids.sort_unstable();
            let mut covered = 0;
            let mut cursor = span.start;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(cursor), end.min(span.end));
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            duration - covered.min(duration)
        })
        .collect()
}

/// Self times grouped by span name, in microseconds.
pub fn self_us_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut by_name: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        by_name.entry(span.name).or_default().push(own as f64 / 1e3);
    }
    by_name
}

/// Writes every span as one tab-separated line: name, request id, start
/// and end in nanoseconds since the run's origin, parent index (or `-`),
/// and self time in nanoseconds.
pub fn write(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "name\treq\tstart_ns\tend_ns\tparent\tself_ns")?;
    for (span, own) in spans.iter().zip(self_times(spans)) {
        let parent = match span.parent {
            NO_PARENT => "-".to_string(),
            p => p.to_string(),
        };
        writeln!(
            out,
            "{}\t{}\t{}\t{}\t{}\t{}",
            span.name, span.req, span.start, span.end, parent, own
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start, end, parent, req: 0 }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("batch", 0, 100, NO_PARENT),
            span("validate", 10, 30, 0),
            // Overlaps the next child: the overlap is subtracted once.
            span("reduce", 40, 60, 0),
            span("mutate", 50, 70, 0),
            // Sticks out of its parent: only the inside part counts.
            span("late", 90, 130, 0),
            span("inner", 55, 58, 3),
        ];
        let own = self_times(&spans);
        // 100 − (20 + [40, 70) = 30 + 10) = 40.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 17);
        assert_eq!(own[4], 40);
        assert_eq!(own[5], 3);
    }

    #[test]
    fn tracer_nests_spans_and_records_nothing_when_off() {
        let origin = Instant::now();
        let mut tracer = Tracer::new(origin, true);
        let outer = tracer.begin("outer", 7);
        let inner = tracer.begin("inner", 7);
        tracer.end(inner);
        tracer.record("measured", 8, origin, Instant::now());
        tracer.end(outer);
        tracer.set_on(false);
        assert_eq!(tracer.begin("ignored", 1), None);
        tracer.record("ignored", 1, origin, Instant::now());

        let spans = tracer.take();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, NO_PARENT);
        assert_eq!((spans[1].name, spans[1].parent), ("inner", 0));
        assert_eq!((spans[2].name, spans[2].parent, spans[2].req), ("measured", 0, 8));
        assert!(spans.iter().all(|s| s.end >= s.start));
    }
}
