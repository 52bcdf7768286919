//! In-memory span recorder for the traced run.
//!
//! A span is a named interval opened and closed by the benchmark around
//! one of its own calls into a layer's public functions, with the span
//! that caused it and a call count. Spans of one query set share its id.
//! They stay in memory until the run ends and are then written out as
//! JSON lines. Self time is a span's duration minus the part of it that
//! its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// One closed (or still open) interval.
#[derive(Clone, Debug)]
pub struct Span {
    /// The query set this span belongs to.
    pub query: u64,
    /// Layer-qualified name, e.g. `storage.read_cold`.
    pub name: &'static str,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, in the same clock; equal to `start_ns` while open.
    pub end_ns: u64,
    /// Calls into the layer this span covers.
    pub calls: u64,
}

/// Self time and call count summed over every span of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Summed self time, nanoseconds.
    pub self_ns: u64,
    /// Summed calls.
    pub calls: u64,
}

impl Totals {
    /// Self nanoseconds per call (0 when no calls were made).
    pub fn ns_per_call(&self) -> f64 {
        crate::stats::ratio(self.self_ns as f64, self.calls as f64)
    }
}

/// The recorder.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its handle.
    pub fn open(&mut self, query: u64, name: &'static str, parent: Option<usize>) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            query,
            name,
            parent,
            start_ns: t,
            end_ns: t,
            calls: 0,
        });
        self.spans.len() - 1
    }

    /// Closes span `id`, recording how many layer calls it covered, and
    /// returns its duration in nanoseconds.
    pub fn close(&mut self, id: usize, calls: u64) -> u64 {
        let t = self.now_ns();
        let span = &mut self.spans[id];
        span.end_ns = t;
        span.calls = calls;
        t - span.start_ns
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time and calls per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, kids) in self.spans.iter().zip(children.iter_mut()) {
            let covered = covered_within(s.start_ns, s.end_ns, kids);
            let t = out.entry(s.name).or_default();
            t.self_ns += (s.end_ns - s.start_ns).saturating_sub(covered);
            t.calls += s.calls;
        }
        out
    }

    /// Writes `header` and then one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{header}")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                w,
                "{{\"id\": {id}, \"query\": {}, \"name\": \"{}\", \"parent\": {parent}, \
                 \"start_ns\": {}, \"end_ns\": {}, \"calls\": {}}}",
                s.query, s.name, s.start_ns, s.end_ns, s.calls
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[start, end]`.
fn covered_within(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(end));
        if b > a {
            covered += b - a;
            reach = b;
        }
    }
    covered
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::default();
        let span = |query, name, parent, start_ns, end_ns, calls| Span {
            query,
            name,
            parent,
            start_ns,
            end_ns,
            calls,
        };
        t.spans = vec![
            span(0, "query", None, 0, 100, 1),
            span(0, "a", Some(0), 10, 30, 2),
            span(0, "a", Some(0), 20, 40, 2),
            span(0, "b", Some(0), 50, 60, 5),
            span(0, "c", Some(3), 55, 58, 1),
        ];
        let totals = t.totals();
        assert_eq!(totals["query"].self_ns, 100 - 30 - 10);
        assert_eq!(
            totals["a"],
            Totals {
                self_ns: 40,
                calls: 4
            }
        );
        assert_eq!(totals["b"].self_ns, 7);
        assert_eq!(totals["c"].ns_per_call(), 3.0);
    }

    #[test]
    fn open_close_records_calls_and_order() {
        let mut t = Tracer::default();
        let root = t.open(7, "query", None);
        let child = t.open(7, "leaf", Some(root));
        t.close(child, 3);
        t.close(root, 1);
        let s = t.spans();
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].calls, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
