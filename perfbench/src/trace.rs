//! The benchmark's own spans: recorded around calls into each layer's public
//! functions, kept in memory, and written out when the run ends. A span's
//! self time is its duration minus the part of it that its children cover,
//! so at every level the children plus the residual sum to the parent.

use sc_telemetry::Json;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same tracer.
    pub parent: Option<usize>,
    /// The request (image) this span belongs to.
    pub request: u64,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An in-memory span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Opens a span starting now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let now = self.ns(Instant::now());
        self.push(name, now, now, parent, request)
    }

    /// Ends an open span now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Records a span whose start and end are already known.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.push(name, start_ns, end_ns, parent, request)
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        self.spans.len() - 1
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in nanoseconds of every span named `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::dur_ns)
            .collect()
    }

    /// Self times in nanoseconds of every span named `name`.
    #[must_use]
    pub fn self_times_ns(&self, name: &str) -> Vec<u64> {
        (0..self.spans.len())
            .filter(|&i| self.spans[i].name == name)
            .map(|i| self.self_ns(i))
            .collect()
    }

    /// Span `id`'s duration minus the union of its children's intervals
    /// (clipped to the span).
    #[must_use]
    pub fn self_ns(&self, id: usize) -> u64 {
        let span = &self.spans[id];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| {
                (
                    s.start_ns.clamp(span.start_ns, span.end_ns),
                    s.end_ns.clamp(span.start_ns, span.end_ns),
                )
            })
            .collect();
        children.sort_unstable();
        let mut covered = 0;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.dur_ns() - covered
    }

    /// The spans as JSON lines (one object per span, in recording order).
    #[must_use]
    pub fn to_json_lines(&self) -> String {
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(Json::Null, |p| Json::u64(p as u64));
            let line = Json::obj(vec![
                ("id", Json::u64(id as u64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::u64(s.start_ns)),
                ("end_ns", Json::u64(s.end_ns)),
                ("parent", parent),
                ("request", Json::u64(s.request)),
                ("self_ns", Json::u64(self.self_ns(id))),
            ]);
            out.push_str(&line.to_string_compact());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(u64, u64, Option<usize>)]) -> Tracer {
        let mut t = Tracer::new(Instant::now());
        for &(start_ns, end_ns, parent) in spans {
            t.push("s", start_ns, end_ns, parent, 0);
        }
        t
    }

    #[test]
    fn children_plus_self_sum_to_parent() {
        // Parent 0..100 with children 10..30 and 50..90.
        let t = tracer_with(&[(0, 100, None), (10, 30, Some(0)), (50, 90, Some(0))]);
        assert_eq!(t.self_ns(0), 40);
        assert_eq!(
            t.self_ns(0) + t.spans[1].dur_ns() + t.spans[2].dur_ns(),
            100
        );
    }

    #[test]
    fn overlapping_children_count_once_and_clip_to_parent() {
        // Children from two threads overlap; one runs past the parent's end.
        let t = tracer_with(&[
            (0, 100, None),
            (10, 60, Some(0)),
            (40, 80, Some(0)),
            (90, 150, Some(0)),
        ]);
        assert_eq!(t.self_ns(0), 100 - 70 - 10);
    }

    #[test]
    fn grandchildren_do_not_count_against_the_root() {
        let t = tracer_with(&[(0, 100, None), (10, 90, Some(0)), (20, 30, Some(1))]);
        assert_eq!(t.self_ns(0), 20);
        assert_eq!(t.self_ns(1), 70);
        assert_eq!(t.self_ns(2), 10);
    }

    #[test]
    fn json_lines_carry_every_span() {
        let t = tracer_with(&[(0, 10, None), (2, 5, Some(0))]);
        let text = t.to_json_lines();
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        let child = sc_telemetry::json::parse(lines[1]).expect("valid JSON");
        assert_eq!(child.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(child.get("self_ns").and_then(Json::as_u64), Some(3));
    }
}
