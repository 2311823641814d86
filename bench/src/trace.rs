//! Spans recorded by the benchmark around its calls into the program,
//! kept in memory and written at exit as Chrome trace JSON
//! (`chrome://tracing`, <https://ui.perfetto.dev>).

use std::time::{Duration, Instant};

/// One closed interval of work, with the span that caused it.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    /// Request index; spans of one request share it.
    pub request: u64,
    pub parent: Option<usize>,
    pub start: Duration,
    pub dur: Duration,
    /// Counts taken at the same boundary (bytes, messages).
    pub args: Vec<(&'static str, u64)>,
}

impl Span {
    fn end(&self) -> Duration {
        self.start + self.dur
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { epoch: Instant::now(), spans: Vec::new() }
    }

    /// Records `[start, start + dur)` and returns the span's index, to be
    /// passed as `parent` of its children.
    pub fn span(
        &mut self,
        name: &str,
        request: u64,
        parent: Option<usize>,
        start: Instant,
        dur: Duration,
        args: Vec<(&'static str, u64)>,
    ) -> usize {
        let start = start.saturating_duration_since(self.epoch);
        self.spans.push(Span { name: name.to_string(), request, parent, start, dur, args });
        self.spans.len() - 1
    }

    fn children(&self, index: usize) -> impl Iterator<Item = &Span> {
        self.spans.iter().filter(move |s| s.parent == Some(index))
    }

    /// A span's duration minus the part of it its children cover
    /// (children may overlap one another; covered time counts once).
    pub fn self_time(&self, index: usize) -> Duration {
        let span = &self.spans[index];
        let mut kids: Vec<(Duration, Duration)> = self
            .children(index)
            .map(|c| (c.start.max(span.start), c.end().min(span.end())))
            .filter(|(s, e)| e > s)
            .collect();
        kids.sort();
        let mut covered = Duration::ZERO;
        let mut reach = span.start;
        for (s, e) in kids {
            let from = s.max(reach);
            if e > from {
                covered += e - from;
                reach = e;
            }
        }
        span.dur.saturating_sub(covered)
    }

    /// Whether every child lies inside its parent and shares its request.
    pub fn well_nested(&self) -> bool {
        self.spans.iter().all(|s| {
            s.parent.is_none_or(|p| {
                let parent = &self.spans[p];
                parent.request == s.request && s.start >= parent.start && s.end() <= parent.end()
            })
        })
    }

    /// Chrome trace JSON: one complete (`"ph": "X"`) event per span, in
    /// microseconds, all on one track so that nesting shows as depth.
    pub fn chrome_json(&self) -> String {
        let events: Vec<String> = self
            .spans
            .iter()
            .map(|s| {
                let mut args = vec![format!("\"request\": {}", s.request)];
                if let Some(p) = s.parent {
                    args.push(format!("\"parent\": \"{}\"", self.spans[p].name));
                }
                args.extend(s.args.iter().map(|(k, v)| format!("\"{k}\": {v}")));
                format!(
                    "{{\"name\": \"{}\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": {:.3}, \
                     \"dur\": {:.3}, \"args\": {{{}}}}}",
                    s.name,
                    s.start.as_secs_f64() * 1e6,
                    s.dur.as_secs_f64() * 1e6,
                    args.join(", ")
                )
            })
            .collect();
        format!("{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n{}\n]}}\n", events.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn self_time_counts_covered_time_once() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let root = t.span("request", 0, None, e, ms(100), vec![]);
        t.span("a", 0, Some(root), e + ms(10), ms(30), vec![]);
        t.span("b", 0, Some(root), e + ms(30), ms(30), vec![]); // overlaps a by 10
        t.span("c", 0, Some(root), e + ms(80), ms(10), vec![]);
        assert_eq!(t.self_time(root), ms(100 - 50 - 10));
        assert_eq!(t.self_time(1), ms(30));
        assert!(t.well_nested());
    }

    #[test]
    fn a_child_outside_its_parent_is_caught() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let root = t.span("request", 0, None, e, ms(10), vec![]);
        t.span("late", 0, Some(root), e + ms(5), ms(10), vec![]);
        assert!(!t.well_nested());
    }

    #[test]
    fn chrome_json_has_one_event_per_span() {
        let mut t = Tracer::new();
        let e = t.epoch;
        let root = t.span("request", 3, None, e, ms(2), vec![]);
        t.span("online:op1/relu", 3, Some(root), e, ms(1), vec![("bytes", 42)]);
        let doc = t.chrome_json();
        assert_eq!(doc.matches("\"ph\": \"X\"").count(), 2);
        assert!(doc.contains("\"name\": \"online:op1/relu\""));
        assert!(doc.contains("\"parent\": \"request\", \"bytes\": 42"));
        assert!(doc.contains("\"dur\": 1000.000"));
    }
}
