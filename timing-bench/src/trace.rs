//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, start and end (ns since the tracer's origin), the span
//! that caused it and the id of the request (round, path or edit) it served.
//! Spans are kept in memory and written out once the run ends. Only the
//! benchmark's own calls are wrapped: nothing is recorded inside the program.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub id: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, a child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, id: u64, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let index = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            id,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Adds to a count recorded at a layer boundary.
    pub fn count(&mut self, name: &'static str, value: f64) {
        *self.counts.entry(name).or_insert(0.0) += value;
    }

    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans.iter().filter(move |s| s.name == name)
    }

    pub fn calls(&self, name: &str) -> usize {
        self.named(name).count()
    }

    pub fn busy_s(&self, name: &str) -> f64 {
        self.named(name).map(|s| s.duration_ns()).sum::<u64>() as f64 * 1e-9
    }

    /// Durations of every span named `name`, in seconds.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Summed self time of every span named `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        self_times_ns(&self.spans)
            .into_iter()
            .zip(&self.spans)
            .filter(|(_, s)| s.name == name)
            .map(|(t, _)| t)
            .sum::<u64>() as f64
            * 1e-9
    }

    /// The spans as tab-separated lines: index, name, start, end, parent, id.
    pub fn dump(&self) -> String {
        let mut out = String::from("index\tname\tstart_ns\tend_ns\tparent\tid\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.id
            );
        }
        out
    }
}

/// Each span's duration minus the part of its interval that its children
/// cover (overlapping children count once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if end > start {
                children[p].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut covered)| {
            covered.sort_unstable();
            let mut union = 0;
            let mut reach = s.start_ns;
            for (start, end) in covered {
                let start = start.max(reach);
                if end > start {
                    union += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - union
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("a.inner", 12, 18, Some(1)),
            span("c", 90, 120, Some(0)),
        ];
        // root: 100 - ([10,50] + [90,100]) = 50; a: 20 - 6; b and c: leaves
        // (c is clipped to its parent only when subtracting from the parent).
        assert_eq!(self_times_ns(&spans), vec![50, 14, 30, 6, 30]);
    }

    #[test]
    fn nested_spans_record_parents_and_sum_by_name() {
        let mut t = Tracer::new();
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
        });
        t.span("outer", 8, |_| ());
        assert_eq!(t.calls("outer"), 2);
        assert_eq!(t.calls("inner"), 2);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, None);
        assert_eq!(spans[3].id, 8);
        let total = t.busy_s("outer");
        let inner = t.busy_s("inner");
        assert!((t.self_s("outer") - (total - inner)).abs() < 1e-12);
        assert!(t.dump().lines().count() == 5);
    }
}
