//! In-memory span recorder for the traced run.
//!
//! Spans are recorded from the benchmark's own code, around its calls
//! into each crate's public functions; nothing inside the program is
//! instrumented. They are kept in memory and written out once, when the
//! run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The part of the span its children cover. Children of one span run
    /// one after another, so their durations add.
    pub child_ns: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Share of the span its children cover (1 for an empty span).
    pub fn covered(&self) -> f64 {
        if self.ns() == 0 {
            1.0
        } else {
            self.child_ns as f64 / self.ns() as f64
        }
    }
}

/// Child coverage of one span name.
pub struct Coverage {
    /// Children's share of the spans' total duration.
    pub total: f64,
    /// Share of spans whose children cover at least 90% of them.
    pub at_least_90: f64,
    /// Lowest coverage of any one span.
    pub min: f64,
}

pub struct Tracer {
    epoch: Instant,
    pub spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open span. A root span
    /// first makes room for its children, so that growing the span list
    /// never lands inside it outside every child.
    pub fn enter(&mut self, name: &'static str) -> usize {
        if self.open.is_empty() {
            self.spans.reserve(256);
        }
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
            child_ns: 0,
        });
        self.open.push(id);
        id
    }

    /// Close span `id`, which must be the innermost open span.
    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
        if let Some(p) = self.spans[id].parent {
            self.spans[p].child_ns += self.spans[id].ns();
        }
    }

    /// Run `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.enter(name);
        let out = f(self);
        self.exit(id);
        out
    }

    /// Total self time (duration minus child coverage) per span name, ns.
    pub fn self_times(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.ns().saturating_sub(s.child_ns);
        }
        out
    }

    /// Total duration per span name, ns.
    pub fn totals(&self) -> BTreeMap<&'static str, u64> {
        let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
        for s in &self.spans {
            *out.entry(s.name).or_default() += s.ns();
        }
        out
    }

    /// How well the children of `name` spans cover them.
    pub fn child_coverage(&self, name: &str) -> Option<Coverage> {
        let (mut total, mut child, mut min, mut good, mut n) = (0u64, 0u64, 1.0f64, 0usize, 0usize);
        for s in self.spans.iter().filter(|s| s.name == name && s.ns() > 0) {
            total += s.ns();
            child += s.child_ns;
            min = min.min(s.covered());
            good += usize::from(s.covered() >= 0.9);
            n += 1;
        }
        (n > 0).then(|| Coverage {
            total: child as f64 / total as f64,
            at_least_90: good as f64 / n as f64,
            min,
        })
    }

    /// All spans as a JSON array of `{name, start_ns, end_ns, parent}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                s.name, s.start_ns, s.end_ns
            );
        }
        out.push_str("\n]\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut t = Tracer::new();
        t.span("op", |t| {
            t.span("child", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let selfs = t.self_times();
        let totals = t.totals();
        assert_eq!(selfs["op"] + selfs["child"], totals["op"]);
        assert!(t.child_coverage("op").unwrap().total > 0.5);
        assert_eq!(t.spans[1].parent, Some(0));
    }
}
