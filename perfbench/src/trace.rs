//! In-memory span recording around the benchmark's calls into each layer.
//!
//! Spans are recorded from the benchmark's own code (nothing inside the
//! simulator crates is instrumented): each has a name, start, end and the
//! span that encloses it, and is kept in memory until the run ends. A
//! layer's self time is its span durations minus the parts covered by
//! child spans, so the self times of all names sum to the root's duration.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are seconds since the tracer was created.
#[derive(Debug)]
pub struct Span {
    /// Layer name, such as `sim.core` or `lint.verify`.
    pub name: &'static str,
    /// Start, seconds since the tracer origin.
    pub start: f64,
    /// End, seconds since the tracer origin.
    pub end: f64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

/// A span recorder. A disabled tracer records nothing and only runs the
/// wrapped calls, so a replay can be timed with tracing off.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer that records when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        if !self.enabled {
            return;
        }
        let now = self.origin.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            start: now,
            end: now,
            parent: self.open.last().copied(),
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        if !self.enabled {
            return;
        }
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = self.origin.elapsed().as_secs_f64();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per span name: each span's duration minus its children's.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut own: Vec<f64> = spans.iter().map(|s| s.end - s.start).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] -= s.end - s.start;
        }
    }
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        *by_name.entry(s.name).or_insert(0.0) += t;
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: f64, end: f64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_times_sum_to_the_root() {
        let spans = vec![
            span("root", 0.0, 10.0, None),
            span("cell", 1.0, 6.0, Some(0)),
            span("sim", 2.0, 5.0, Some(1)),
            span("cell", 6.0, 9.0, Some(0)),
            span("sim", 6.5, 8.5, Some(3)),
        ];
        let t = self_times(&spans);
        assert!((t["root"] - 2.0).abs() < 1e-12);
        assert!((t["cell"] - 3.0).abs() < 1e-12);
        assert!((t["sim"] - 5.0).abs() < 1e-12);
        assert!((t.values().sum::<f64>() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_runs_the_call() {
        let mut t = Tracer::new(false);
        assert_eq!(t.span("x", || 7), 7);
        assert!(t.spans().is_empty());
        let mut on = Tracer::new(true);
        on.enter("root");
        on.span("leaf", || ());
        on.exit();
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
    }
}
