//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A disabled tracer only runs the closures; an enabled one keeps
//! every span (name, layer, start, end, parent, operation) until the run
//! ends and [`Tracer::write`] saves them.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Layer of the benchmark harness itself (verification, input binding).
pub const HARNESS: &str = "bench";

/// One recorded interval.
#[derive(Debug, Clone)]
pub struct Span {
    /// Index in the tracer's span list.
    pub id: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// The operation (round or request batch) the span belongs to; 0 means
    /// set-up or a probe outside any operation.
    pub op: u64,
    /// Layer (crate) the call went into.
    pub layer: &'static str,
    /// What was called.
    pub name: String,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Span recorder for one thread of the benchmark.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Vec<Span>>,
    stack: RefCell<Vec<usize>>,
    op: Cell<u64>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or only runs the closures.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::new(Vec::new()),
            stack: RefCell::new(Vec::new()),
            op: Cell::new(0),
        }
    }

    /// Run `f` inside a span of `layer` named `name`.
    pub fn span<T>(&self, layer: &'static str, name: &str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let id = {
            let mut spans = self.spans.borrow_mut();
            let id = spans.len();
            spans.push(Span {
                id,
                parent: self.stack.borrow().last().copied(),
                op: self.op.get(),
                layer,
                name: name.to_string(),
                start_ns: self.now_ns(),
                end_ns: 0,
            });
            id
        };
        self.stack.borrow_mut().push(id);
        let out = f();
        self.stack.borrow_mut().pop();
        self.spans.borrow_mut()[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` as operation `op`: a root harness span named `op` whose
    /// children are the layer calls the operation makes.
    pub fn op<T>(&self, op: u64, f: impl FnOnce() -> T) -> T {
        let prev = self.op.replace(op);
        let out = self.span(HARNESS, "op", f);
        self.op.set(prev);
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Save the spans as JSON lines.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans.borrow().iter() {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"op\": {}, \"layer\": \"{}\", \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.op,
                s.layer,
                s.name,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Per-operation sums (ms) of the spans `pick` selects, one entry per
/// operation that has a root `op` span, in operation order.
pub fn per_op(spans: &[Span], pick: impl Fn(&Span) -> bool) -> Vec<f64> {
    let mut sums: BTreeMap<u64, f64> = spans
        .iter()
        .filter(|s| s.op > 0 && s.parent.is_none())
        .map(|s| (s.op, 0.0))
        .collect();
    for s in spans.iter().filter(|s| pick(s)) {
        if let Some(sum) = sums.get_mut(&s.op) {
            *sum += s.ms();
        }
    }
    sums.into_values().collect()
}

/// Self time per layer (ms), summed over all operation spans: each span's
/// duration minus the part its child spans cover.
pub fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut child_ms = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_ms[p] += s.ms();
        }
    }
    let mut out = BTreeMap::new();
    for s in spans.iter().filter(|s| s.op > 0) {
        *out.entry(s.layer).or_insert(0.0) += s.ms() - child_ms[s.id];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_ops_are_rooted() {
        let t = Tracer::new(true);
        for op in 1..=2 {
            t.op(op, || {
                t.span("core", "extract", || {
                    t.span("dbi", "trace", || {
                        std::thread::sleep(std::time::Duration::from_millis(2))
                    });
                });
            });
        }
        t.span("core", "setup", || ());
        let spans = t.spans();
        assert_eq!(spans.len(), 7);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!(spans[6].op, 0, "set-up spans belong to no operation");
        let ops = per_op(&spans, |s| s.layer == "dbi");
        assert_eq!(ops.len(), 2);
        assert!(ops.iter().all(|&ms| ms >= 2.0));
        let by_layer = self_ms_by_layer(&spans);
        let total: f64 = by_layer.values().sum();
        let roots: f64 = spans
            .iter()
            .filter(|s| s.parent.is_none() && s.op > 0)
            .map(Span::ms)
            .sum();
        assert!(
            (total - roots).abs() < 1e-9,
            "self times add up to the operations"
        );
        assert!(by_layer["dbi"] >= 4.0);
        let off = Tracer::new(false);
        assert_eq!(off.op(1, || off.span("core", "x", || 7)), 7);
        assert!(off.spans().is_empty());
    }
}
