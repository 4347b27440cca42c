//! Hierarchical wall-clock span profiler.
//!
//! The profiler answers "where does *wall-clock* time go inside a run" —
//! the complement of the trace-event stream, which explains where
//! *simulated* time and messages go. It follows the same gating
//! discipline as [`crate::NoopSink`]: a disabled [`Profiler`] is a `None`
//! and [`Profiler::span`] returns an inert guard without reading the
//! clock or touching a lock, so instrumented hot paths cost one branch
//! when profiling is off.
//!
//! Spans form a tree. Opening a span pushes a frame; dropping its
//! [`SpanGuard`] pops the frame and charges the elapsed wall-clock time
//! to the span's *path* — the chain of ancestor names, so
//! `kafkasim.dispatch` under `desim.run-slice` aggregates separately
//! from a hypothetical top-level `kafkasim.dispatch`. Guards must be
//! dropped in LIFO order (the natural result of holding them in local
//! scopes), which the [`span!`](crate::span!) macro guarantees.
//!
//! Two export formats come out of a [`SpanProfile`] snapshot:
//!
//! * [`SpanProfile::to_chrome_trace`] — a Chrome trace-event JSON array
//!   of `B`/`E` duration events, loadable in Perfetto / `chrome://tracing`;
//! * [`SpanProfile::to_folded`] — folded flamegraph stacks
//!   (`parent;child self-time`), consumable by standard flamegraph tools.
//!
//! Aggregation (call counts, total and self time per path) is exact even
//! when the per-span record buffer hits its cap; only the replayable
//! event list is bounded.

use std::collections::HashMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Per-path bookkeeping: the interned span tree node.
#[derive(Debug, Clone, Copy)]
struct PathNode {
    parent: Option<usize>,
    name: &'static str,
    depth: usize,
}

/// Exact aggregate for one path, maintained on every span close.
#[derive(Debug, Clone, Copy, Default)]
struct Agg {
    calls: u64,
    total_ns: u64,
    child_ns: u64,
}

/// One closed span instance, kept (up to a cap) for trace export.
#[derive(Debug, Clone, Copy)]
struct Record {
    path: usize,
    start_ns: u64,
    end_ns: u64,
}

/// An open span on the stack.
#[derive(Debug, Clone, Copy)]
struct Frame {
    path: usize,
    start_ns: u64,
}

/// How many closed spans are kept verbatim for the Chrome trace before
/// further spans only feed the (exact) aggregates.
const RECORD_CAP: usize = 1 << 20;

#[derive(Debug)]
struct Inner {
    t0: Instant,
    stack: Vec<Frame>,
    index: HashMap<(Option<usize>, &'static str), usize>,
    paths: Vec<PathNode>,
    agg: Vec<Agg>,
    records: Vec<Record>,
    dropped: u64,
}

impl Inner {
    fn new() -> Self {
        Inner {
            t0: Instant::now(),
            stack: Vec::new(),
            index: HashMap::new(),
            paths: Vec::new(),
            agg: Vec::new(),
            records: Vec::new(),
            dropped: 0,
        }
    }

    fn intern(&mut self, parent: Option<usize>, name: &'static str) -> usize {
        if let Some(&idx) = self.index.get(&(parent, name)) {
            return idx;
        }
        let depth = parent.map_or(0, |p| self.paths[p].depth + 1);
        let idx = self.paths.len();
        self.paths.push(PathNode {
            parent,
            name,
            depth,
        });
        self.agg.push(Agg::default());
        self.index.insert((parent, name), idx);
        idx
    }

    fn full_path(&self, mut idx: usize) -> String {
        let mut names = Vec::with_capacity(self.paths[idx].depth + 1);
        loop {
            names.push(self.paths[idx].name);
            match self.paths[idx].parent {
                Some(p) => idx = p,
                None => break,
            }
        }
        names.reverse();
        names.join(";")
    }
}

/// A cloneable handle to a span profiler, or a disabled placeholder.
///
/// Cloning shares the underlying recorder, so the same profiler can be
/// threaded through the simulator, the planner and the trainer and all
/// their spans land in one tree. The handle is `Send + Sync`; spans must
/// still open and close in LIFO order within one logical flow.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Profiler {
    /// A disabled profiler: [`Profiler::span`] is a no-op costing one
    /// branch, no clock read, no allocation, no lock.
    #[must_use]
    pub fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// An enabled profiler with its own clock origin and empty span tree.
    #[must_use]
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(Mutex::new(Inner::new()))),
        }
    }

    /// Opens a span named `name` under the currently open span (if any).
    ///
    /// The span closes — and its wall-clock duration is charged — when
    /// the returned guard drops. `name` is `&'static str` so interning
    /// never copies; use stable, dot-namespaced names
    /// (`"kafkasim.dispatch"`).
    #[inline]
    pub fn span(&self, name: &'static str) -> SpanGuard {
        SpanGuard {
            inner: self.inner.as_ref().map(|arc| open(arc, name)),
        }
    }

    /// Snapshots the recorded span tree. Returns an empty profile when
    /// disabled. Open (not yet dropped) spans are not included.
    #[must_use]
    pub fn snapshot(&self) -> SpanProfile {
        let Some(arc) = &self.inner else {
            return SpanProfile::default();
        };
        let g = arc.lock().expect("profiler mutex poisoned");
        let spans = g
            .paths
            .iter()
            .enumerate()
            .map(|(idx, node)| {
                let a = g.agg[idx];
                SpanStat {
                    path: g.full_path(idx),
                    name: node.name.to_string(),
                    depth: node.depth as u64,
                    calls: a.calls,
                    total_ns: a.total_ns,
                    self_ns: a.total_ns.saturating_sub(a.child_ns),
                }
            })
            .collect();
        let events = g
            .records
            .iter()
            .map(|r| SpanEvent {
                name: g.paths[r.path].name.to_string(),
                path: g.full_path(r.path),
                depth: g.paths[r.path].depth as u64,
                start_ns: r.start_ns,
                end_ns: r.end_ns,
            })
            .collect();
        SpanProfile {
            spans,
            events,
            dropped: g.dropped,
        }
    }
}

fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// The recording arm of [`Profiler::span`], out of line so that the
/// disabled path is the `None` test alone at every instrumented site.
#[cold]
#[inline(never)]
fn open(arc: &Arc<Mutex<Inner>>, name: &'static str) -> Arc<Mutex<Inner>> {
    let mut g = arc.lock().expect("profiler mutex poisoned");
    let now_ns = elapsed_ns(g.t0);
    let parent = g.stack.last().map(|f| f.path);
    let path = g.intern(parent, name);
    g.stack.push(Frame {
        path,
        start_ns: now_ns,
    });
    Arc::clone(arc)
}

/// The recording arm of [`SpanGuard`]'s drop: charges the innermost open
/// span its wall-clock duration.
#[cold]
#[inline(never)]
fn close(arc: &Mutex<Inner>) {
    let mut g = arc.lock().expect("profiler mutex poisoned");
    let now_ns = elapsed_ns(g.t0);
    let Some(frame) = g.stack.pop() else {
        return;
    };
    let end_ns = now_ns.max(frame.start_ns);
    let dur = end_ns - frame.start_ns;
    g.agg[frame.path].calls += 1;
    g.agg[frame.path].total_ns += dur;
    if let Some(parent) = g.paths[frame.path].parent {
        g.agg[parent].child_ns += dur;
    }
    if g.records.len() < RECORD_CAP {
        g.records.push(Record {
            path: frame.path,
            start_ns: frame.start_ns,
            end_ns,
        });
    } else {
        g.dropped += 1;
    }
}

/// Closes its span when dropped. Obtain via [`Profiler::span`] or the
/// [`span!`](crate::span!) macro; hold in a local so it drops at scope
/// end, in LIFO order with any nested guards.
#[derive(Debug)]
#[must_use = "a span is timed until its guard drops; binding it to `_` closes it immediately"]
pub struct SpanGuard {
    inner: Option<Arc<Mutex<Inner>>>,
}

impl Drop for SpanGuard {
    #[inline]
    fn drop(&mut self) {
        if let Some(arc) = &self.inner {
            close(arc);
        }
    }
}

/// Opens a profiler span for the rest of the enclosing scope.
///
/// ```
/// let prof = obs::Profiler::enabled();
/// {
///     obs::span!(prof, "outer");
///     obs::span!(prof, "inner"); // nests under "outer"
/// }
/// assert_eq!(prof.snapshot().events.len(), 2);
/// ```
#[macro_export]
macro_rules! span {
    ($prof:expr, $name:expr) => {
        let _obs_span_guard = $prof.span($name);
    };
}

/// Exact aggregate for one span path.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanStat {
    /// Semicolon-joined ancestor chain, root first (`"a;b;c"`).
    pub path: String,
    /// Leaf name of the span.
    pub name: String,
    /// Nesting depth (root spans are 0).
    pub depth: u64,
    /// How many times this path was entered and closed.
    pub calls: u64,
    /// Total wall-clock nanoseconds inside this path, children included.
    pub total_ns: u64,
    /// Wall-clock nanoseconds inside this path minus recorded children.
    pub self_ns: u64,
}

/// One closed span instance, for trace export.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SpanEvent {
    /// Leaf name of the span.
    pub name: String,
    /// Semicolon-joined ancestor chain, root first.
    pub path: String,
    /// Nesting depth (root spans are 0).
    pub depth: u64,
    /// Wall-clock nanoseconds from profiler start when the span opened.
    pub start_ns: u64,
    /// Wall-clock nanoseconds from profiler start when the span closed.
    pub end_ns: u64,
}

/// Immutable snapshot of a profiler: exact per-path aggregates plus a
/// (possibly capped) list of individual span instances.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SpanProfile {
    /// Exact aggregates, one per distinct span path, in interning order.
    pub spans: Vec<SpanStat>,
    /// Individual closed spans, capped; see `dropped`.
    pub events: Vec<SpanEvent>,
    /// Spans that closed after the record cap was hit (they still count
    /// in `spans`).
    pub dropped: u64,
}

/// One Chrome trace-event object (`ph` is `"B"` or `"E"`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct ChromeEvent {
    name: String,
    cat: String,
    ph: String,
    ts: f64,
    pid: u64,
    tid: u64,
}

impl SpanProfile {
    /// Renders the recorded spans as a Chrome trace-event JSON array of
    /// `B`/`E` duration events (timestamps in microseconds), loadable in
    /// Perfetto or `chrome://tracing`.
    ///
    /// Ties in time are ordered so nesting stays well-formed: closes of
    /// deeper spans come before closes of shallower ones, and all closes
    /// at an instant precede opens at the same instant.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        // (ts_ns, open?, tie-break, event index)
        let mut endpoints: Vec<(u64, bool, u64, usize)> = Vec::with_capacity(self.events.len() * 2);
        for (i, ev) in self.events.iter().enumerate() {
            endpoints.push((ev.start_ns, true, ev.depth, i));
            endpoints.push((ev.end_ns, false, u64::MAX - ev.depth, i));
        }
        // At equal ts: E before B (false < true), deeper E first
        // (u64::MAX - depth ascending), shallower B first (depth
        // ascending).
        endpoints.sort_by_key(|&(ts, open, tie, idx)| (ts, open, tie, idx));
        let events: Vec<ChromeEvent> = endpoints
            .into_iter()
            .map(|(ts_ns, open, _, idx)| {
                let ev = &self.events[idx];
                ChromeEvent {
                    name: ev.name.clone(),
                    cat: category_of(&ev.name).to_string(),
                    ph: if open { "B" } else { "E" }.to_string(),
                    ts: ts_ns as f64 / 1_000.0,
                    pid: 1,
                    tid: 1,
                }
            })
            .collect();
        serde_json::to_string(&events).expect("span trace serialises")
    }

    /// Renders the aggregates as folded flamegraph stacks: one line per
    /// path, `a;b;c <self-time-in-microseconds>`.
    #[must_use]
    pub fn to_folded(&self) -> String {
        let mut out = String::new();
        for s in &self.spans {
            if s.calls == 0 {
                continue;
            }
            out.push_str(&s.path);
            out.push(' ');
            out.push_str(&(s.self_ns / 1_000).to_string());
            out.push('\n');
        }
        out
    }

    /// Total wall-clock nanoseconds across root spans.
    #[must_use]
    pub fn root_total_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.depth == 0)
            .map(|s| s.total_ns)
            .sum()
    }
}

/// The crate prefix of a dot-namespaced span name, used as the Chrome
/// trace category (`"kafkasim.dispatch"` → `"kafkasim"`).
fn category_of(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let prof = Profiler::disabled();
        assert!(prof.inner.is_none());
        {
            let _a = prof.span("a");
            let _b = prof.span("b");
        }
        let snap = prof.snapshot();
        assert!(snap.spans.is_empty());
        assert!(snap.events.is_empty());
        assert_eq!(snap.dropped, 0);
    }

    #[test]
    fn nested_spans_build_one_tree() {
        let prof = Profiler::enabled();
        {
            let _outer = prof.span("outer");
            {
                let _inner = prof.span("inner");
            }
            {
                let _inner = prof.span("inner");
            }
        }
        {
            let _outer = prof.span("outer");
        }
        let snap = prof.snapshot();
        assert_eq!(snap.events.len(), 4);
        let outer = snap.spans.iter().find(|s| s.path == "outer").unwrap();
        let inner = snap.spans.iter().find(|s| s.path == "outer;inner").unwrap();
        assert_eq!(outer.calls, 2);
        assert_eq!(inner.calls, 2);
        assert_eq!(outer.depth, 0);
        assert_eq!(inner.depth, 1);
        assert!(outer.total_ns >= inner.total_ns);
        assert!(outer.self_ns <= outer.total_ns);
    }

    #[test]
    fn same_name_under_different_parents_interns_separately() {
        let prof = Profiler::enabled();
        {
            let _a = prof.span("a");
            let _x = prof.span("x");
        }
        {
            let _b = prof.span("b");
            let _x = prof.span("x");
        }
        let snap = prof.snapshot();
        let paths: Vec<&str> = snap.spans.iter().map(|s| s.path.as_str()).collect();
        assert!(paths.contains(&"a;x"));
        assert!(paths.contains(&"b;x"));
    }

    #[test]
    fn span_macro_nests_in_declaration_order() {
        let prof = Profiler::enabled();
        {
            span!(prof, "outer");
            span!(prof, "inner");
        }
        let snap = prof.snapshot();
        assert!(snap.spans.iter().any(|s| s.path == "outer;inner"));
    }

    #[test]
    fn chrome_trace_is_valid_json_with_balanced_events() {
        let prof = Profiler::enabled();
        {
            let _a = prof.span("a");
            let _b = prof.span("b");
        }
        let trace = prof.snapshot().to_chrome_trace();
        let value = serde_json::from_str(&trace).expect("chrome trace parses");
        let serde::Value::Seq(items) = value else {
            panic!("chrome trace is not an array");
        };
        assert_eq!(items.len(), 4);
        let mut depth = 0i64;
        for item in &items {
            let serde::Value::Map(m) = item else {
                panic!("event is not an object")
            };
            let Some((_, serde::Value::Str(ph))) = m.iter().find(|(k, _)| k == "ph") else {
                panic!("missing ph")
            };
            match ph.as_str() {
                "B" => depth += 1,
                "E" => depth -= 1,
                other => panic!("unexpected phase {other}"),
            }
            assert!(depth >= 0, "E without matching B");
        }
        assert_eq!(depth, 0, "unbalanced B/E events");
    }

    #[test]
    fn folded_output_lists_each_path_once() {
        let prof = Profiler::enabled();
        {
            let _a = prof.span("a");
            let _b = prof.span("b");
        }
        let folded = prof.snapshot().to_folded();
        let lines: Vec<&str> = folded.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().any(|l| l.starts_with("a ")));
        assert!(lines.iter().any(|l| l.starts_with("a;b ")));
    }

    #[test]
    fn profile_snapshot_round_trips_through_json() {
        let prof = Profiler::enabled();
        {
            let _a = prof.span("a");
        }
        let snap = prof.snapshot();
        let json = serde_json::to_string(&snap).expect("profile serialises");
        let back: SpanProfile = serde_json::from_str(&json).expect("profile parses");
        assert_eq!(back, snap);
    }
}
