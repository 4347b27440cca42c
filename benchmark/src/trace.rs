//! The benchmark-side span recorder.
//!
//! A span is opened around every call the benchmark makes into a layer.
//! Spans stay in memory and are written out once, as a Chrome trace, when
//! the run ends. With the recorder off, `span` is one branch and the call:
//! end-to-end metrics are only ever taken with it off.

use std::collections::BTreeMap;
use std::time::Instant;

/// One closed span. `parent` indexes the span that caused it; spans of one
/// job share `job`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub job: u32,
}

impl Span {
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

#[derive(Debug)]
pub struct Recorder {
    on: bool,
    t0: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    job: u32,
}

impl Recorder {
    #[must_use]
    pub fn new(on: bool) -> Self {
        Recorder {
            on,
            t0: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            job: 0,
        }
    }

    /// Switches recording; only between spans.
    pub fn set_on(&mut self, on: bool) {
        debug_assert!(self.stack.is_empty());
        self.on = on;
    }

    /// Names the job that spans opened from now on belong to.
    pub fn set_job(&mut self, job: u32) {
        self.job = job;
    }

    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.t0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            job: self.job,
        });
        self.stack.push(idx);
        let out = f(self);
        self.stack.pop();
        self.spans[idx].end_ns = self.now_ns().max(start_ns);
        out
    }

    /// The spans as a Chrome trace (`B`/`E` events), through the same
    /// writer `obs::SpanProfile` uses for the shipped profiler.
    #[must_use]
    pub fn to_chrome_trace(&self) -> String {
        let depth = |mut i: usize| {
            let mut d = 0;
            while let Some(p) = self.spans[i].parent {
                d += 1;
                i = p;
            }
            d
        };
        let events = (0..self.spans.len())
            .map(|i| obs::SpanEvent {
                name: self.spans[i].name.to_string(),
                path: String::new(),
                depth: depth(i),
                start_ns: self.spans[i].start_ns,
                end_ns: self.spans[i].end_ns,
            })
            .collect();
        obs::SpanProfile {
            spans: Vec::new(),
            events,
            dropped: 0,
        }
        .to_chrome_trace()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlaps counted once).
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if lo < hi {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Self time summed by span name.
#[must_use]
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut by_name = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        *by_name.entry(s.name).or_insert(0) += own;
    }
    by_name
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
            job: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("a.inner", 15, 25, Some(1)),
            span("b", 50, 70, Some(0)),
        ];
        // root: 100 - (30 + 20); a: 30 - 10; leaves keep their duration.
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["root"], 50);
        assert_eq!(by_name.values().sum::<u64>(), 100);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once() {
        let spans = [
            span("root", 10, 110, None),
            span("x", 20, 60, Some(0)),
            span("y", 40, 80, Some(0)),
            span("late", 100, 150, Some(0)),
        ];
        // Children cover [20, 80) and [100, 110) of the root.
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn recorder_nests_spans_and_is_inert_when_off() {
        let mut rec = Recorder::new(true);
        rec.set_job(7);
        let out = rec.span("outer", |r| r.span("inner", |_| 42));
        assert_eq!(out, 42);
        let spans = rec.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert!(spans.iter().all(|s| s.job == 7));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let trace = rec.to_chrome_trace();
        assert_eq!(trace.matches("\"ph\":\"B\"").count(), 2);
        assert_eq!(trace.matches("\"ph\":\"E\"").count(), 2);

        let mut off = Recorder::new(false);
        assert_eq!(off.span("outer", |_| 1), 1);
        assert!(off.spans().is_empty());
    }
}
