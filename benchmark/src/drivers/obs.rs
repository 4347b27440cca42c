//! `obs`: what the sink and the profiler cost a run, interleaved
//! min-of-N on the workload's first point so host drift hits every path
//! equally.

use kafkasim::runtime::KafkaRun;
use obs::{NoopSink, Profiler, RingBufferSink};

use crate::metrics::Metrics;
use crate::workloads::{per_s, ratio, timed};

const REPS: usize = 5;

/// `run` builds the same run afresh for every path. `execute()` attaches a
/// `NoopSink` itself, so `obs.noop_over_untraced` compares one code path
/// with itself: what it reads away from 1 is the noise of the method.
pub fn run(run: &dyn Fn() -> KafkaRun, out: &mut Metrics) {
    let mut best = [u64::MAX; 4];
    let mut events = 0;
    for _ in 0..REPS {
        let (untraced, ns) = timed(|| run().execute());
        best[0] = best[0].min(ns);
        let ((noop, _), ns) = timed(|| run().execute_traced(Box::new(NoopSink)));
        best[1] = best[1].min(ns);
        let ((profiled, _), ns) =
            timed(|| run().execute_profiled(Box::new(NoopSink), Profiler::enabled()));
        best[2] = best[2].min(ns);
        let ((ringed, mut sink), ns) =
            timed(|| run().execute_traced(Box::new(RingBufferSink::new(1 << 22))));
        best[3] = best[3].min(ns);
        events = sink.drain().len();
        assert!(
            untraced == noop && untraced == profiled && untraced == ringed,
            "tracing and profiling must not perturb the simulation"
        );
    }
    let base = best[0] as f64;
    out.set("obs.noop_over_untraced", ratio(best[1] as f64, base));
    out.set("obs.profiled_over_untraced", ratio(best[2] as f64, base));
    out.set("obs.ring.events_per_s", per_s(events as f64, best[3]));
    out.set("obs.trace_events", events as f64);
}
