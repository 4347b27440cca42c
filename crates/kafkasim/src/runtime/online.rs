//! The online seam: window statistics, the controller consulted at each
//! window boundary, and reconfiguration (scheduled or decided online).

use std::sync::Arc;

use desim::{SimDuration, SimTime};
use netsim::Endpoint;
use obs::TraceEvent;
use serde::{Deserialize, Serialize};

use super::sender::kick_sender;
use super::{Ctx, Event, ProducerStats, World};
use crate::config::ProducerConfig;

/// Producer-side statistics over one observation window, handed to an
/// [`OnlineController`].
///
/// Everything here is observable by a *real* producer client: its own
/// counters and its transport's RTT estimate. Nothing peeks at the
/// simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WindowStats {
    /// End of the window.
    pub at: SimTime,
    /// Window length.
    pub window: SimDuration,
    /// Produce requests written in the window (including retries).
    pub requests_sent: u64,
    /// Requests acknowledged in the window (`acks=1` only).
    pub acks_received: u64,
    /// Retries issued in the window.
    pub retries: u64,
    /// Connections recycled in the window.
    pub connection_resets: u64,
    /// Messages expired producer-side in the window.
    pub expired: u64,
    /// Current accumulator backlog in messages.
    pub backlog: usize,
    /// Largest smoothed RTT across connections, in milliseconds.
    pub srtt_ms: Option<f64>,
    /// 99th-percentile produce-request RTT in milliseconds, when a metrics
    /// sink (`obs::MetricsSink`) is attached to the run.
    pub rtt_p99_ms: Option<f64>,
    /// 99th-percentile end-to-end delivery latency in milliseconds so far,
    /// when a metrics sink is attached.
    pub e2e_p99_ms: Option<f64>,
    /// Mean records per formed batch so far, when a metrics sink is
    /// attached.
    pub batch_fill_mean: Option<f64>,
}

/// An online configuration controller: decides, from the producer's own
/// recent statistics, whether to reconfigure.
///
/// This is the paper's deferred future work ("running an online algorithm
/// for dynamic configuration is beyond the scope of this paper"): unlike
/// the offline §V scheme, the network state is *estimated*, not known.
pub trait OnlineController: Send + Sync {
    /// Returns the configuration for the next window, or `None` to keep
    /// the current one.
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig>;

    /// Adds the controller's own counters (planner caches, replan tallies,
    /// …) to a metrics registry after a run. The default exports nothing;
    /// controllers with internal state override this so their bookkeeping
    /// shows up next to the trace-derived metrics.
    fn export_metrics(&self, registry: &mut obs::MetricsRegistry) {
        let _ = registry;
    }

    /// Moves any trace events the controller buffered since the last tick
    /// (drift detections, model refits) into `out`. The runtime drains at
    /// every online tick regardless of tracing — so controller buffers stay
    /// bounded — and records the drained events only on traced runs. The
    /// default drains nothing.
    fn drain_events(&self, out: &mut Vec<obs::TraceEvent>) {
        let _ = out;
    }
}

/// Online-control settings for a run.
#[derive(Clone)]
pub struct OnlineSpec {
    /// Observation-window length between decisions.
    pub interval: SimDuration,
    /// The controller consulted at each window boundary.
    pub controller: Arc<dyn OnlineController>,
}

impl core::fmt::Debug for OnlineSpec {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("OnlineSpec")
            .field("interval", &self.interval)
            .finish_non_exhaustive()
    }
}

/// A run's online control: its spec and the producer counters at the
/// start of the current window.
pub(super) struct Online {
    spec: OnlineSpec,
    window_base: ProducerStats,
}

impl Online {
    pub(super) fn new(spec: OnlineSpec) -> Self {
        Online {
            spec,
            window_base: ProducerStats::default(),
        }
    }
}

/// One observation-window boundary of the online controller.
pub(super) fn online_tick(w: &mut World, ctx: &mut Ctx) {
    let Some(state) = &mut w.online else {
        return;
    };
    let online = state.spec.clone();
    let now = ctx.now();
    let cur = w.stats;
    let base = std::mem::replace(&mut state.window_base, cur);
    let srtt_ms = w
        .conns
        .iter()
        .filter_map(|c| c.channel.srtt(Endpoint::A))
        .map(|d| d.as_secs_f64() * 1e3)
        .reduce(f64::max);
    let (rtt_p99_ms, e2e_p99_ms, batch_fill_mean) = match w.trace.metrics() {
        Some(m) => (
            m.rtt().quantile(0.99).map(|s| s * 1e3),
            m.e2e_latency().quantile(0.99).map(|s| s * 1e3),
            m.batch_fill_mean(),
        ),
        None => (None, None, None),
    };
    let stats = WindowStats {
        at: now,
        window: online.interval,
        requests_sent: cur.requests_sent - base.requests_sent,
        acks_received: cur.acks_received - base.acks_received,
        retries: cur.retries - base.retries,
        connection_resets: cur.connection_resets - base.connection_resets,
        expired: cur.expired - base.expired,
        backlog: w.accumulator.len(),
        srtt_ms,
        rtt_p99_ms,
        e2e_p99_ms,
        batch_fill_mean,
    };
    if let Some(new_cfg) = online.controller.decide(&stats, &w.cfg) {
        if new_cfg != w.cfg && new_cfg.validate().is_ok() {
            w.stats.online_reconfigurations += 1;
            apply_config(w, ctx, new_cfg);
        }
    }
    // Drain controller-buffered events (drift detections, refits) on every
    // tick so adaptive controllers never accumulate unbounded buffers; the
    // events reach the trace only on traced runs.
    let mut policy_events = Vec::new();
    online.controller.drain_events(&mut policy_events);
    if w.trace_on {
        for ev in policy_events {
            w.trace.record(ev);
        }
        // Interleave the controller's cumulative counters (planner cache
        // hits/misses, replans) into the trace so windowed recorders can
        // difference them per window. Observational only: nothing about
        // the run's decisions depends on these events.
        let mut reg = obs::MetricsRegistry::new();
        online.controller.export_metrics(&mut reg);
        for (name, value) in reg.counters() {
            w.trace.record(TraceEvent::CounterSample {
                at: now,
                name: name.clone(),
                value: *value,
            });
        }
    }
    // Keep observing while work remains.
    if !w.finished {
        ctx.schedule_in(online.interval, Event::OnlineTick);
    }
}

/// Switches the producer to `cfg` now: the accumulator takes the new batch
/// size and linger, and the sender looks for work under them.
pub(super) fn apply_config(w: &mut World, ctx: &mut Ctx, cfg: ProducerConfig) {
    let now = ctx.now();
    w.accumulator.reconfigure(cfg.batch_size, cfg.linger, now);
    w.cfg = cfg;
    kick_sender(w, ctx, now);
}
