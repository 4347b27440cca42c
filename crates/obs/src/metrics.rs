//! A metrics registry fed by trace events.
//!
//! [`MetricsSink`] folds the event stream into counters (one per event
//! kind, one per loss cause), latency histograms (end-to-end delivery
//! latency, produce-request RTT, batch fill) and a time-weighted gauge of
//! messages outstanding inside the pipeline — all built on
//! [`desim::stats`].

use std::collections::BTreeMap;

use desim::stats::{Histogram, RunningMoments, TimeWeighted};
use desim::SimTime;
use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;
use crate::sink::TraceSink;

/// Counters, histograms and gauges folded from a trace.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    e2e_latency_s: Histogram,
    e2e_moments: RunningMoments,
    rtt_s: Histogram,
    rtt_moments: RunningMoments,
    batch_fill: Histogram,
    batch_moments: RunningMoments,
    outstanding: TimeWeighted,
    outstanding_now: f64,
    last_at: SimTime,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl MetricsRegistry {
    /// An empty registry.
    ///
    /// Histogram ranges cover the regimes the paper's experiments visit:
    /// end-to-end latency up to 60 s (messages ride out multi-second retry
    /// loops), RTT up to 5 s (RTO backoff under heavy loss), batch fill up
    /// to 512 records; samples beyond a range land in the overflow bin and
    /// still count toward quantiles.
    #[must_use]
    pub fn new() -> Self {
        MetricsRegistry {
            counters: BTreeMap::new(),
            e2e_latency_s: Histogram::new(0.0, 60.0, 240),
            e2e_moments: RunningMoments::new(),
            rtt_s: Histogram::new(0.0, 5.0, 250),
            rtt_moments: RunningMoments::new(),
            batch_fill: Histogram::new(0.0, 512.0, 128),
            batch_moments: RunningMoments::new(),
            outstanding: TimeWeighted::new(SimTime::ZERO, 0.0),
            outstanding_now: 0.0,
            last_at: SimTime::ZERO,
        }
    }

    /// Folds one event into the registry.
    pub fn observe(&mut self, ev: &TraceEvent) {
        let at = ev.at();
        self.last_at = self.last_at.max(at);
        *self.counters.entry(ev.kind().to_string()).or_insert(0) += 1;
        match ev {
            TraceEvent::Enqueued { .. } => self.set_outstanding(at, 1.0),
            TraceEvent::Expired { cause, .. } => {
                *self.counters.entry(format!("lost-{cause}")).or_insert(0) += 1;
                self.set_outstanding(at, -1.0);
            }
            TraceEvent::BatchFormed { keys, .. } => {
                let fill = keys.len() as f64;
                self.batch_fill.record(fill);
                self.batch_moments.record(fill);
            }
            TraceEvent::AckReceived { rtt, .. } => {
                let s = rtt.as_secs_f64();
                self.rtt_s.record(s);
                self.rtt_moments.record(s);
            }
            TraceEvent::ConnectionReset { lost_keys, .. } => {
                if !lost_keys.is_empty() {
                    *self
                        .counters
                        .entry("lost-connection-reset".to_string())
                        .or_insert(0) += lost_keys.len() as u64;
                    self.set_outstanding(at, -(lost_keys.len() as f64));
                }
            }
            TraceEvent::BrokerAppend {
                duplicate, latency, ..
            } => {
                if *duplicate {
                    *self
                        .counters
                        .entry("broker-append-duplicate".to_string())
                        .or_insert(0) += 1;
                } else {
                    // First copy persisted: the message left the pipeline,
                    // and this copy's latency is the end-to-end delivery
                    // latency the audit will report for the key.
                    let s = latency.as_secs_f64();
                    self.e2e_latency_s.record(s);
                    self.e2e_moments.record(s);
                    self.set_outstanding(at, -1.0);
                }
            }
            TraceEvent::LeaderElected {
                clean, lost_keys, ..
            } => {
                if !clean {
                    *self
                        .counters
                        .entry("unclean-election".to_string())
                        .or_insert(0) += 1;
                }
                if !lost_keys.is_empty() {
                    *self
                        .counters
                        .entry("lost-leader-failover".to_string())
                        .or_insert(0) += lost_keys.len() as u64;
                }
            }
            TraceEvent::CounterSample { name, value, .. } => {
                // Samples carry the source's cumulative total, so the
                // registry keeps the latest value rather than summing.
                self.counters.insert(name.clone(), *value);
            }
            TraceEvent::RequestSent { .. }
            | TraceEvent::Retry { .. }
            | TraceEvent::ConsumerRead { .. }
            | TraceEvent::ReplicaFetch { .. }
            | TraceEvent::IsrShrink { .. }
            | TraceEvent::IsrExpand { .. }
            | TraceEvent::BrokerDown { .. }
            | TraceEvent::BrokerUp { .. }
            | TraceEvent::ConsumerJoined { .. }
            | TraceEvent::ConsumerLeft { .. }
            | TraceEvent::PartitionsAssigned { .. }
            | TraceEvent::PolicyDrift { .. }
            | TraceEvent::PolicyRefit { .. } => {}
        }
    }

    fn set_outstanding(&mut self, at: SimTime, delta: f64) {
        self.outstanding_now = (self.outstanding_now + delta).max(0.0);
        self.outstanding.set(at, self.outstanding_now);
    }

    /// Adds `n` to a named counter, creating it at zero first. This is the
    /// door for non-trace sources (planner caches, controllers) to publish
    /// their tallies next to the trace-derived metrics.
    pub fn add_to_counter(&mut self, name: &str, n: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// A counter by name (event kinds like `"broker-append"`, loss counters
    /// like `"lost-expired-in-buffer"`). Zero when never bumped.
    #[must_use]
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// All counters.
    #[must_use]
    pub fn counters(&self) -> &BTreeMap<String, u64> {
        &self.counters
    }

    /// End-to-end (producer enqueue → broker append) latency, seconds.
    #[must_use]
    pub fn e2e_latency(&self) -> &Histogram {
        &self.e2e_latency_s
    }

    /// Produce-request round-trip time, seconds (`acks=1` only).
    #[must_use]
    pub fn rtt(&self) -> &Histogram {
        &self.rtt_s
    }

    /// Records per formed batch.
    #[must_use]
    pub fn batch_fill(&self) -> &Histogram {
        &self.batch_fill
    }

    /// Mean records per formed batch, when any batch formed.
    #[must_use]
    pub fn batch_fill_mean(&self) -> Option<f64> {
        (self.batch_moments.count() > 0).then(|| self.batch_moments.mean())
    }

    /// Time-weighted average of messages outstanding in the pipeline
    /// (enqueued but not yet persisted or dropped), up to the last event.
    #[must_use]
    pub fn outstanding_avg(&self) -> f64 {
        self.outstanding.average(self.last_at)
    }

    /// Condenses the registry into a serialisable summary.
    #[must_use]
    pub fn summary(&self) -> MetricsSummary {
        MetricsSummary {
            counters: self.counters.clone(),
            e2e_latency_s: HistogramSummary::from_parts(&self.e2e_latency_s, &self.e2e_moments),
            rtt_s: HistogramSummary::from_parts(&self.rtt_s, &self.rtt_moments),
            batch_fill: HistogramSummary::from_parts(&self.batch_fill, &self.batch_moments),
            outstanding_avg: self.outstanding_avg(),
        }
    }
}

/// Point statistics of one histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Samples recorded.
    pub count: u64,
    /// Sample mean (0 when empty).
    pub mean: f64,
    /// Median, when any sample exists.
    pub p50: Option<f64>,
    /// 90th percentile.
    pub p90: Option<f64>,
    /// 99th percentile.
    pub p99: Option<f64>,
    /// Largest sample (0 when empty).
    pub max: f64,
}

impl HistogramSummary {
    fn from_parts(hist: &Histogram, moments: &RunningMoments) -> Self {
        HistogramSummary {
            count: hist.total(),
            mean: moments.mean(),
            p50: hist.quantile(0.5),
            p90: hist.quantile(0.9),
            p99: hist.quantile(0.99),
            max: moments.max().unwrap_or(0.0),
        }
    }
}

/// The serialisable condensation of a [`MetricsRegistry`].
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSummary {
    /// Event-kind and loss-cause counters.
    pub counters: BTreeMap<String, u64>,
    /// End-to-end delivery latency (seconds).
    pub e2e_latency_s: HistogramSummary,
    /// Produce-request RTT (seconds).
    pub rtt_s: HistogramSummary,
    /// Records per formed batch.
    pub batch_fill: HistogramSummary,
    /// Time-weighted average of messages outstanding in the pipeline.
    pub outstanding_avg: f64,
}

/// A sink that keeps no events: it folds each one into a
/// [`MetricsRegistry`] as it arrives.
#[derive(Debug, Clone, Default)]
pub struct MetricsSink {
    registry: MetricsRegistry,
}

impl MetricsSink {
    /// An empty metrics sink.
    #[must_use]
    pub fn new() -> Self {
        MetricsSink::default()
    }

    /// The accumulated registry.
    #[must_use]
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }
}

impl TraceSink for MetricsSink {
    fn record(&mut self, event: TraceEvent) {
        self.registry.observe(&event);
    }

    fn metrics(&self) -> Option<&MetricsRegistry> {
        Some(&self.registry)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::LossCause;
    use desim::SimDuration;

    #[test]
    fn counters_histograms_and_gauge_fold_correctly() {
        let mut sink = MetricsSink::new();
        sink.record(TraceEvent::Enqueued {
            at: SimTime::ZERO,
            key: 0,
            partition: 0,
            deadline: SimTime::from_millis(500),
        });
        sink.record(TraceEvent::BatchFormed {
            at: SimTime::from_millis(10),
            batch: 0,
            partition: 0,
            keys: vec![0],
            bytes: 200,
        });
        sink.record(TraceEvent::AckReceived {
            at: SimTime::from_millis(120),
            batch: 0,
            request: 0,
            conn: 0,
            epoch: 0,
            rtt: SimDuration::from_millis(100),
        });
        sink.record(TraceEvent::BrokerAppend {
            at: SimTime::from_millis(70),
            batch: 0,
            request: 0,
            broker: 0,
            partition: 0,
            key: 0,
            offset: 0,
            latency: SimDuration::from_millis(70),
            duplicate: false,
            via_teardown: false,
        });
        sink.record(TraceEvent::Expired {
            at: SimTime::from_millis(600),
            key: 1,
            cause: LossCause::ExpiredInBuffer,
            batch: None,
        });
        sink.record(TraceEvent::ConsumerRead {
            at: SimTime::from_secs(2),
            key: 0,
            partition: 0,
            offset: 0,
            latency: SimDuration::from_millis(70),
        });

        let m = sink.registry();
        assert_eq!(m.counter("enqueued"), 1);
        assert_eq!(m.counter("ack-received"), 1);
        assert_eq!(m.counter("lost-expired-in-buffer"), 1);
        assert_eq!(m.counter("never-seen"), 0);
        assert_eq!(m.rtt().total(), 1);
        assert_eq!(m.e2e_latency().total(), 1);
        assert_eq!(m.batch_fill_mean(), Some(1.0));

        let s = m.summary();
        assert_eq!(s.rtt_s.count, 1);
        assert!((s.rtt_s.mean - 0.1).abs() < 1e-9);
        assert!(s.e2e_latency_s.p99.is_some());
        assert!(s.outstanding_avg >= 0.0);
    }

    #[test]
    fn amo_reset_losses_count_per_key() {
        let mut m = MetricsRegistry::new();
        m.observe(&TraceEvent::ConnectionReset {
            at: SimTime::from_millis(50),
            conn: 0,
            epoch: 0,
            lost_keys: vec![1, 2, 3],
        });
        assert_eq!(m.counter("lost-connection-reset"), 3);
        assert_eq!(m.counter("connection-reset"), 1);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let mut m = MetricsRegistry::new();
        m.observe(&TraceEvent::AckReceived {
            at: SimTime::from_millis(10),
            batch: 0,
            request: 0,
            conn: 0,
            epoch: 0,
            rtt: SimDuration::from_millis(10),
        });
        let s = m.summary();
        let text = serde_json::to_string(&s).unwrap();
        let back: MetricsSummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, s);
    }
}
