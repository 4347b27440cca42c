//! Windowed time-series KPIs folded from a trace.
//!
//! End-of-run summaries ([`crate::MetricsSummary`]) answer "how did the
//! run go overall"; this module answers "how did it *evolve*". The
//! recorder buckets the event stream into fixed simulated-time windows
//! and reports, per window:
//!
//! * delivery throughput (first-copy broker appends per second),
//! * p99 end-to-end latency (seconds, from the same histogram machinery
//!   the cumulative [`crate::MetricsRegistry`] uses),
//! * in-flight bytes (bytes sent in produce requests and not yet acked,
//!   retried, or torn down — sampled at the last event of the window and
//!   carried forward through silent windows),
//! * mean ISR size across partitions (carried forward; `0` until the
//!   first ISR event, i.e. for unreplicated runs),
//! * planner cache hits/misses and hit rate, differenced per window from
//!   the cumulative [`TraceEvent::CounterSample`] stream the online
//!   controller publishes.
//!
//! Windows are derived post-hoc from a recorded event slice
//! ([`WindowSeries::from_events`]), so any retaining sink — typically
//! [`crate::RingBufferSink`] — doubles as the recorder's source, and the
//! computation is a pure, deterministic function of the trace.
//!
//! Fleet runs additionally record a **per-tenant windowed KPI series**
//! ([`TenantSeries`]): one row per (window × tenant cohort) with the
//! cohort's produced/delivered/lost/duplicated counts plus the
//! run-wide consumer-group state (backlog, members, partitions moved by
//! rebalances) sampled at window close. The fleet engine pushes rows
//! directly (populations are too large to trace per message), so the
//! series is the windowed view of the per-tenant ledgers.

use std::collections::{BTreeMap, HashMap};

use desim::stats::Histogram;
use desim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::event::TraceEvent;

/// KPIs of one simulated-time window.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowRow {
    /// Window index (window 0 starts at simulated time zero).
    pub window: u64,
    /// Window start, simulated seconds.
    pub start_s: f64,
    /// Window end (exclusive), simulated seconds.
    pub end_s: f64,
    /// First-copy broker appends inside the window.
    pub appends: u64,
    /// `appends` per simulated second.
    pub throughput_per_s: f64,
    /// p99 end-to-end (enqueue → first append) latency of the appends in
    /// this window, seconds; `0` when the window had none.
    pub e2e_p99_s: f64,
    /// Bytes in flight (sent, not yet acked/retried/torn down) at the
    /// last event of the window; carried forward through silent windows.
    pub inflight_bytes: u64,
    /// Mean in-sync-replica set size across partitions, carried forward;
    /// `0` until the first ISR event (unreplicated runs stay at `0`).
    pub isr_size: f64,
    /// Planner cache hits inside the window (differenced from the
    /// cumulative counter-sample stream).
    pub cache_hits: u64,
    /// Planner cache misses inside the window.
    pub cache_misses: u64,
    /// `cache_hits / (cache_hits + cache_misses)`; `0` when neither.
    pub cache_hit_rate: f64,
}

/// A contiguous per-window KPI series covering a whole run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowSeries {
    /// Window length, simulated microseconds.
    pub window_us: u64,
    /// One row per window, from window 0 to the last window any event
    /// landed in. Empty when the trace held no events.
    pub rows: Vec<WindowRow>,
}

/// Scan-state accumulated for one window while folding the trace.
#[derive(Debug)]
struct WindowAcc {
    appends: u64,
    e2e: Histogram,
    inflight_last: Option<u64>,
    isr_last: Option<f64>,
    counters_last: BTreeMap<String, u64>,
}

impl WindowAcc {
    fn new() -> Self {
        WindowAcc {
            appends: 0,
            e2e: Histogram::new(0.0, 60.0, 240),
            inflight_last: None,
            isr_last: None,
            counters_last: BTreeMap::new(),
        }
    }
}

impl WindowSeries {
    /// Folds a recorded trace into per-window KPI rows.
    ///
    /// Events must be in recorded (simulated-time) order, which every
    /// sink preserves. `window` must be non-zero.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    #[must_use]
    pub fn from_events(events: &[TraceEvent], window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window length must be non-zero");
        let window_us = window.as_micros();

        let mut accs: BTreeMap<u64, WindowAcc> = BTreeMap::new();
        // request id → (conn id, request bytes) for everything in flight.
        let mut inflight: HashMap<u64, (u32, u64)> = HashMap::new();
        let mut inflight_bytes: u64 = 0;
        let mut isr_sizes: BTreeMap<u32, u64> = BTreeMap::new();

        for ev in events {
            let w = ev.at().as_micros() / window_us;
            let acc = accs.entry(w).or_insert_with(WindowAcc::new);
            match ev {
                TraceEvent::RequestSent {
                    request,
                    conn,
                    bytes,
                    ..
                } => {
                    if let Some((_, old)) = inflight.insert(*request, (*conn, *bytes)) {
                        inflight_bytes = inflight_bytes.saturating_sub(old);
                    }
                    inflight_bytes += bytes;
                    acc.inflight_last = Some(inflight_bytes);
                }
                TraceEvent::AckReceived { request, .. } | TraceEvent::Retry { request, .. } => {
                    if let Some((_, bytes)) = inflight.remove(request) {
                        inflight_bytes = inflight_bytes.saturating_sub(bytes);
                    }
                    acc.inflight_last = Some(inflight_bytes);
                }
                TraceEvent::ConnectionReset { conn, .. } => {
                    inflight.retain(|_, (c, bytes)| {
                        if *c == *conn {
                            inflight_bytes = inflight_bytes.saturating_sub(*bytes);
                            false
                        } else {
                            true
                        }
                    });
                    acc.inflight_last = Some(inflight_bytes);
                }
                TraceEvent::BrokerAppend {
                    duplicate: false,
                    latency,
                    ..
                } => {
                    acc.appends += 1;
                    acc.e2e.record(latency.as_secs_f64());
                }
                TraceEvent::IsrShrink { partition, isr, .. }
                | TraceEvent::IsrExpand { partition, isr, .. } => {
                    isr_sizes.insert(*partition, isr.len() as u64);
                    acc.isr_last = Some(mean_isr(&isr_sizes));
                }
                TraceEvent::LeaderElected { partition, .. } => {
                    // A fresh leader starts with itself as the ISR.
                    isr_sizes.insert(*partition, 1);
                    acc.isr_last = Some(mean_isr(&isr_sizes));
                }
                TraceEvent::CounterSample { name, value, .. } => {
                    acc.counters_last.insert(name.clone(), *value);
                }
                _ => {}
            }
        }

        let Some((&last_w, _)) = accs.iter().next_back() else {
            return WindowSeries {
                window_us,
                rows: Vec::new(),
            };
        };

        let window_s = window.as_secs_f64();
        let mut rows = Vec::with_capacity(usize::try_from(last_w + 1).unwrap_or(0));
        let mut carried_inflight: u64 = 0;
        let mut carried_isr: f64 = 0.0;
        let mut prev_hits: u64 = 0;
        let mut prev_misses: u64 = 0;
        for w in 0..=last_w {
            let (appends, e2e_p99_s, hits_cum, misses_cum) = match accs.get(&w) {
                Some(acc) => {
                    if let Some(b) = acc.inflight_last {
                        carried_inflight = b;
                    }
                    if let Some(i) = acc.isr_last {
                        carried_isr = i;
                    }
                    let p99 = acc.e2e.quantile(0.99).unwrap_or(0.0);
                    let hits = acc
                        .counters_last
                        .get("planner-cache-hit")
                        .copied()
                        .unwrap_or(prev_hits);
                    let misses = acc
                        .counters_last
                        .get("planner-cache-miss")
                        .copied()
                        .unwrap_or(prev_misses);
                    (acc.appends, p99, hits, misses)
                }
                None => (0, 0.0, prev_hits, prev_misses),
            };
            let cache_hits = hits_cum.saturating_sub(prev_hits);
            let cache_misses = misses_cum.saturating_sub(prev_misses);
            prev_hits = hits_cum;
            prev_misses = misses_cum;
            let probes = cache_hits + cache_misses;
            rows.push(WindowRow {
                window: w,
                start_s: w as f64 * window_s,
                end_s: (w + 1) as f64 * window_s,
                appends,
                throughput_per_s: appends as f64 / window_s,
                e2e_p99_s,
                inflight_bytes: carried_inflight,
                isr_size: carried_isr,
                cache_hits,
                cache_misses,
                cache_hit_rate: if probes == 0 {
                    0.0
                } else {
                    cache_hits as f64 / probes as f64
                },
            });
        }
        WindowSeries { window_us, rows }
    }

    /// Renders the series as CSV with a header row. Floats use six
    /// decimal places, so equal series render byte-identically.
    #[must_use]
    pub fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_s,end_s,appends,throughput_per_s,e2e_p99_s,\
             inflight_bytes,isr_size,cache_hits,cache_misses,cache_hit_rate\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.6},{:.6},{},{:.6},{:.6},{},{:.6},{},{},{:.6}\n",
                r.window,
                r.start_s,
                r.end_s,
                r.appends,
                r.throughput_per_s,
                r.e2e_p99_s,
                r.inflight_bytes,
                r.isr_size,
                r.cache_hits,
                r.cache_misses,
                r.cache_hit_rate,
            ));
        }
        out
    }

    /// Total first-copy appends across all windows.
    #[must_use]
    pub fn total_appends(&self) -> u64 {
        self.rows.iter().map(|r| r.appends).sum()
    }
}

/// KPIs of one tenant cohort over one simulated-time window of a fleet
/// run.
///
/// A *cohort* is the granularity the fleet engine windows tenants at —
/// one row per stream class per window, so a 1000-producer run stays a
/// few hundred rows while the per-tenant ledgers keep exact per-producer
/// attribution. The group columns (`backlog`, `moved_partitions`,
/// `group_members`) describe the whole run at window close and repeat
/// across the window's cohort rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantWindowRow {
    /// Window index (window 0 starts at simulated time zero).
    pub window: u64,
    /// Window start, simulated seconds.
    pub start_s: f64,
    /// Tenant cohort (stream-class) label.
    pub cohort: String,
    /// Producers in the cohort.
    pub producers: u64,
    /// Messages the cohort's producers emitted inside the window.
    pub produced: u64,
    /// Messages appended (first copy) inside the window.
    pub delivered: u64,
    /// Messages lost inside the window (all causes).
    pub lost: u64,
    /// Duplicate deliveries created inside the window (rebalance
    /// re-reads under at-least-once).
    pub duplicated: u64,
    /// Run-wide consumer backlog (appended − consumed) at window close.
    pub backlog: u64,
    /// Partitions that changed owner inside the window (rebalance storm
    /// size; `0` in churn-free windows).
    pub moved_partitions: u64,
    /// Consumer-group size at window close.
    pub group_members: u64,
}

/// The windowed per-tenant KPI series of a fleet run.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// use obs::{TenantSeries, TenantWindowRow};
///
/// let mut series = TenantSeries::new(SimDuration::from_secs(5));
/// series.push(TenantWindowRow {
///     window: 0,
///     start_s: 0.0,
///     cohort: "game-traffic".into(),
///     producers: 240,
///     produced: 1_200,
///     delivered: 1_180,
///     lost: 20,
///     duplicated: 0,
///     backlog: 35,
///     moved_partitions: 0,
///     group_members: 8,
/// });
/// assert_eq!(series.rows.len(), 1);
/// assert_eq!(series.max_moved_partitions(), 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantSeries {
    /// Window length, simulated microseconds.
    pub window_us: u64,
    /// Rows in (window, cohort-declaration) order.
    pub rows: Vec<TenantWindowRow>,
}

impl TenantSeries {
    /// Creates an empty series with the given window length.
    ///
    /// # Panics
    /// Panics when `window` is zero.
    #[must_use]
    pub fn new(window: SimDuration) -> Self {
        assert!(!window.is_zero(), "window length must be non-zero");
        TenantSeries {
            window_us: window.as_micros(),
            rows: Vec::new(),
        }
    }

    /// Appends one cohort-window row (fleet engine hook).
    pub fn push(&mut self, row: TenantWindowRow) {
        self.rows.push(row);
    }

    /// Renders the series as CSV with a header row. Floats use six
    /// decimal places, so equal series render byte-identically.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn to_csv(&self) -> String {
        let mut out = String::from(
            "window,start_s,cohort,producers,produced,delivered,lost,\
             duplicated,backlog,moved_partitions,group_members\n",
        );
        for r in &self.rows {
            out.push_str(&format!(
                "{},{:.6},{},{},{},{},{},{},{},{},{}\n",
                r.window,
                r.start_s,
                r.cohort,
                r.producers,
                r.produced,
                r.delivered,
                r.lost,
                r.duplicated,
                r.backlog,
                r.moved_partitions,
                r.group_members,
            ));
        }
        out
    }

    /// The largest `moved_partitions` across all windows — non-zero iff
    /// a rebalance moved ownership mid-run.
    #[must_use]
    pub fn max_moved_partitions(&self) -> u64 {
        self.rows
            .iter()
            .map(|r| r.moved_partitions)
            .max()
            .unwrap_or(0)
    }

    /// Sum of `produced` across all rows.
    #[must_use]
    pub fn total_produced(&self) -> u64 {
        self.rows.iter().map(|r| r.produced).sum()
    }
}

fn mean_isr(sizes: &BTreeMap<u32, u64>) -> f64 {
    if sizes.is_empty() {
        return 0.0;
    }
    sizes.values().sum::<u64>() as f64 / sizes.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDuration, SimTime};

    fn append(at_ms: u64, key: u64, latency_ms: u64) -> TraceEvent {
        TraceEvent::BrokerAppend {
            at: SimTime::from_millis(at_ms),
            batch: key,
            request: key,
            broker: 0,
            partition: 0,
            key,
            offset: key,
            latency: SimDuration::from_millis(latency_ms),
            duplicate: false,
            via_teardown: false,
        }
    }

    #[test]
    fn empty_trace_yields_empty_series() {
        let s = WindowSeries::from_events(&[], SimDuration::from_secs(1));
        assert!(s.rows.is_empty());
        assert_eq!(s.to_csv().lines().count(), 1); // header only
    }

    #[test]
    fn appends_bucket_into_their_windows() {
        let events = vec![append(100, 1, 50), append(900, 2, 50), append(2_500, 3, 50)];
        let s = WindowSeries::from_events(&events, SimDuration::from_secs(1));
        assert_eq!(s.rows.len(), 3);
        assert_eq!(s.rows[0].appends, 2);
        assert_eq!(s.rows[1].appends, 0);
        assert_eq!(s.rows[2].appends, 1);
        assert!((s.rows[0].throughput_per_s - 2.0).abs() < 1e-9);
        assert!(s.rows[0].e2e_p99_s > 0.0);
        assert_eq!(s.rows[1].e2e_p99_s, 0.0);
        assert_eq!(s.total_appends(), 3);
    }

    #[test]
    fn inflight_bytes_track_sends_acks_and_resets() {
        let events = vec![
            TraceEvent::RequestSent {
                at: SimTime::from_millis(10),
                batch: 1,
                request: 1,
                conn: 0,
                epoch: 0,
                attempt: 1,
                records: 1,
                bytes: 500,
            },
            TraceEvent::RequestSent {
                at: SimTime::from_millis(20),
                batch: 2,
                request: 2,
                conn: 1,
                epoch: 0,
                attempt: 1,
                records: 1,
                bytes: 300,
            },
            TraceEvent::AckReceived {
                at: SimTime::from_millis(1_200),
                batch: 1,
                request: 1,
                conn: 0,
                epoch: 0,
                rtt: SimDuration::from_millis(90),
            },
            TraceEvent::ConnectionReset {
                at: SimTime::from_millis(2_200),
                conn: 1,
                epoch: 0,
                lost_keys: vec![2],
            },
        ];
        let s = WindowSeries::from_events(&events, SimDuration::from_secs(1));
        assert_eq!(s.rows[0].inflight_bytes, 800);
        assert_eq!(s.rows[1].inflight_bytes, 300);
        assert_eq!(s.rows[2].inflight_bytes, 0);
    }

    #[test]
    fn gauges_carry_forward_through_silent_windows() {
        let events = vec![
            TraceEvent::IsrShrink {
                at: SimTime::from_millis(100),
                partition: 0,
                broker: 2,
                isr: vec![0, 1],
            },
            append(5_500, 1, 10),
        ];
        let s = WindowSeries::from_events(&events, SimDuration::from_secs(1));
        assert_eq!(s.rows.len(), 6);
        for row in &s.rows {
            assert!((row.isr_size - 2.0).abs() < 1e-9);
        }
    }

    #[test]
    fn cache_counters_difference_per_window() {
        let sample = |at_ms: u64, name: &str, value: u64| TraceEvent::CounterSample {
            at: SimTime::from_millis(at_ms),
            name: name.to_string(),
            value,
        };
        let events = vec![
            sample(500, "planner-cache-hit", 2),
            sample(500, "planner-cache-miss", 8),
            sample(1_500, "planner-cache-hit", 9),
            sample(1_500, "planner-cache-miss", 11),
            sample(2_500, "planner-cache-hit", 9),
            sample(2_500, "planner-cache-miss", 11),
        ];
        let s = WindowSeries::from_events(&events, SimDuration::from_secs(1));
        assert_eq!(s.rows[0].cache_hits, 2);
        assert_eq!(s.rows[0].cache_misses, 8);
        assert!((s.rows[0].cache_hit_rate - 0.2).abs() < 1e-9);
        assert_eq!(s.rows[1].cache_hits, 7);
        assert_eq!(s.rows[1].cache_misses, 3);
        assert!((s.rows[1].cache_hit_rate - 0.7).abs() < 1e-9);
        assert_eq!(s.rows[2].cache_hits, 0);
        assert_eq!(s.rows[2].cache_hit_rate, 0.0);
    }

    #[test]
    fn tenant_series_accumulates_and_renders_csv() {
        let mut s = TenantSeries::new(SimDuration::from_secs(5));
        for (w, cohort, moved) in [(0u64, "social-media", 0u64), (1, "social-media", 6)] {
            s.push(TenantWindowRow {
                window: w,
                start_s: w as f64 * 5.0,
                cohort: cohort.into(),
                producers: 500,
                produced: 1_000,
                delivered: 990,
                lost: 10,
                duplicated: if moved > 0 { 42 } else { 0 },
                backlog: 12,
                moved_partitions: moved,
                group_members: 8,
            });
        }
        assert_eq!(s.total_produced(), 2_000);
        assert_eq!(s.max_moved_partitions(), 6);
        let csv = s.to_csv();
        assert_eq!(csv.lines().count(), 3);
        assert!(csv.starts_with("window,start_s,cohort"));
        assert!(csv.contains("1,5.000000,social-media,500,1000,990,10,42,12,6,8"));

        let json = serde_json::to_string(&s).expect("serialises");
        let back: TenantSeries = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, s);
    }

    #[test]
    #[should_panic(expected = "window length must be non-zero")]
    fn tenant_series_rejects_zero_windows() {
        let _ = TenantSeries::new(SimDuration::ZERO);
    }

    #[test]
    fn series_round_trips_through_json_and_csv_is_stable() {
        let events = vec![append(100, 1, 50), append(1_100, 2, 60)];
        let s = WindowSeries::from_events(&events, SimDuration::from_secs(1));
        let json = serde_json::to_string(&s).expect("series serialises");
        let back: WindowSeries = serde_json::from_str(&json).expect("series parses");
        assert_eq!(back, s);
        assert_eq!(back.to_csv(), s.to_csv());
        assert_eq!(s.to_csv().lines().count(), 3);
    }
}
