//! `obs` — end-to-end message-lifecycle tracing and metrics for the
//! simulated Kafka pipeline.
//!
//! The paper ("Learning to Reliably Deliver Streaming Data with Apache
//! Kafka", DSN 2020) reports *how many* messages are lost (`P_l`) and
//! duplicated (`P_d`); this crate records *why*, message by message. It
//! provides three things:
//!
//! 1. **A structured trace-event taxonomy** ([`TraceEvent`]) covering the
//!    full message path — enqueue, batch formation, request send, ack,
//!    retry, connection reset, broker append, consumer read — each stamped
//!    with the simulated time, the message key, the batch id and the
//!    connection epoch.
//! 2. **Pluggable sinks** ([`TraceSink`]): the zero-overhead [`NoopSink`]
//!    (the default — event construction is skipped entirely when the sink
//!    is disabled), a bounded [`RingBufferSink`], a [`JsonlSink`] writing
//!    one JSON object per line, and a [`MetricsSink`] that folds events
//!    into a [`MetricsRegistry`] of counters, latency histograms and
//!    time-weighted gauges built on [`desim::stats`].
//! 3. **A per-message timeline reconstructor** ([`TimelineReport`]) that
//!    replays a recorded trace and attributes every lost or duplicated
//!    message to a traced cause.
//! 4. **A hierarchical span profiler** ([`Profiler`]) for *wall-clock*
//!    attribution — zero-cost when disabled, exporting Chrome trace-event
//!    JSON (Perfetto-loadable) and folded flamegraph stacks — and a
//!    **windowed KPI recorder** ([`WindowSeries`]) that folds a recorded
//!    trace into per-simulated-time-window throughput, p99 latency,
//!    in-flight bytes, ISR size and planner cache hit rate.
//!
//! # How events map onto the paper's loss and duplication cases
//!
//! The paper's Table I classifies every message into five delivery cases;
//! the trace makes each case's mechanism visible:
//!
//! * **Case 2/3 (lost)** — a [`TraceEvent::Expired`] with its
//!   [`LossCause`]: `ExpiredInBuffer` (the `T_o` expiry of Figs. 5–6),
//!   `BufferOverflow` (`buffer.memory` exhausted), `RetriesExhausted`
//!   (`τ_r` spent, at-least-once), or `UnsentAtEnd`; or a
//!   [`TraceEvent::ConnectionReset`] listing the keys that died in a
//!   torn-down socket — the silent loss of `acks=0` (Figs. 4 and 7).
//! * **Case 5 (duplicated)** — a [`TraceEvent::BrokerAppend`] with
//!   `duplicate: true`: either a `via_teardown` append whose ack could
//!   never return, or a retry re-append after a lost/late ack
//!   ([`TraceEvent::Retry`]) — the `P_d` mechanism of Fig. 8.
//! * **Case 1/4 (delivered)** — the plain `Enqueued → BatchFormed →
//!   RequestSent → BrokerAppend → ConsumerRead` chain, with
//!   [`TraceEvent::AckReceived`] carrying the request RTT under `acks=1`.
//!
//! # Broker-fault events (beyond the paper)
//!
//! The replicated cluster emits its own event family, so broker-caused
//! loss is distinguishable from network-caused loss:
//! [`TraceEvent::BrokerDown`]/[`TraceEvent::BrokerUp`] bracket injected
//! crashes, [`TraceEvent::ReplicaFetch`] records follower fetch rounds,
//! [`TraceEvent::IsrShrink`]/[`TraceEvent::IsrExpand`] track in-sync
//! replica membership, and [`TraceEvent::LeaderElected`] carries the
//! election's `clean` flag plus the record keys the log truncation
//! destroyed. A message whose last copy dies in such a truncation gets
//! [`LossCause::LeaderFailover`] — the attribution the
//! `kafkasim::explain` crosscheck verifies against the audit.
//!
//! The reconstruction is designed to be cross-checked against the
//! end-of-run audit: `kafkasim::explain` compares a [`TimelineReport`]'s
//! aggregate counts (lost, duplicated, loss-cause histogram) with the
//! `DeliveryReport` the audit produced, so every `P_l`/`P_d` count is
//! attributable to a traced cause.
//!
//! # Example
//!
//! ```
//! use obs::{RingBufferSink, TimelineReport, TraceEvent, TraceSink};
//! use desim::SimTime;
//!
//! let mut sink = RingBufferSink::new(1024);
//! if sink.enabled() {
//!     sink.record(TraceEvent::Enqueued {
//!         at: SimTime::ZERO,
//!         key: 0,
//!         partition: 0,
//!         deadline: SimTime::from_millis(500),
//!     });
//! }
//! let events: Vec<_> = sink.events().cloned().collect();
//! let report = TimelineReport::reconstruct(&events);
//! assert_eq!(report.n_messages(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod event;
pub mod metrics;
pub mod profile;
pub mod sink;
pub mod timeline;
pub mod window;

pub use event::{LossCause, TraceEvent};
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSink, MetricsSummary};
pub use profile::{Profiler, SpanEvent, SpanGuard, SpanProfile, SpanStat};
pub use sink::{parse_jsonl, JsonlSink, NoopSink, RingBufferSink, TraceSink};
pub use timeline::{DupCause, MessageFate, MessageTimeline, TimelineReport};
pub use window::{TenantSeries, TenantWindowRow, WindowRow, WindowSeries};
