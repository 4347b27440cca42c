//! The integrated Kafka run: producer + cluster + network in one
//! deterministic event loop.
//!
//! [`KafkaRun::execute`] reproduces the paper's per-experiment procedure
//! (§III-E): start a fresh cluster and topic, feed `N` uniquely-keyed source
//! messages through the producer while network faults are injected, let the
//! system drain, then read everything back with a consumer and build the
//! [`DeliveryReport`].
//!
//! # Mechanisms that shape the paper's figures
//!
//! * **Expiry** — a message that spends more than `T_o` buffered producer-
//!   side is dropped (Kafka's `delivery.timeout.ms`). This is the loss mode
//!   of an overloaded producer (Figs. 5 and 6).
//! * **Connection recycling** — when an in-socket batch passes its deadline,
//!   or the transport stalls through repeated RTO backoffs, the producer
//!   tears the connection down, exactly like a real client disconnecting an
//!   unresponsive broker. The bytes in the dead socket are gone: under
//!   `acks=0` that is *silent* loss (Fig. 4's at-most-once penalty); under
//!   `acks=1` the missing responses trigger retries.
//! * **Retries** — an unanswered produce request times out, fails the
//!   connection, and is retried up to `τ_r` times within `T_o`. A retry of a
//!   request whose original *was* persisted (the ack was lost or late)
//!   appends the batch again — duplicates, the paper's Case 5 (Fig. 8).

use std::collections::VecDeque;
use std::sync::Arc;

use desim::{EventContext, EventSim, EventWorld, SimDuration, SimRng, SimTime};
use netsim::channel::{ResetReport, SendRecordError};
use netsim::{
    ChannelConfig, ChannelEvent, ConditionTimeline, DuplexChannel, Endpoint, NetCondition,
};
use obs::{LossCause, MetricsSummary, NoopSink, Profiler, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use crate::audit::{audit, DeliveryReport, LossReason};
use crate::broker::{BrokerId, ProduceRecord};
use crate::cluster::{Cluster, ClusterSpec, ReplicationDelta};
use crate::config::{DeliverySemantics, ProducerConfig};
use crate::consumer::ConsumedTopic;
use crate::message::{Message, MessageKey};
use crate::producer::{Accumulator, InFlightRequest, InFlightTable, Ledger, PendingBatch};
use crate::source::SourceSpec;
use crate::wire::WireFormat;
use desim::fasthash::{FastMap, FastSet};

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

/// A scheduled broker outage (the paper's future-work failure scenario).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerOutage {
    /// The broker that goes down.
    pub broker: BrokerId,
    /// When it crashes.
    pub from: SimTime,
    /// When it comes back.
    pub until: SimTime,
}

/// A broker fault pattern: one crash, a crash-with-restart, or repeated
/// flapping. Expands into [`BrokerOutage`] cycles driven through the
/// event engine, each crash/restart traced as
/// [`TraceEvent::BrokerDown`]/[`TraceEvent::BrokerUp`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerFault {
    /// The faulty broker.
    pub broker: BrokerId,
    /// First crash instant.
    pub at: SimTime,
    /// Outage length of each crash.
    pub down_for: SimDuration,
    /// Number of crash/restart cycles (1 = a single crash).
    pub flaps: u32,
    /// Healthy time between a restart and the next crash (ignored when
    /// `flaps == 1`).
    pub up_for: SimDuration,
}

impl BrokerFault {
    /// One crash at `at`, restarting after `down_for`.
    #[must_use]
    pub fn crash(broker: BrokerId, at: SimTime, down_for: SimDuration) -> Self {
        BrokerFault {
            broker,
            at,
            down_for,
            flaps: 1,
            up_for: SimDuration::ZERO,
        }
    }

    /// The outage cycles this fault expands to.
    #[must_use]
    pub fn outages(&self) -> Vec<BrokerOutage> {
        (0..self.flaps)
            .map(|k| {
                let from = self.at + (self.down_for + self.up_for) * u64::from(k);
                BrokerOutage {
                    broker: self.broker,
                    from,
                    until: from + self.down_for,
                }
            })
            .collect()
    }
}

/// Full specification of one experiment run.
#[derive(Debug, Clone)]
pub struct RunSpec {
    /// Producer configuration at the start of the run.
    pub producer: ProducerConfig,
    /// Cluster layout.
    pub cluster: ClusterSpec,
    /// Source stream description.
    pub source: SourceSpec,
    /// Injected network condition over time (NetEm schedule).
    pub network: ConditionTimeline,
    /// Transport parameters (link rate, TCP, reconnect cost).
    pub channel: ChannelConfig,
    /// Protocol sizing.
    pub wire: WireFormat,
    /// Mid-run configuration changes, `(apply at, new config)`, sorted by
    /// time — the §V dynamic-configuration hook.
    pub config_schedule: Vec<(SimTime, ProducerConfig)>,
    /// Hard simulation horizon; anything unresolved by then counts lost.
    pub max_duration: SimDuration,
    /// Scheduled broker outages.
    pub outages: Vec<BrokerOutage>,
    /// Broker fault patterns (crash / restart / flapping); each expands
    /// into outage cycles on top of `outages`.
    pub faults: Vec<BrokerFault>,
    /// When set, partitions led by a downed broker fail over after this
    /// detection delay (Kafka's controller moving leadership): a new
    /// leader is elected from the partition's ISR (clean) or — if the
    /// cluster allows it — from a lagging replica (unclean, truncating
    /// unfetched records). With a replication factor of 1 the old
    /// fresh-log handover is used instead. When `None`, producers must
    /// wait the outage out.
    pub failover_after: Option<SimDuration>,
    /// Online (feedback) configuration control, the EXT-3 extension.
    pub online: Option<OnlineSpec>,
}

impl Default for RunSpec {
    fn default() -> Self {
        RunSpec {
            producer: ProducerConfig::default(),
            cluster: ClusterSpec::default(),
            source: SourceSpec::default(),
            network: ConditionTimeline::constant(netsim::NetCondition::default()),
            channel: ChannelConfig::default(),
            wire: WireFormat::default(),
            config_schedule: Vec::new(),
            max_duration: SimDuration::from_secs(7_200),
            outages: Vec::new(),
            faults: Vec::new(),
            failover_after: None,
            online: None,
        }
    }
}

impl RunSpec {
    /// Validates the whole spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid component.
    pub fn validate(&self) -> Result<(), String> {
        self.producer.validate().map_err(|e| e.to_string())?;
        self.cluster.validate()?;
        self.source.validate()?;
        let rate = self.channel.link.rate_bytes_per_sec;
        if !(rate.is_finite() && rate > 0.0) {
            return Err(format!(
                "channel.link.rate_bytes_per_sec must be positive and finite, got {rate}"
            ));
        }
        for (_, cfg) in &self.config_schedule {
            cfg.validate().map_err(|e| e.to_string())?;
        }
        if self.config_schedule.windows(2).any(|w| w[0].0 >= w[1].0) {
            return Err("config schedule must strictly increase in time".into());
        }
        for outage in &self.outages {
            if outage.from >= outage.until {
                return Err("outage must end after it starts".into());
            }
            if outage.broker.0 >= self.cluster.brokers {
                return Err("outage names an unknown broker".into());
            }
        }
        for fault in &self.faults {
            if fault.down_for.is_zero() {
                return Err("fault outage length must be positive".into());
            }
            if fault.flaps == 0 {
                return Err("fault must have at least one crash cycle".into());
            }
            if fault.flaps > 1 && fault.up_for.is_zero() {
                return Err("flapping fault needs a positive up time between crashes".into());
            }
            if fault.broker.0 >= self.cluster.brokers {
                return Err("fault names an unknown broker".into());
            }
        }
        if let Some(online) = &self.online {
            if online.interval.is_zero() {
                return Err("online control interval must be positive".into());
            }
        }
        Ok(())
    }
}

/// Producer-side counters accumulated during a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProducerStats {
    /// Produce requests written to a socket (including retries).
    pub requests_sent: u64,
    /// Requests that were retries of an earlier attempt.
    pub retries: u64,
    /// Connections torn down and re-established.
    pub connection_resets: u64,
    /// Messages expired producer-side before completing.
    pub expired: u64,
    /// Messages rejected by a full accumulator.
    pub overflowed: u64,
    /// Messages lost inside a torn-down socket (at-most-once).
    pub reset_losses: u64,
    /// Batches whose send was deferred by backpressure at least once.
    pub backpressured_batches: u64,
    /// Produce-request acknowledgements received (`acks=1`).
    pub acks_received: u64,
    /// Online-controller reconfigurations applied.
    pub online_reconfigurations: u64,
}

/// Cluster-side counters accumulated during a run: replication traffic,
/// ISR churn, and leader elections.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerStats {
    /// Leader failovers performed (elections plus the replication-factor-1
    /// fresh-log handovers).
    pub failovers: u64,
    /// Elections that promoted an in-sync replica.
    pub clean_elections: u64,
    /// Elections that promoted a lagging replica (may truncate records).
    pub unclean_elections: u64,
    /// Follower fetch rounds that copied records.
    pub replica_fetches: u64,
    /// Replicas evicted from an ISR for lagging.
    pub isr_shrinks: u64,
    /// Replicas that caught up and rejoined an ISR.
    pub isr_expands: u64,
    /// Record copies truncated off partition logs by elections.
    pub records_truncated: u64,
    /// Messages whose *only* copies were truncated — broker-caused loss,
    /// audited as [`LossReason::LeaderFailover`].
    pub lost_to_failover: u64,
    /// Produce acknowledgements withheld (`acks=all`) until the ISR had
    /// fetched the records.
    pub acks_held: u64,
}

/// The result of a run: the audit report plus low-level statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// The paper-style reliability report.
    pub report: DeliveryReport,
    /// Producer counters.
    pub producer: ProducerStats,
    /// Cluster-side counters (replication, ISR churn, elections).
    pub brokers: BrokerStats,
    /// Per-connection TCP sender statistics (producer side).
    pub tcp: Vec<netsim::tcp::TcpSenderStats>,
    /// Per-connection forward-link statistics.
    pub links: Vec<netsim::link::LinkStats>,
    /// Events fired by the simulation.
    pub events_fired: u64,
    /// Instant of the last productive activity.
    pub ended_at: SimTime,
    /// Total records appended across all brokers (every copy, including
    /// duplicates) — `delivered_once + duplicated + extra_copies`.
    pub records_appended: u64,
    /// Metrics folded from the trace, when the run's sink was an
    /// [`obs::MetricsSink`].
    pub metrics: Option<MetricsSummary>,
}

struct Conn {
    channel: DuplexChannel,
    broker: BrokerId,
    blocked: VecDeque<PendingBatch>,
    resp_queue: VecDeque<u64>,
    wake_at: Option<SimTime>,
    down_until: Option<SimTime>,
}

struct RequestInfo {
    partition: u32,
    records: Vec<ProduceRecord>,
    wants_ack: bool,
    batch_id: u64,
}

/// An `acks=all` acknowledgement the leader is withholding until every
/// in-sync replica has fetched the request's records.
struct PendingAck {
    conn: usize,
    req_id: u64,
    partition: u32,
    /// The leader log-end offset the ISR must reach.
    required: u64,
}

/// The run's event alphabet for the typed engine ([`desim::EventSim`]).
///
/// Each variant replaces what used to be a boxed closure: scheduling is now
/// a plain enum write into the event queue, so the hot loop allocates
/// nothing per event. Stale timers (sender kicks, linger wakes, connection
/// wakes, request timeouts) are retired by the guard flags in [`World`]
/// rather than by cancellation, exactly as before.
enum Event {
    /// Pull the next message from the source.
    PollSource,
    /// Periodic expiry sweep and termination check.
    Housekeeping,
    /// A NetEm breakpoint: apply a new network condition to every link.
    SetCondition(NetCondition),
    /// A scheduled (§V) producer reconfiguration.
    ApplyConfig(Box<ProducerConfig>),
    /// Broker `ci` crashes until `until`.
    OutageStart { ci: usize, until: SimTime },
    /// The controller notices broker `ci` is dead and moves leadership.
    Failover { ci: usize },
    /// Broker `ci`'s outage window ended.
    BrokerUp { ci: usize },
    /// One follower-fetch round.
    ReplicationTick,
    /// One online-controller observation window boundary.
    OnlineTick,
    /// The sender CPU became free; look for work.
    SenderKick,
    /// An open batch lingered out.
    LingerWake,
    /// Serialisation of `batch` finished; put it on the wire.
    Dispatch(PendingBatch),
    /// `req_id`'s response deadline passed.
    RequestTimeout { req_id: u64 },
    /// Connection `ci` may accept blocked batches again.
    DrainBlocked { ci: usize },
    /// Connection `ci`'s transport has queued work due now.
    ConnWake { ci: usize },
    /// Broker-side append of a processed request (payload parked in
    /// `World::append_info`). `via_teardown` marks requests that arrived
    /// while their connection was being torn down (no response possible).
    Append {
        ci: usize,
        id: u64,
        via_teardown: bool,
    },
}

/// The profiler span each event kind's handler is charged to.
///
/// Kinds that share a handler path share a span name, so the profile
/// groups wall-clock time by *phase* (batch formation, request pump,
/// replication, election) rather than by raw enum variant.
fn phase_name(event: &Event) -> &'static str {
    match event {
        Event::PollSource => "kafkasim.poll-source",
        Event::Housekeeping => "kafkasim.housekeeping",
        Event::SetCondition(_) => "kafkasim.set-condition",
        Event::ApplyConfig(_) => "kafkasim.apply-config",
        Event::OutageStart { .. } | Event::BrokerUp { .. } => "kafkasim.fault",
        Event::Failover { .. } => "kafkasim.election",
        Event::ReplicationTick => "kafkasim.replication",
        Event::OnlineTick => "kafkasim.online-tick",
        Event::SenderKick | Event::LingerWake => "kafkasim.batch-form",
        Event::Dispatch(_) => "kafkasim.dispatch",
        Event::RequestTimeout { .. } | Event::DrainBlocked { .. } | Event::ConnWake { .. } => {
            "kafkasim.request-pump"
        }
        Event::Append { .. } => "kafkasim.append",
    }
}

impl EventWorld for World {
    type Event = Event;

    fn handle(&mut self, event: Event, ctx: &mut Ctx) {
        let _g = self.prof.span(phase_name(&event));
        self.dispatch(event, ctx);
    }
}

impl World {
    /// The single dispatch point for every scheduled event.
    fn dispatch(&mut self, event: Event, ctx: &mut Ctx) {
        match event {
            Event::PollSource => poll_source(self, ctx),
            Event::Housekeeping => housekeeping(self, ctx),
            Event::SetCondition(cond) => {
                let now = ctx.now();
                for conn in &mut self.conns {
                    conn.channel.set_condition(cond, now);
                }
            }
            Event::ApplyConfig(cfg) => apply_config(self, ctx, *cfg),
            Event::OutageStart { ci, until } => on_outage_start(self, ctx, ci, until),
            Event::Failover { ci } => on_failover(self, ctx, ci),
            Event::BrokerUp { ci } => on_broker_up(self, ctx, ci),
            Event::ReplicationTick => replication_tick(self, ctx),
            Event::OnlineTick => online_tick(self, ctx),
            Event::SenderKick => {
                self.sender_kick_scheduled = false;
                let now = ctx.now();
                kick_sender(self, ctx, now);
            }
            Event::LingerWake => {
                self.linger_wake_at = None;
                let now = ctx.now();
                kick_sender(self, ctx, now);
            }
            Event::Dispatch(batch) => {
                dispatch_batch(self, ctx, batch);
                let now = ctx.now();
                kick_sender(self, ctx, now);
            }
            Event::RequestTimeout { req_id } => on_request_timeout(self, ctx, req_id),
            Event::DrainBlocked { ci } => drain_blocked(self, ctx, ci),
            Event::ConnWake { ci } => {
                if self.conns[ci].wake_at.is_some_and(|s| s <= ctx.now()) {
                    self.conns[ci].wake_at = None;
                }
                pump_conn(self, ctx, ci);
            }
            Event::Append {
                ci,
                id,
                via_teardown,
            } => do_append(self, ctx, ci, id, via_teardown),
        }
    }
}

struct World {
    /// Wall-clock span profiler; disabled outside profiled runs, where a
    /// span is one inline `None` test.
    prof: Profiler,
    cfg: ProducerConfig,
    wire: WireFormat,
    source: SourceSpec,
    cluster: Cluster,
    conns: Vec<Conn>,
    partition_conn: Vec<usize>,
    accumulator: Accumulator,
    in_flight: InFlightTable,
    amo_outstanding: FastMap<u64, (usize, PendingBatch)>,
    requests: FastMap<u64, RequestInfo>,
    /// Requests whose broker-side processing delay is elapsing: the payload
    /// of a scheduled [`Event::Append`], parked here so the event itself
    /// stays a few words (the queue memcpys every entry it sifts).
    append_info: FastMap<u64, RequestInfo>,
    ledger: Ledger,
    rng: SimRng,
    next_key: u64,
    n_messages: u64,
    next_request_id: u64,
    next_partition: u32,
    sticky_count: usize,
    sender_busy_until: SimTime,
    sender_kick_scheduled: bool,
    linger_wake_at: Option<SimTime>,
    stats: ProducerStats,
    broker_stats: BrokerStats,
    pending_acks: Vec<PendingAck>,
    online: Option<OnlineSpec>,
    window_base: ProducerStats,
    done_polling: bool,
    finished: bool,
    last_activity: SimTime,
    housekeep_interval: SimDuration,
    /// Run horizon (`SimTime::ZERO + max_duration`); the poll-coalescing
    /// loop in [`poll_source`] must not process messages past it inline,
    /// because the driver loop only ever fires *one* event past it.
    hard_deadline: SimTime,
    trace: Box<dyn TraceSink>,
    /// Cached `trace.enabled()` — one virtual call at construction instead
    /// of one per trace site per event.
    trace_on: bool,
    conn_epochs: Vec<u32>,
    appended_keys: FastSet<u64>,
    /// Scratch buffer for expired-message sweeps (reused, never freed).
    msg_scratch: Vec<Message>,
    /// Scratch buffer for draining channel events (reused, never freed).
    chan_events: Vec<ChannelEvent>,
    /// Retired record buffers for [`RequestInfo::records`] reuse.
    rec_pool: Vec<Vec<ProduceRecord>>,
    /// Scratch deque for rebuilding blocked queues in housekeeping.
    deque_scratch: VecDeque<PendingBatch>,
    /// Pooled reset report reused across connection teardowns.
    reset_report: ResetReport,
}

impl World {
    /// Which brokers are crashed at `now` (conns map 1:1 to brokers).
    fn down_mask(&self, now: SimTime) -> Vec<bool> {
        self.conns
            .iter()
            .map(|c| c.down_until.is_some_and(|u| now < u))
            .collect()
    }

    fn mark_expired(&mut self, now: SimTime, messages: &[Message]) {
        for m in messages {
            self.ledger.mark_lost(m.key, LossReason::ExpiredInBuffer);
        }
        self.stats.expired += messages.len() as u64;
        self.trace_losses(now, messages, LossCause::ExpiredInBuffer, None);
    }

    /// Emits one `Expired` trace event per dropped message (no-op when the
    /// sink is disabled).
    fn trace_losses(
        &mut self,
        now: SimTime,
        messages: &[Message],
        cause: LossCause,
        batch: Option<u64>,
    ) {
        if !self.trace_on {
            return;
        }
        for m in messages {
            self.trace.record(TraceEvent::Expired {
                at: now,
                key: m.key.0,
                cause,
                batch,
            });
        }
    }

    /// A cleared record buffer, reused from the pool when possible.
    fn take_rec_buf(&mut self) -> Vec<ProduceRecord> {
        self.rec_pool.pop().unwrap_or_default()
    }

    /// Returns a request's record buffer to the pool.
    fn recycle_records(&mut self, mut records: Vec<ProduceRecord>) {
        if self.rec_pool.len() < 256 {
            records.clear();
            self.rec_pool.push(records);
        }
    }
}

type Ctx = EventContext<Event>;

/// One executable experiment.
///
/// See the [crate documentation](crate) for an end-to-end example.
pub struct KafkaRun {
    spec: RunSpec,
    seed: u64,
}

impl KafkaRun {
    /// Prepares a run of `spec` with a deterministic `seed`.
    #[must_use]
    pub fn new(spec: RunSpec, seed: u64) -> Self {
        KafkaRun { spec, seed }
    }

    /// Executes the run to completion and audits the result.
    ///
    /// [`KafkaRun::execute_traced`] with an [`obs::NoopSink`]: the hot path
    /// asks the sink once per site whether to construct an event, so this
    /// costs one constant-returning virtual call per site and nothing else.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation — call [`RunSpec::validate`]
    /// first when the spec comes from untrusted input.
    #[must_use]
    pub fn execute(self) -> RunOutcome {
        self.execute_traced(Box::new(NoopSink)).0
    }

    /// Executes the run with `sink` receiving a [`TraceEvent`] for every
    /// hop of every message, and returns the sink alongside the outcome so
    /// its contents (events, metrics) can be inspected.
    ///
    /// [`KafkaRun::execute_profiled`] with a disabled [`Profiler`]. Tracing
    /// is observational only: a traced run takes the exact same decisions
    /// as an untraced one with the same spec and seed.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation — call [`RunSpec::validate`]
    /// first when the spec comes from untrusted input.
    #[must_use]
    pub fn execute_traced(self, sink: Box<dyn TraceSink>) -> (RunOutcome, Box<dyn TraceSink>) {
        self.execute_profiled(sink, Profiler::disabled())
    }

    /// The run itself, which the other two entry points call: trace events
    /// go to `sink`, and every handler is charged to a per-phase span of
    /// `prof` (see the crate's span taxonomy) inside `desim.run-slice`
    /// spans over the event loop.
    ///
    /// Each run allocates its own buffers and recycles them within the run
    /// (batch message buffers, request record buffers, the reset report);
    /// nothing is carried from one run to the next. Tracing and profiling
    /// are observational only: the run takes the exact same decisions with
    /// any sink and with the profiler enabled or disabled.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails validation — call [`RunSpec::validate`]
    /// first when the spec comes from untrusted input.
    #[must_use]
    pub fn execute_profiled(
        self,
        sink: Box<dyn TraceSink>,
        prof: Profiler,
    ) -> (RunOutcome, Box<dyn TraceSink>) {
        let setup_guard = prof.span("kafkasim.setup");
        self.spec.validate().expect("invalid run spec");
        let RunSpec {
            producer,
            cluster: cluster_spec,
            source,
            network,
            channel,
            wire,
            config_schedule,
            max_duration,
            outages,
            faults,
            failover_after,
            online,
        } = self.spec;

        let mut rng = SimRng::seed_from_u64(self.seed);
        let cluster = Cluster::new(cluster_spec).expect("validated");
        let initial_condition = network.at(SimTime::ZERO);
        let conns: Vec<Conn> = cluster
            .brokers()
            .iter()
            .map(|b| {
                let mut ch = DuplexChannel::new(channel.clone(), rng.fork());
                ch.set_condition(initial_condition, SimTime::ZERO);
                Conn {
                    channel: ch,
                    broker: b.id(),
                    blocked: VecDeque::new(),
                    resp_queue: VecDeque::new(),
                    wake_at: None,
                    down_until: None,
                }
            })
            .collect();
        let partition_conn: Vec<usize> = (0..cluster.partitions())
            .map(|p| cluster.leader_of(p).0 as usize)
            .collect();
        let accumulator = Accumulator::new(
            producer.batch_size,
            producer.linger,
            producer.buffer_capacity,
            cluster.partitions(),
        );
        let n_messages = source.n_messages;
        let n_conns = conns.len();
        let trace_on = sink.enabled();
        let world = World {
            prof: prof.clone(),
            cfg: producer,
            wire,
            source,
            cluster,
            conns,
            partition_conn,
            accumulator,
            in_flight: InFlightTable::new(),
            amo_outstanding: FastMap::default(),
            requests: FastMap::default(),
            append_info: FastMap::default(),
            ledger: Ledger::new(),
            rng,
            next_key: 0,
            n_messages,
            next_request_id: 0,
            next_partition: 0,
            sticky_count: 0,
            sender_busy_until: SimTime::ZERO,
            sender_kick_scheduled: false,
            linger_wake_at: None,
            stats: ProducerStats::default(),
            broker_stats: BrokerStats::default(),
            pending_acks: Vec::new(),
            online,
            window_base: ProducerStats::default(),
            done_polling: false,
            finished: false,
            last_activity: SimTime::ZERO,
            housekeep_interval: SimDuration::from_millis(100),
            hard_deadline: SimTime::ZERO + max_duration,
            trace: sink,
            trace_on,
            conn_epochs: vec![0; n_conns],
            appended_keys: FastSet::default(),
            msg_scratch: Vec::new(),
            chan_events: Vec::new(),
            rec_pool: Vec::new(),
            deque_scratch: VecDeque::new(),
            reset_report: ResetReport::default(),
        };

        let mut sim = EventSim::new(world);
        sim.schedule_at(SimTime::ZERO, Event::PollSource);
        sim.schedule_in(SimDuration::from_millis(100), Event::Housekeeping);
        for (t, cond) in network.breakpoints().iter().skip(1).copied() {
            sim.schedule_at(t, Event::SetCondition(cond));
        }
        for (t, cfg) in config_schedule {
            sim.schedule_at(t, Event::ApplyConfig(Box::new(cfg)));
        }
        let all_outages: Vec<BrokerOutage> = outages
            .into_iter()
            .chain(faults.iter().flat_map(BrokerFault::outages))
            .collect();
        for outage in all_outages {
            let ci = outage.broker.0 as usize;
            sim.schedule_at(
                outage.from,
                Event::OutageStart {
                    ci,
                    until: outage.until,
                },
            );
            if let Some(detect) = failover_after {
                sim.schedule_at(outage.from + detect, Event::Failover { ci });
            }
            sim.schedule_at(outage.until, Event::BrokerUp { ci });
        }
        if sim.world().cluster.spec().replication.factor > 1 {
            let interval = sim.world().cluster.spec().replication.fetch_interval;
            sim.schedule_in(interval, Event::ReplicationTick);
        }

        if let Some(interval) = sim.world().online.as_ref().map(|o| o.interval) {
            sim.schedule_in(interval, Event::OnlineTick);
        }
        let hard_deadline = SimTime::ZERO + max_duration;
        drop(setup_guard);
        // Slices are event-for-event identical to a plain `step` loop (see
        // `EventSim::run_slice`); each gets its own span so a profile shows
        // event-loop occupancy over time.
        const SLICE_EVENTS: u64 = 4096;
        loop {
            let _slice = prof.span("desim.run-slice");
            if sim.run_slice(hard_deadline, SLICE_EVENTS) == 0 {
                break;
            }
        }

        let audit_guard = prof.span("kafkasim.audit");
        let (report, metrics, trace) = {
            let world = sim.world_mut();
            let topic = ConsumedTopic::read_all(&world.cluster);
            if world.trace.enabled() {
                let end = world.last_activity;
                // Messages still unresolved at the horizon: the audit
                // counts them as UnsentAtEnd, so the trace must too.
                for (i, &tag) in world.ledger.lost_col().iter().enumerate() {
                    let key = MessageKey(i as u64);
                    if tag == 0 && topic.copies(key) == 0 {
                        world.trace.record(TraceEvent::Expired {
                            at: end,
                            key: key.0,
                            cause: LossCause::UnsentAtEnd,
                            batch: None,
                        });
                    }
                }
                // Replay the audit consumer's pass over the topic.
                for rec in topic.records() {
                    world.trace.record(TraceEvent::ConsumerRead {
                        at: end,
                        key: rec.key.0,
                        partition: rec.partition,
                        offset: rec.offset,
                        latency: rec.latency,
                    });
                }
            }
            let report = audit(
                &world.ledger,
                &topic,
                world.source.timeliness,
                world.last_activity,
            );
            let metrics = world.trace.metrics().map(obs::MetricsRegistry::summary);
            let trace = std::mem::replace(&mut world.trace, Box::new(NoopSink));
            (report, metrics, trace)
        };
        let events_fired = sim.events_fired();
        let world = sim.into_world();
        let outcome = RunOutcome {
            report,
            producer: ProducerStats {
                overflowed: world.accumulator.overflowed(),
                ..world.stats
            },
            brokers: world.broker_stats,
            tcp: world
                .conns
                .iter()
                .map(|c| c.channel.sender_stats(Endpoint::A))
                .collect(),
            links: world
                .conns
                .iter()
                .map(|c| c.channel.link_stats(Endpoint::A))
                .collect(),
            events_fired,
            ended_at: world.last_activity,
            records_appended: world
                .cluster
                .brokers()
                .iter()
                .map(|b| b.records_appended())
                .sum(),
            metrics,
        };
        drop(audit_guard);
        (outcome, trace)
    }
}

// ---------------------------------------------------------------------------
// Source polling
// ---------------------------------------------------------------------------

fn poll_source(w: &mut World, ctx: &mut Ctx) {
    if w.next_key >= w.n_messages {
        w.done_polling = true;
        return;
    }
    // Coalescing loop: after handling the poll this event was scheduled
    // for, keep polling *inline* as long as the next poll instant `t` is
    // strictly earlier than every pending event and within the run
    // horizon. The engine would have popped that poll next anyway, so the
    // inline execution is order-identical — same RNG draw sequence, same
    // trace order, same state evolution, same tie-breaks (ties with a
    // pending event at exactly `t` fall out of the loop, and the
    // re-scheduled poll gets a later seq than the pending event, exactly
    // as in the uncoalesced engine). Only `events_fired` differs.
    let mut now = ctx.now();
    loop {
        let payload = w.source.size.sample(&mut w.rng);
        let key = MessageKey(w.next_key);
        w.next_key += 1;
        let message = Message::new(key, payload, now, w.cfg.message_timeout);
        w.ledger.register(key, now);
        w.last_activity = now;
        // Sticky partitioning (the modern Kafka default for keyless
        // records): fill one partition's batch before moving to the next,
        // so the configured batch size B is actually reached at any
        // arrival rate.
        let partition = w.next_partition;
        w.sticky_count += 1;
        if w.sticky_count >= w.cfg.batch_size {
            w.sticky_count = 0;
            w.next_partition = (w.next_partition + 1) % w.cluster.partitions();
        }
        if w.trace_on {
            w.trace.record(TraceEvent::Enqueued {
                at: now,
                key: key.0,
                partition,
                deadline: message.deadline,
            });
        }
        if let Err(rejected) = w.accumulator.push(message, partition, now) {
            w.ledger.mark_lost(rejected.key, LossReason::BufferOverflow);
            if w.trace_on {
                w.trace.record(TraceEvent::Expired {
                    at: now,
                    key: rejected.key.0,
                    cause: LossCause::BufferOverflow,
                    batch: None,
                });
            }
        }
        kick_sender(w, ctx, now);
        let gap = w.source.poll_gap(now, payload, &w.cfg.host);
        let t = now + gap;
        // The final poll (which flips `done_polling`) must stay a real
        // event: flipping it inline would let an earlier housekeeping
        // pass observe it too soon.
        if w.next_key >= w.n_messages
            || t > w.hard_deadline
            || ctx.next_deadline().is_some_and(|d| t >= d)
        {
            ctx.schedule_at(t, Event::PollSource);
            return;
        }
        now = t;
    }
}

// ---------------------------------------------------------------------------
// Sender (serialisation CPU)
// ---------------------------------------------------------------------------

fn kick_sender(w: &mut World, ctx: &mut Ctx, now: SimTime) {
    if now < w.sender_busy_until {
        if !w.sender_kick_scheduled {
            w.sender_kick_scheduled = true;
            ctx.schedule_at(w.sender_busy_until, Event::SenderKick);
        }
        return;
    }
    w.accumulator.flush_due(now);
    let mut expired = std::mem::take(&mut w.msg_scratch);
    loop {
        expired.clear();
        let picked = w.accumulator.pop_ready_with_expiry(now, &mut expired);
        w.mark_expired(now, &expired);
        let Some(mut batch) = picked else {
            w.msg_scratch = expired;
            schedule_linger_wake(w, ctx, now);
            return;
        };
        let mean = w
            .cfg
            .host
            .service_time(batch.messages.len(), batch.payload_bytes());
        let service = if w.cfg.host.jittered_service && !mean.is_zero() {
            let secs = w.rng.exponential(1.0 / mean.as_secs_f64());
            SimDuration::from_secs_f64(secs)
        } else {
            mean
        };
        // The sender checks delivery.timeout when it *picks* the batch:
        // messages that would expire before serialisation is expected to
        // complete are dropped now, so no CPU is wasted on doomed work.
        // The lookahead uses the *mean* service time — the actual duration
        // is not known in advance — and once picked, the batch is
        // committed.
        expired.clear();
        batch.drop_expired_into(now + mean, &mut expired);
        w.mark_expired(now, &expired);
        if batch.messages.is_empty() {
            w.accumulator.recycle(batch);
            continue;
        }
        if w.trace_on {
            w.trace.record(TraceEvent::BatchFormed {
                at: now,
                batch: batch.id,
                partition: batch.partition,
                keys: batch.messages.iter().map(|m| m.key.0).collect(),
                bytes: batch.payload_bytes(),
            });
        }
        w.sender_busy_until = now + service;
        ctx.schedule_at(w.sender_busy_until, Event::Dispatch(batch));
        w.msg_scratch = expired;
        return;
    }
}

fn schedule_linger_wake(w: &mut World, ctx: &mut Ctx, now: SimTime) {
    if let Some(deadline) = w.accumulator.next_linger_deadline() {
        let due = deadline.max(now);
        if w.linger_wake_at.is_none_or(|t| due < t) {
            w.linger_wake_at = Some(due);
            ctx.schedule_at(due, Event::LingerWake);
        }
    }
}

fn dispatch_batch(w: &mut World, ctx: &mut Ctx, batch: PendingBatch) {
    let ci = w.partition_conn[batch.partition as usize];
    match try_send(w, ctx, ci, batch) {
        Ok(()) => {}
        Err(batch) => {
            w.stats.backpressured_batches += 1;
            w.conns[ci].blocked.push_back(batch);
        }
    }
}

/// Attempts to put `batch` on the wire; hands it back when backpressured.
fn try_send(
    w: &mut World,
    ctx: &mut Ctx,
    ci: usize,
    mut batch: PendingBatch,
) -> Result<(), PendingBatch> {
    let now = ctx.now();
    // First-attempt batches were committed when the sender picked them (the
    // expiry check happened at pop, with service lookahead) - they go out
    // even if serialisation ran long. Retry batches re-check the deadline:
    // delivery.timeout covers the whole retry loop.
    if batch.attempts > 0 {
        let mut expired = std::mem::take(&mut w.msg_scratch);
        expired.clear();
        batch.drop_expired_into(now, &mut expired);
        for m in &expired {
            w.ledger.mark_lost(m.key, LossReason::RetriesExhausted);
        }
        w.stats.expired += expired.len() as u64;
        w.trace_losses(now, &expired, LossCause::RetriesExhausted, Some(batch.id));
        w.msg_scratch = expired;
    }
    if batch.messages.is_empty() {
        w.accumulator.recycle(batch);
        return Ok(());
    }
    if w.conns[ci].down_until.is_some_and(|u| now < u) {
        return Err(batch); // broker down: wait (or fail over)
    }
    let wants_ack = w.cfg.semantics != DeliverySemantics::AtMostOnce;
    if wants_ack && w.in_flight.count(ci) >= w.cfg.max_in_flight {
        return Err(batch);
    }
    let bytes = w
        .wire
        .request_bytes(batch.messages.iter().map(|m| m.payload_bytes));
    let req_id = w.next_request_id;
    match w.conns[ci]
        .channel
        .send_record(Endpoint::A, req_id, bytes, now)
    {
        Ok(()) => {
            w.next_request_id += 1;
            batch.attempts += 1;
            for m in &batch.messages {
                w.ledger.note_attempt(m.key);
            }
            w.stats.requests_sent += 1;
            if batch.attempts > 1 {
                w.stats.retries += 1;
            }
            if w.trace_on {
                let epoch = w.conn_epochs[ci];
                w.trace.record(TraceEvent::RequestSent {
                    at: now,
                    batch: batch.id,
                    request: req_id,
                    conn: ci as u32,
                    epoch,
                    attempt: batch.attempts,
                    records: batch.messages.len() as u64,
                    bytes,
                });
                if batch.attempts > 1 {
                    w.trace.record(TraceEvent::Retry {
                        at: now,
                        batch: batch.id,
                        request: req_id,
                        conn: ci as u32,
                        epoch,
                        attempt: batch.attempts,
                    });
                }
            }
            let mut records = w.take_rec_buf();
            batch.to_records_into(&mut records);
            w.requests.insert(
                req_id,
                RequestInfo {
                    partition: batch.partition,
                    records,
                    wants_ack,
                    batch_id: batch.id,
                },
            );
            if wants_ack {
                let timeout_at = now + w.cfg.request_timeout;
                w.in_flight.insert(
                    req_id,
                    InFlightRequest {
                        batch,
                        conn: ci,
                        sent_at: now,
                        timeout_at,
                    },
                );
                ctx.schedule_at(timeout_at, Event::RequestTimeout { req_id });
            } else {
                w.amo_outstanding.insert(req_id, (ci, batch));
            }
            sched_conn_wake(w, ctx, ci);
            Ok(())
        }
        Err(SendRecordError::BufferFull { .. }) => Err(batch),
        Err(SendRecordError::Reconnecting { until }) => {
            ctx.schedule_at(until, Event::DrainBlocked { ci });
            Err(batch)
        }
    }
}

fn drain_blocked(w: &mut World, ctx: &mut Ctx, ci: usize) {
    while let Some(batch) = w.conns[ci].blocked.pop_front() {
        match try_send(w, ctx, ci, batch) {
            Ok(()) => {}
            Err(batch) => {
                w.conns[ci].blocked.push_front(batch);
                break;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Channel event handling
// ---------------------------------------------------------------------------

fn sched_conn_wake(w: &mut World, ctx: &mut Ctx, ci: usize) {
    if let Some(t) = w.conns[ci].channel.next_wakeup() {
        let t = t.max(ctx.now());
        if w.conns[ci].wake_at.is_none_or(|s| t < s) {
            w.conns[ci].wake_at = Some(t);
            ctx.schedule_at(t, Event::ConnWake { ci });
        }
    }
}

fn pump_conn(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    let mut events = std::mem::take(&mut w.chan_events);
    events.clear();
    w.conns[ci].channel.advance_into(now, &mut events);
    let mut drain = false;
    for &ev in &events {
        match ev {
            ChannelEvent::RecordDelivered {
                to: Endpoint::B,
                id,
                ..
            } => on_request_arrived(w, ctx, ci, id),
            ChannelEvent::RecordDelivered {
                to: Endpoint::A,
                id,
                ..
            } => {
                if let Some(req) = w.in_flight.complete(id) {
                    w.stats.acks_received += 1;
                    w.last_activity = now;
                    if w.trace_on {
                        w.trace.record(TraceEvent::AckReceived {
                            at: now,
                            batch: req.batch.id,
                            request: id,
                            conn: ci as u32,
                            epoch: w.conn_epochs[ci],
                            rtt: now.saturating_since(req.sent_at),
                        });
                    }
                    w.accumulator.recycle(req.batch);
                    drain = true;
                }
            }
            ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::A,
                ..
            } => drain = true,
            ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::B,
                ..
            } => flush_responses(w, ctx, ci),
        }
    }
    w.chan_events = events;
    if drain {
        drain_blocked(w, ctx, ci);
    }
    amo_stall_check(w, ctx, ci);
    sched_conn_wake(w, ctx, ci);
}

fn on_request_arrived(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64) {
    let Some(info) = w.requests.remove(&id) else {
        return; // stale duplicate of an already-processed request
    };
    // The batch's bytes crossed the wire: it is no longer at reset risk.
    if let Some((_, batch)) = w.amo_outstanding.remove(&id) {
        w.accumulator.recycle(batch);
    }
    let proc = w
        .cluster
        .broker(w.conns[ci].broker)
        .expect("broker exists")
        .processing_time(info.records.len());
    w.append_info.insert(id, info);
    ctx.schedule_in(
        proc,
        Event::Append {
            ci,
            id,
            via_teardown: false,
        },
    );
}

/// Broker-side append of a request whose processing delay elapsed. For a
/// regular arrival (`via_teardown == false`) the broker then answers (or
/// holds the answer under `acks=all`); a teardown append persists the
/// records but can never respond — its connection is gone.
fn do_append(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64, via_teardown: bool) {
    let info = w.append_info.remove(&id).expect("append payload parked");
    let broker_id = w.conns[ci].broker;
    let now = ctx.now();
    let base = w
        .cluster
        .broker_mut(broker_id)
        .expect("broker exists")
        .append(info.partition, &info.records, now)
        .expect("partition is led by this broker");
    w.last_activity = now;
    trace_appends(w, now, &info, id, base, broker_id, via_teardown);
    if !via_teardown && info.wants_ack {
        let required = base + info.records.len() as u64;
        if w.cfg.semantics == DeliverySemantics::All && !w.cluster.isr_has(info.partition, required)
        {
            // acks=all: hold the response until every in-sync replica
            // has fetched up to this batch's last offset. The next
            // replication tick (or an ISR shrink) releases it.
            w.broker_stats.acks_held += 1;
            w.pending_acks.push(PendingAck {
                conn: ci,
                req_id: id,
                partition: info.partition,
                required,
            });
        } else {
            send_response(w, ctx, ci, id);
        }
    }
    w.recycle_records(info.records);
}

/// Emits one `BrokerAppend` per record just persisted, tagging the ones
/// whose key was already in a partition log — those appends are the
/// moments Case 5 duplicates come into being. The duplicate-detection set
/// is only maintained while tracing, so untraced runs pay nothing.
fn trace_appends(
    w: &mut World,
    now: SimTime,
    info: &RequestInfo,
    request: u64,
    base_offset: u64,
    broker: BrokerId,
    via_teardown: bool,
) {
    if !w.trace_on {
        return;
    }
    for (i, r) in info.records.iter().enumerate() {
        let duplicate = !w.appended_keys.insert(r.key.0);
        w.trace.record(TraceEvent::BrokerAppend {
            at: now,
            batch: info.batch_id,
            request,
            broker: broker.0,
            partition: info.partition,
            key: r.key.0,
            offset: base_offset + i as u64,
            latency: now.saturating_since(r.created_at),
            duplicate,
            via_teardown,
        });
    }
}

fn send_response(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64) {
    let now = ctx.now();
    let bytes = w.wire.response_bytes;
    match w.conns[ci].channel.send_record(Endpoint::B, id, bytes, now) {
        Ok(()) => sched_conn_wake(w, ctx, ci),
        Err(_) => w.conns[ci].resp_queue.push_back(id),
    }
}

fn flush_responses(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    while let Some(&id) = w.conns[ci].resp_queue.front() {
        let bytes = w.wire.response_bytes;
        match w.conns[ci].channel.send_record(Endpoint::B, id, bytes, now) {
            Ok(()) => {
                w.conns[ci].resp_queue.pop_front();
            }
            Err(_) => break,
        }
    }
    sched_conn_wake(w, ctx, ci);
}

// ---------------------------------------------------------------------------
// Failure handling
// ---------------------------------------------------------------------------

fn on_request_timeout(w: &mut World, ctx: &mut Ctx, req_id: u64) {
    if !w.in_flight.contains(req_id) {
        return; // answered in time
    }
    // An unanswered request fails the whole connection (as in a real
    // client): reset it and retry everything that was in flight on it.
    let ci = w.in_flight.conn_of(req_id).expect("request is in flight");
    fail_connection_alo(w, ctx, ci);
}

fn fail_connection_alo(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    let mut report = std::mem::take(&mut w.reset_report);
    w.conns[ci].channel.reset_into(now, &mut report);
    w.stats.connection_resets += 1;
    if w.trace_on {
        // Under acks=1 nothing is lost in the socket itself: the in-flight
        // batches are requeued, and any that die do so as RetriesExhausted
        // expiries below.
        w.trace.record(TraceEvent::ConnectionReset {
            at: now,
            conn: ci as u32,
            epoch: w.conn_epochs[ci],
            lost_keys: Vec::new(),
        });
    }
    w.conn_epochs[ci] += 1;
    // Responses that were already on the wire still count: those requests
    // completed and must not be retried.
    for id in &report.teardown_delivered_to_a {
        if let Some(req) = w.in_flight.complete(*id) {
            w.accumulator.recycle(req.batch);
        }
    }
    // Requests whose bytes reached the broker during teardown are appended
    // there — but the producer never hears back, so it will retry them:
    // this is exactly how Case 5 duplicates arise.
    for &id in &report.teardown_delivered_to_b {
        teardown_append(w, ctx, ci, id);
    }
    let taken = w.in_flight.take_conn(ci);
    for id in &report.undelivered_from_a {
        if let Some(info) = w.requests.remove(id) {
            w.recycle_records(info.records);
        }
    }
    w.reset_report = report;
    w.conns[ci].resp_queue.clear();
    // Requeue newest-first with push_front so the oldest batch (closest to
    // its deadline) ends up at the head of the retry queue.
    let mut expired = std::mem::take(&mut w.msg_scratch);
    for (_, inflight) in taken.into_iter().rev() {
        let mut batch = inflight.batch;
        if batch.attempts > w.cfg.max_retries {
            for m in &batch.messages {
                w.ledger.mark_lost(m.key, LossReason::RetriesExhausted);
            }
            let given_up = std::mem::take(&mut batch.messages);
            w.trace_losses(now, &given_up, LossCause::RetriesExhausted, Some(batch.id));
            batch.messages = given_up;
            w.accumulator.recycle(batch);
            continue;
        }
        expired.clear();
        batch.drop_expired_into(now, &mut expired);
        for m in &expired {
            w.ledger.mark_lost(m.key, LossReason::RetriesExhausted);
        }
        w.trace_losses(now, &expired, LossCause::RetriesExhausted, Some(batch.id));
        if !batch.messages.is_empty() {
            w.conns[ci].blocked.push_front(batch);
        } else {
            w.accumulator.recycle(batch);
        }
    }
    w.msg_scratch = expired;
    let reopen = w.conns[ci].channel.open_at();
    ctx.schedule_at(reopen, Event::DrainBlocked { ci });
    sched_conn_wake(w, ctx, ci);
}

fn amo_stall_check(w: &mut World, ctx: &mut Ctx, ci: usize) {
    if w.cfg.semantics != DeliverySemantics::AtMostOnce {
        return;
    }
    // With acks=0 a batch "completes" at the socket write, so nothing
    // producer-side expires it afterwards; the only thing that kills
    // in-socket data is the transport stalling hard enough (consecutive
    // RTO backoffs with no progress) that the client recycles the
    // connection — exactly the silent-loss mode of a real fire-and-forget
    // producer.
    let now = ctx.now();
    let channel = &w.conns[ci].channel;
    if channel.bytes_unacked(Endpoint::A) == 0 {
        return;
    }
    let backed_off = channel.backoffs(Endpoint::A) >= w.cfg.stall_backoffs;
    let timed_out = channel.is_stalled(Endpoint::A, now, w.cfg.stall_patience);
    if backed_off || timed_out {
        reset_amo(w, ctx, ci);
    }
}

fn reset_amo(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    let mut report = std::mem::take(&mut w.reset_report);
    w.conns[ci].channel.reset_into(now, &mut report);
    w.stats.connection_resets += 1;
    // Requests that crossed the wire during teardown still get persisted.
    for &id in &report.teardown_delivered_to_b {
        if let Some((_, batch)) = w.amo_outstanding.remove(&id) {
            w.accumulator.recycle(batch);
        }
        teardown_append(w, ctx, ci, id);
    }
    let mut lost_keys = Vec::new();
    for id in &report.undelivered_from_a {
        if let Some((_, batch)) = w.amo_outstanding.remove(id) {
            for m in &batch.messages {
                w.ledger.mark_lost(m.key, LossReason::ConnectionReset);
                if w.trace_on {
                    lost_keys.push(m.key.0);
                }
            }
            w.stats.reset_losses += batch.messages.len() as u64;
            w.accumulator.recycle(batch);
        }
        if let Some(info) = w.requests.remove(id) {
            w.recycle_records(info.records);
        }
    }
    w.reset_report = report;
    if w.trace_on {
        // The keys that died silently in the torn-down socket: acks=0's
        // loss mode, attributable only through this event.
        w.trace.record(TraceEvent::ConnectionReset {
            at: now,
            conn: ci as u32,
            epoch: w.conn_epochs[ci],
            lost_keys,
        });
    }
    w.conn_epochs[ci] += 1;
    let reopen = w.conns[ci].channel.open_at();
    ctx.schedule_at(reopen, Event::DrainBlocked { ci });
    sched_conn_wake(w, ctx, ci);
}

/// Appends a request that arrived at the broker while its connection was
/// being torn down. No response is possible: the connection is gone.
fn teardown_append(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64) {
    let Some(info) = w.requests.remove(&id) else {
        return;
    };
    let proc = w
        .cluster
        .broker(w.conns[ci].broker)
        .expect("broker exists")
        .processing_time(info.records.len());
    w.append_info.insert(id, info);
    ctx.schedule_in(
        proc,
        Event::Append {
            ci,
            id,
            via_teardown: true,
        },
    );
}

// ---------------------------------------------------------------------------
// Housekeeping and termination
// ---------------------------------------------------------------------------

/// A broker crashes: the connection dies exactly like a stall-reset, but
/// nothing can be resent to this broker until it returns (or leadership
/// moves).
fn on_outage_start(w: &mut World, ctx: &mut Ctx, ci: usize, until: SimTime) {
    w.conns[ci].down_until = Some(until);
    if w.trace_on {
        w.trace.record(TraceEvent::BrokerDown {
            at: ctx.now(),
            broker: w.conns[ci].broker.0,
        });
    }
    match w.cfg.semantics {
        DeliverySemantics::AtMostOnce => reset_amo(w, ctx, ci),
        DeliverySemantics::AtLeastOnce | DeliverySemantics::All => {
            fail_connection_alo(w, ctx, ci);
        }
    }
}

/// The broker's outage window ends: the connection is usable again and the
/// broker's replicas start catching up (rejoining ISRs via fetch rounds).
fn on_broker_up(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    if w.conns[ci].down_until.is_some_and(|u| now < u) {
        return; // a later outage window is still in force
    }
    w.conns[ci].down_until = None;
    if w.trace_on {
        w.trace.record(TraceEvent::BrokerUp {
            at: now,
            broker: w.conns[ci].broker.0,
        });
    }
    drain_blocked(w, ctx, ci);
}

/// The controller detects the dead broker and elects a new leader for each
/// partition it led: from the ISR when possible (clean — no acknowledged
/// record can be lost), from the least-lagging live replica when unclean
/// election is enabled (truncating everything the winner had not fetched),
/// or — when the partition has no replica to elect (`factor == 1`) — via
/// the legacy fresh-log transfer to the first alive broker. The producer
/// re-routes its backlog to the new leaders.
fn on_failover(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    if w.conns[ci].down_until.is_none_or(|u| now >= u) {
        return; // back already
    }
    let down = w.down_mask(now);
    for p in 0..w.partition_conn.len() {
        if w.partition_conn[p] != ci {
            continue;
        }
        let partition = p as u32;
        if let Some((candidate, _)) = w.cluster.election_candidate(partition, &down) {
            let outcome = w.cluster.elect_leader(partition, candidate, now);
            w.broker_stats.failovers += 1;
            if outcome.clean {
                w.broker_stats.clean_elections += 1;
            } else {
                w.broker_stats.unclean_elections += 1;
            }
            w.broker_stats.records_truncated += outcome.truncated.len() as u64;
            let mut truncated_keys: Vec<u64> = outcome.truncated.iter().map(|r| r.key.0).collect();
            truncated_keys.sort_unstable();
            // A truncated key with no surviving copy in the new leader's
            // log is broker-caused loss. The mark is pessimistic on
            // purpose: an unacknowledged copy may still be retried to the
            // new leader, and the audit trusts the final log over the mark.
            let surviving: FastSet<u64> = w
                .cluster
                .broker(outcome.leader)
                .and_then(|b| b.log(partition))
                .map(|log| log.iter().map(|r| r.key.0).collect())
                .unwrap_or_default();
            let mut lost_keys = truncated_keys.clone();
            lost_keys.dedup();
            lost_keys.retain(|k| !surviving.contains(k));
            for &k in &lost_keys {
                w.ledger
                    .mark_lost(MessageKey(k), LossReason::LeaderFailover);
            }
            w.broker_stats.lost_to_failover += lost_keys.len() as u64;
            if w.trace_on {
                w.trace.record(TraceEvent::LeaderElected {
                    at: now,
                    partition,
                    leader: outcome.leader.0,
                    clean: outcome.clean,
                    truncated_keys,
                    lost_keys,
                });
            }
            w.partition_conn[p] = outcome.leader.0 as usize;
        } else {
            let target = (0..w.conns.len())
                .find(|&c| c != ci && w.conns[c].down_until.is_none_or(|u| now >= u));
            let Some(target) = target else {
                continue; // nowhere to go
            };
            let to = w.conns[target].broker;
            w.cluster.transfer_leadership(partition, to);
            w.partition_conn[p] = target;
            w.broker_stats.failovers += 1;
            if w.trace_on {
                w.trace.record(TraceEvent::LeaderElected {
                    at: now,
                    partition,
                    leader: to.0,
                    clean: false,
                    truncated_keys: Vec::new(),
                    lost_keys: Vec::new(),
                });
            }
        }
    }
    // Re-route the backlog to the new leaders' connections.
    let backlog: Vec<PendingBatch> = w.conns[ci].blocked.drain(..).collect();
    for batch in backlog {
        let new_ci = w.partition_conn[batch.partition as usize];
        w.conns[new_ci].blocked.push_back(batch);
    }
    for c in 0..w.conns.len() {
        drain_blocked(w, ctx, c);
    }
    // The election may have shrunk an ISR past a held ack's requirement.
    release_pending_acks(w, ctx);
}

/// One follower-fetch round: followers pull from their leaders, the ISR is
/// re-evaluated against `replica.lag.time.max`, and held `acks=all`
/// responses whose offsets are now fully in-sync are released.
///
/// Deliberately leaves `last_activity` alone — replication traffic on its
/// own never keeps a run alive.
fn replication_tick(w: &mut World, ctx: &mut Ctx) {
    let now = ctx.now();
    let down = w.down_mask(now);
    for delta in w.cluster.replicate(now, &down) {
        match delta {
            ReplicationDelta::Fetch {
                partition,
                leader,
                follower,
                from_offset,
                records,
            } => {
                w.broker_stats.replica_fetches += 1;
                if w.trace_on {
                    w.trace.record(TraceEvent::ReplicaFetch {
                        at: now,
                        partition,
                        leader: leader.0,
                        follower: follower.0,
                        from_offset,
                        records,
                    });
                }
            }
            ReplicationDelta::Shrink {
                partition,
                broker,
                isr,
            } => {
                w.broker_stats.isr_shrinks += 1;
                if w.trace_on {
                    w.trace.record(TraceEvent::IsrShrink {
                        at: now,
                        partition,
                        broker: broker.0,
                        isr,
                    });
                }
            }
            ReplicationDelta::Expand {
                partition,
                broker,
                isr,
            } => {
                w.broker_stats.isr_expands += 1;
                if w.trace_on {
                    w.trace.record(TraceEvent::IsrExpand {
                        at: now,
                        partition,
                        broker: broker.0,
                        isr,
                    });
                }
            }
        }
    }
    release_pending_acks(w, ctx);
    if !w.finished {
        let interval = w.cluster.spec().replication.fetch_interval;
        ctx.schedule_in(interval, Event::ReplicationTick);
    }
}

/// Sends every held `acks=all` response whose required offset the ISR now
/// has, and drops entries whose request is no longer in flight (the
/// connection reset underneath them and the batch went back to the retry
/// queue).
fn release_pending_acks(w: &mut World, ctx: &mut Ctx) {
    let pending = std::mem::take(&mut w.pending_acks);
    for ack in pending {
        if !w.in_flight.contains(ack.req_id) {
            continue; // reset underneath us: the batch will be retried
        }
        if w.cluster.isr_has(ack.partition, ack.required) {
            send_response(w, ctx, ack.conn, ack.req_id);
        } else {
            w.pending_acks.push(ack);
        }
    }
}

fn housekeeping(w: &mut World, ctx: &mut Ctx) {
    let now = ctx.now();
    let expired = w.accumulator.expire_all(now);
    w.mark_expired(now, &expired);
    // Blocked batches also age out.
    let mut expired = std::mem::take(&mut w.msg_scratch);
    for ci in 0..w.conns.len() {
        if !w.conns[ci].blocked.is_empty() {
            let mut kept = std::mem::take(&mut w.deque_scratch);
            while let Some(mut batch) = w.conns[ci].blocked.pop_front() {
                let (reason, cause) = if batch.attempts == 0 {
                    (LossReason::ExpiredInBuffer, LossCause::ExpiredInBuffer)
                } else {
                    (LossReason::RetriesExhausted, LossCause::RetriesExhausted)
                };
                expired.clear();
                batch.drop_expired_into(now, &mut expired);
                for m in &expired {
                    w.ledger.mark_lost(m.key, reason);
                }
                w.stats.expired += expired.len() as u64;
                w.trace_losses(now, &expired, cause, Some(batch.id));
                if !batch.messages.is_empty() {
                    kept.push_back(batch);
                } else {
                    w.accumulator.recycle(batch);
                }
            }
            std::mem::swap(&mut w.conns[ci].blocked, &mut kept);
            w.deque_scratch = kept;
        }
        amo_stall_check(w, ctx, ci);
    }
    w.msg_scratch = expired;
    w.accumulator.flush_due(now);
    if !w.accumulator.is_empty() {
        kick_sender(w, ctx, now);
    }
    let idle = w.done_polling
        && w.accumulator.is_empty()
        && w.in_flight.is_empty()
        && w.amo_outstanding.is_empty()
        && w.requests.is_empty()
        && w.conns.iter().all(|c| c.blocked.is_empty());
    if idle {
        w.finished = true;
        return; // stop rescheduling: the event queue will drain
    }
    let interval = w.housekeep_interval;
    ctx.schedule_in(interval, Event::Housekeeping);
}

/// One observation-window boundary of the online controller.
fn online_tick(w: &mut World, ctx: &mut Ctx) {
    let Some(online) = w.online.clone() else {
        return;
    };
    let now = ctx.now();
    let cur = w.stats;
    let base = w.window_base;
    w.window_base = cur;
    let srtt_ms = w
        .conns
        .iter()
        .filter_map(|c| c.channel.srtt(Endpoint::A))
        .map(|d| d.as_secs_f64() * 1e3)
        .fold(None, |acc: Option<f64>, v| {
            Some(acc.map_or(v, |a| a.max(v)))
        });
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
    }
    if w.trace_on {
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

fn apply_config(w: &mut World, ctx: &mut Ctx, cfg: ProducerConfig) {
    let now = ctx.now();
    w.accumulator.reconfigure(cfg.batch_size, cfg.linger, now);
    w.cfg = cfg;
    kick_sender(w, ctx, now);
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::SimDuration;
    use netsim::NetCondition;

    fn quick_spec(n: u64) -> RunSpec {
        RunSpec {
            source: SourceSpec::fixed_rate(n, 200, 500.0),
            ..RunSpec::default()
        }
    }

    #[test]
    fn clean_network_delivers_everything_exactly_once() {
        let outcome = KafkaRun::new(quick_spec(2_000), 1).execute();
        let r = &outcome.report;
        assert_eq!(r.n_source, 2_000);
        assert_eq!(r.lost, 0, "loss reasons: {:?}", r.loss_reasons);
        assert_eq!(r.duplicated, 0);
        assert_eq!(r.delivered_once, 2_000);
        assert_eq!(outcome.producer.connection_resets, 0);
    }

    #[test]
    fn conservation_invariant_holds() {
        for seed in 0..3 {
            let mut spec = quick_spec(500);
            spec.network =
                ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.15));
            let outcome = KafkaRun::new(spec, seed).execute();
            let r = &outcome.report;
            assert_eq!(
                r.delivered_once + r.lost + r.duplicated,
                r.n_source,
                "every message resolves exactly once"
            );
            let case_total: u64 = r.case_counts.iter().sum();
            assert_eq!(case_total, r.n_source);
        }
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let run = |seed| {
            let mut spec = quick_spec(800);
            spec.network =
                ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(50), 0.10));
            KafkaRun::new(spec, seed).execute()
        };
        let a = run(7);
        let b = run(7);
        assert_eq!(a.report, b.report);
        assert_eq!(a.events_fired, b.events_fired);
        let c = run(8);
        // A different seed should (almost surely) change something.
        assert!(
            a.events_fired != c.events_fired || a.report != c.report,
            "different seeds should differ"
        );
    }

    #[test]
    fn at_most_once_loses_under_heavy_loss() {
        let mut spec = quick_spec(1_000);
        spec.producer = ProducerConfig::builder()
            .semantics(DeliverySemantics::AtMostOnce)
            .message_timeout(SimDuration::from_millis(2_000))
            .build()
            .unwrap();
        spec.network =
            ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.30));
        let outcome = KafkaRun::new(spec, 3).execute();
        assert!(
            outcome.report.p_loss() > 0.05,
            "30% packet loss must hurt at-most-once: P_l = {}",
            outcome.report.p_loss()
        );
        assert_eq!(outcome.report.duplicated, 0, "AMO can never duplicate");
    }

    #[test]
    fn at_least_once_beats_at_most_once_under_loss() {
        let run = |semantics| {
            let mut spec = quick_spec(1_000);
            spec.producer = ProducerConfig::builder()
                .semantics(semantics)
                .message_timeout(SimDuration::from_millis(4_000))
                .build()
                .unwrap();
            spec.network =
                ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.20));
            KafkaRun::new(spec, 4).execute().report.p_loss()
        };
        let amo = run(DeliverySemantics::AtMostOnce);
        let alo = run(DeliverySemantics::AtLeastOnce);
        assert!(
            alo < amo,
            "retries should save messages: ALO {alo} vs AMO {amo}"
        );
    }

    #[test]
    fn duplicates_only_under_at_least_once() {
        let mut spec = quick_spec(2_000);
        spec.producer = ProducerConfig::builder()
            .semantics(DeliverySemantics::AtLeastOnce)
            .request_timeout(SimDuration::from_millis(400))
            .message_timeout(SimDuration::from_millis(5_000))
            .build()
            .unwrap();
        spec.network =
            ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(150), 0.25));
        let outcome = KafkaRun::new(spec, 5).execute();
        // With aggressive request timeouts and heavy loss some acks are
        // missed after the append happened → Case 5.
        assert!(
            outcome.report.duplicated > 0,
            "expected duplicates, got report {:?}",
            outcome.report.case_counts
        );
    }

    #[test]
    fn overload_expires_messages_via_timeout() {
        let mut spec = RunSpec {
            source: SourceSpec::full_load(3_000, 200),
            ..RunSpec::default()
        };
        spec.producer = ProducerConfig::builder()
            .message_timeout(SimDuration::from_millis(300))
            .build()
            .unwrap();
        let outcome = KafkaRun::new(spec, 6).execute();
        assert!(
            outcome.report.p_loss() > 0.01,
            "full load with a 300ms timeout must expire messages: {}",
            outcome.report.p_loss()
        );
        assert!(outcome
            .report
            .loss_reasons
            .keys()
            .any(|r| matches!(r, LossReason::ExpiredInBuffer | LossReason::ConnectionReset)));
    }

    #[test]
    fn batching_reduces_requests() {
        let run = |batch: usize| {
            let mut spec = quick_spec(1_000);
            spec.producer = ProducerConfig::builder().batch_size(batch).build().unwrap();
            KafkaRun::new(spec, 7).execute().producer.requests_sent
        };
        let single = run(1);
        let batched = run(8);
        assert!(
            batched * 4 < single,
            "8-batches need far fewer requests: {batched} vs {single}"
        );
    }

    #[test]
    fn dynamic_config_changes_apply_mid_run() {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(2_000, 200, 200.0),
            ..RunSpec::default()
        };
        let late_cfg = ProducerConfig::builder().batch_size(10).build().unwrap();
        spec.config_schedule = vec![(SimTime::from_secs(5), late_cfg)];
        let outcome = KafkaRun::new(spec, 8).execute();
        assert_eq!(outcome.report.lost, 0);
        // 2000 msgs at 200/s = 10s; second half batched by 10 → far fewer
        // requests than 2000.
        assert!(
            outcome.producer.requests_sent < 1_600,
            "requests: {}",
            outcome.producer.requests_sent
        );
    }

    #[test]
    fn broker_outage_loses_messages_without_failover() {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(2_000, 200, 100.0), // 20s of traffic
            ..RunSpec::default()
        };
        spec.producer = ProducerConfig::builder()
            .message_timeout(SimDuration::from_millis(1_000))
            .build()
            .unwrap();
        spec.outages = vec![BrokerOutage {
            broker: crate::broker::BrokerId(0),
            from: SimTime::from_secs(5),
            until: SimTime::from_secs(15),
        }];
        let outcome = KafkaRun::new(spec, 11).execute();
        // Broker 0 leads 1 of 3 partitions; ~10s of its traffic expires.
        let r = &outcome.report;
        assert!(
            r.p_loss() > 0.10,
            "a 10s outage must cost about a partition's share: {}",
            r.p_loss()
        );
        assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
    }

    #[test]
    fn failover_rescues_most_of_an_outage() {
        let base = |failover| {
            let mut spec = RunSpec {
                source: SourceSpec::fixed_rate(2_000, 200, 100.0),
                ..RunSpec::default()
            };
            spec.producer = ProducerConfig::builder()
                .message_timeout(SimDuration::from_millis(1_000))
                .build()
                .unwrap();
            spec.outages = vec![BrokerOutage {
                broker: crate::broker::BrokerId(0),
                from: SimTime::from_secs(5),
                until: SimTime::from_secs(15),
            }];
            spec.failover_after = failover;
            KafkaRun::new(spec, 11).execute().report.p_loss()
        };
        let without = base(None);
        let with = base(Some(SimDuration::from_millis(500)));
        assert!(
            with < without / 2.0,
            "failover must rescue most of the outage window: {with} vs {without}"
        );
    }

    #[test]
    fn outage_validation_rejects_nonsense() {
        let spec = RunSpec {
            outages: vec![BrokerOutage {
                broker: crate::broker::BrokerId(0),
                from: SimTime::from_secs(5),
                until: SimTime::from_secs(5),
            }],
            ..RunSpec::default()
        };
        assert!(spec.validate().is_err());
        let spec = RunSpec {
            outages: vec![BrokerOutage {
                broker: crate::broker::BrokerId(9),
                from: SimTime::ZERO,
                until: SimTime::from_secs(1),
            }],
            ..RunSpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn online_controller_observes_and_reconfigures() {
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;

        struct Batcher {
            windows: AtomicU64,
        }
        impl OnlineController for Batcher {
            fn decide(
                &self,
                stats: &WindowStats,
                current: &ProducerConfig,
            ) -> Option<ProducerConfig> {
                self.windows.fetch_add(1, Ordering::Relaxed);
                // Requests flowed, so the window stats are live.
                if stats.requests_sent > 0 && current.batch_size == 1 {
                    let mut cfg = current.clone();
                    cfg.batch_size = 8;
                    return Some(cfg);
                }
                None
            }
        }

        let controller = Arc::new(Batcher {
            windows: AtomicU64::new(0),
        });
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(3_000, 200, 150.0), // 20s of traffic
            ..RunSpec::default()
        };
        spec.online = Some(OnlineSpec {
            interval: SimDuration::from_secs(2),
            controller: controller.clone(),
        });
        let outcome = KafkaRun::new(spec, 21).execute();
        assert!(controller.windows.load(Ordering::Relaxed) >= 5);
        assert_eq!(outcome.producer.online_reconfigurations, 1);
        // Batching kicked in after ~2s: far fewer requests than messages.
        assert!(
            outcome.producer.requests_sent < 1_500,
            "requests: {}",
            outcome.producer.requests_sent
        );
        assert_eq!(outcome.report.lost, 0);
    }

    #[test]
    fn online_interval_must_be_positive() {
        use std::sync::Arc;
        struct Noop;
        impl OnlineController for Noop {
            fn decide(&self, _: &WindowStats, _: &ProducerConfig) -> Option<ProducerConfig> {
                None
            }
        }
        let spec = RunSpec {
            online: Some(OnlineSpec {
                interval: SimDuration::ZERO,
                controller: Arc::new(Noop),
            }),
            ..RunSpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn hard_horizon_bounds_the_run() {
        let mut spec = quick_spec(100);
        spec.network =
            ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.95));
        spec.max_duration = SimDuration::from_secs(30);
        let outcome = KafkaRun::new(spec, 9).execute();
        // The run finishes (does not hang) and every message resolves.
        let r = &outcome.report;
        assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        assert!(r.lost > 0, "a 95%-loss network must lose messages");
    }

    #[test]
    fn multi_partition_spreads_over_brokers() {
        let mut spec = quick_spec(900);
        spec.cluster = ClusterSpec {
            brokers: 3,
            partitions: 3,
            ..ClusterSpec::default()
        };
        let outcome = KafkaRun::new(spec, 10).execute();
        assert_eq!(outcome.report.lost, 0);
        assert_eq!(outcome.tcp.len(), 3);
        assert!(outcome.links.iter().all(|l| l.delivered > 0));
    }
}
