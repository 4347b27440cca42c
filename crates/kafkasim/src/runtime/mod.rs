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
//!   the transport stalls through repeated RTO backoffs, or the broker
//!   crashes, the producer tears the connection down, exactly like a real
//!   client disconnecting an unresponsive broker. One teardown settles the
//!   connection's send-ordered queue of in-flight requests, each by the
//!   acks level it was *sent* under, whatever the producer's level is now:
//!   the bytes in the dead socket are gone, which for an `acks=0` request
//!   is *silent* loss (Fig. 4's at-most-once penalty) and for an acked one
//!   a retry.
//! * **Retries** — an unanswered produce request times out, fails the
//!   connection, and is retried up to `τ_r` times within `T_o`. A retry of a
//!   request whose original *was* persisted (the ack was lost or late)
//!   appends the batch again — duplicates, the paper's Case 5 (Fig. 8).
//!
//! The loop is one module per seam its profiler spans draw, each owning
//! its state: `sender`, `conn`, `brokers` and `online` (DESIGN §8d). The
//! `Cluster` is the one copy of partition leadership and broker liveness.

mod brokers;
mod conn;
mod online;
mod sender;

use desim::{EventContext, EventSim, EventWorld, SimDuration, SimRng, SimTime};
use netsim::channel::ResetReport;
use netsim::{ChannelConfig, ChannelEvent, ConditionTimeline};
use netsim::{DuplexChannel, Endpoint};
use obs::{MetricsSummary, NoopSink, Profiler, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use crate::audit::{DeliveryReport, LossReason};
use crate::broker::BrokerId;
use crate::cluster::{Cluster, ClusterSpec};
use crate::config::ProducerConfig;
use crate::consumer;
use crate::message::{Message, MessageKey};
use crate::producer::{Accumulator, Ledger, PendingBatch};
use crate::source::SourceSpec;
use crate::wire::WireFormat;
use brokers::BrokerSide;
use conn::Conn;
use online::Online;
pub use online::{OnlineController, OnlineSpec, WindowStats};
use sender::Sender;

/// Period of the housekeeping sweep.
const HOUSEKEEP_INTERVAL: SimDuration = SimDuration::from_millis(100);

/// The broker at the far end of connection `ci`: the run builds one
/// connection per broker, in the cluster's broker order.
fn broker_of(ci: usize) -> BrokerId {
    BrokerId(ci as u32)
}

/// A broker fault (the paper's future-work failure scenario): one crash
/// with restart, driven through the event engine and traced as
/// [`TraceEvent::BrokerDown`]/[`TraceEvent::BrokerUp`]. A flapping broker is
/// one entry per crash in [`RunSpec::faults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct BrokerFault {
    /// The faulty broker.
    pub broker: BrokerId,
    /// Crash instant.
    pub at: SimTime,
    /// Outage length.
    pub down_for: SimDuration,
}

impl BrokerFault {
    /// One crash at `at`, restarting after `down_for`.
    #[must_use]
    pub fn crash(broker: BrokerId, at: SimTime, down_for: SimDuration) -> Self {
        BrokerFault {
            broker,
            at,
            down_for,
        }
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
    /// Broker faults, one entry per crash (a flapping broker has several).
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
        for fault in &self.faults {
            if fault.down_for.is_zero() {
                return Err("fault outage length must be positive".into());
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

/// The run's event alphabet for the typed engine ([`desim::EventSim`]).
///
/// Each variant replaces what used to be a boxed closure: scheduling is now
/// a plain enum write into the event queue, so the hot loop allocates
/// nothing per event. Stale timers (sender kicks, linger wakes, connection
/// wakes, request timeouts) are retired by guard flags in the seams' state
/// (`Sender`, `Conn`) rather than by cancellation.
enum Event {
    /// Pull the next message from the source.
    PollSource,
    /// Periodic expiry sweep and termination check.
    Housekeeping,
    /// A NetEm breakpoint: apply the network's `i`-th condition to every
    /// link.
    SetCondition(u32),
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
    /// Serialisation of the sender's oldest batch finished; put it on the
    /// wire (the batch waits in `Sender`, as an append's payload waits in
    /// `BrokerSide`).
    Dispatch,
    /// `req_id`, in flight on connection `ci`, passed its response deadline.
    RequestTimeout { ci: usize, req_id: u64 },
    /// Connection `ci` may accept blocked batches again.
    DrainBlocked { ci: usize },
    /// Connection `ci`'s transport has queued work due now.
    ConnWake { ci: usize },
    /// Broker-side append of a processed request (payload parked in
    /// `BrokerSide::append_info`). `via_teardown` marks requests that arrived
    /// while their connection was being torn down (no response possible).
    Append {
        ci: usize,
        id: u64,
        via_teardown: bool,
    },
}

// Every pending event is a queue entry of the event and a 16-byte key, and
// the queue moves entries on every push and pop: a payload bigger than two
// words waits in the world instead (`SetCondition`, `Dispatch`, `Append`).
const _: () = assert!(std::mem::size_of::<Event>() <= 24);

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
        Event::Dispatch => "kafkasim.dispatch",
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
            Event::PollSource => sender::poll_source(self, ctx),
            Event::Housekeeping => sender::housekeeping(self, ctx),
            Event::SetCondition(i) => {
                let (now, cond) = (ctx.now(), self.network.breakpoints()[i as usize].1);
                for conn in &mut self.conns {
                    conn.channel.set_condition(cond, now);
                }
            }
            Event::ApplyConfig(cfg) => online::apply_config(self, ctx, *cfg),
            Event::OutageStart { ci, until } => brokers::on_outage_start(self, ctx, ci, until),
            Event::Failover { ci } => brokers::on_failover(self, ctx, ci),
            Event::BrokerUp { ci } => brokers::on_broker_up(self, ctx, ci),
            Event::ReplicationTick => brokers::replication_tick(self, ctx),
            Event::OnlineTick => online::online_tick(self, ctx),
            Event::SenderKick => sender::on_sender_kick(self, ctx),
            Event::LingerWake => sender::on_linger_wake(self, ctx),
            Event::Dispatch => sender::dispatch_batch(self, ctx),
            Event::RequestTimeout { ci, req_id } => conn::on_request_timeout(self, ctx, ci, req_id),
            Event::DrainBlocked { ci } => conn::drain_blocked(self, ctx, ci),
            Event::ConnWake { ci } => conn::on_conn_wake(self, ctx, ci),
            Event::Append {
                ci,
                id,
                via_teardown,
            } => brokers::do_append(self, ctx, ci, id, via_teardown),
        }
    }
}

/// What every handler works on: each seam's state and what they share.
struct World {
    /// Wall-clock span profiler; disabled outside profiled runs, where a
    /// span is one inline `None` test.
    prof: Profiler,
    cfg: ProducerConfig,
    wire: WireFormat,
    source: SourceSpec,
    /// The network's conditions over time; `SetCondition` names one.
    network: ConditionTimeline,
    /// Brokers, partition leadership and broker liveness: the one copy.
    cluster: Cluster,
    sender: Sender,
    /// One connection per broker, `conns[i]` to `broker_of(i)`.
    conns: Vec<Conn>,
    brokers: BrokerSide,
    online: Option<Online>,
    accumulator: Accumulator,
    ledger: Ledger,
    rng: SimRng,
    /// The next produce request's id, unique across connections.
    next_request_id: u64,
    stats: ProducerStats,
    finished: bool,
    last_activity: SimTime,
    /// Run horizon (`SimTime::ZERO + max_duration`); the poll-coalescing
    /// loop must not process messages past it inline, because the driver
    /// loop only ever fires *one* event past it.
    hard_deadline: SimTime,
    trace: Box<dyn TraceSink>,
    /// Cached `trace.enabled()` — one virtual call at construction instead
    /// of one per trace site per event.
    trace_on: bool,
    /// Scratch buffer for expired-message sweeps (reused, never freed).
    msg_scratch: Vec<Message>,
    /// Scratch buffer for draining channel events (reused, never freed).
    chan_events: Vec<ChannelEvent>,
    /// Pooled reset report reused across connection teardowns.
    reset_report: ResetReport,
}

impl World {
    /// Marks the messages `keys` lost for `reason` in the ledger and emits
    /// one `Expired` trace event each (the ledger only, when untraced).
    fn lose(
        &mut self,
        now: SimTime,
        keys: impl Iterator<Item = MessageKey> + Clone,
        reason: LossReason,
        batch: Option<u64>,
    ) {
        for key in keys.clone() {
            self.ledger.mark_lost(key, reason);
        }
        if !self.trace_on {
            return;
        }
        for key in keys {
            self.trace.record(TraceEvent::Expired {
                at: now,
                key: key.0,
                cause: reason,
                batch,
            });
        }
    }

    /// Drops the messages of `batch` that are expired at `cutoff`, marks
    /// them lost for `reason` (traced at `now`, under `batch_id`), and
    /// returns how many it dropped.
    fn expire(
        &mut self,
        batch: &mut PendingBatch,
        cutoff: SimTime,
        now: SimTime,
        reason: LossReason,
        batch_id: Option<u64>,
    ) -> u64 {
        let mut expired = std::mem::take(&mut self.msg_scratch);
        expired.clear();
        batch.drop_expired_into(cutoff, &mut expired);
        self.lose(now, expired.iter().map(|m| m.key), reason, batch_id);
        let n = expired.len() as u64;
        self.msg_scratch = expired;
        n
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
    /// Panics as [`KafkaRun::execute_profiled`] does.
    #[must_use]
    pub fn execute(self) -> RunOutcome {
        self.execute_traced(Box::new(NoopSink)).0
    }

    /// Executes the run with `sink` receiving a [`TraceEvent`] for every
    /// hop of every message, and returns the sink alongside the outcome so
    /// its contents (events, metrics) can be inspected.
    ///
    /// [`KafkaRun::execute_profiled`] with a disabled [`Profiler`], and
    /// panics as it does. Tracing is observational only: a traced run takes
    /// the exact same decisions as an untraced one with the same spec and
    /// seed.
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
        // The documented panic: `execute*` run only validated specs.
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
            faults,
            failover_after,
            online,
        } = self.spec;

        let mut rng = SimRng::seed_from_u64(self.seed);
        // `validate` above checked the cluster spec, the only thing
        // `Cluster::new` refuses.
        let cluster = Cluster::new(cluster_spec).expect("validated");
        let initial_condition = network.at(SimTime::ZERO);
        let conns: Vec<Conn> = cluster
            .brokers()
            .iter()
            .map(|_| {
                let mut ch = DuplexChannel::new(channel.clone(), rng.fork());
                ch.set_condition(initial_condition, SimTime::ZERO);
                Conn::new(ch)
            })
            .collect();
        let accumulator = Accumulator::new(
            producer.batch_size,
            producer.linger,
            producer.buffer_capacity,
            cluster.partitions(),
        );
        let replication = cluster.spec().replication;
        let online_interval = online.as_ref().map(|o| o.interval);
        let trace_on = sink.enabled();
        let world = World {
            prof: prof.clone(),
            cfg: producer,
            wire,
            ledger: Ledger::with_capacity(source.n_messages as usize),
            source,
            network,
            cluster,
            sender: Sender::default(),
            conns,
            brokers: BrokerSide::default(),
            online: online.map(Online::new),
            accumulator,
            rng,
            next_request_id: 0,
            stats: ProducerStats::default(),
            finished: false,
            last_activity: SimTime::ZERO,
            hard_deadline: SimTime::ZERO + max_duration,
            trace: sink,
            trace_on,
            msg_scratch: Vec::new(),
            chan_events: Vec::new(),
            reset_report: ResetReport::default(),
        };

        let mut sim = EventSim::new(world);
        sim.schedule_at(SimTime::ZERO, Event::PollSource);
        sim.schedule_in(HOUSEKEEP_INTERVAL, Event::Housekeeping);
        for i in 1..sim.world().network.breakpoints().len() {
            let t = sim.world().network.breakpoints()[i].0;
            sim.schedule_at(t, Event::SetCondition(i as u32));
        }
        for (t, cfg) in config_schedule {
            sim.schedule_at(t, Event::ApplyConfig(Box::new(cfg)));
        }
        for fault in faults {
            let ci = fault.broker.0 as usize;
            let until = fault.at + fault.down_for;
            sim.schedule_at(fault.at, Event::OutageStart { ci, until });
            if let Some(detect) = failover_after {
                sim.schedule_at(fault.at + detect, Event::Failover { ci });
            }
            sim.schedule_at(until, Event::BrokerUp { ci });
        }
        if replication.factor > 1 {
            sim.schedule_in(replication.fetch_interval, Event::ReplicationTick);
        }
        if let Some(interval) = online_interval {
            sim.schedule_in(interval, Event::OnlineTick);
        }
        let hard_deadline = sim.world().hard_deadline;
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
        let events_fired = sim.events_fired();
        let mut world = sim.into_world();
        let report = consumer::read_back(
            &world.cluster,
            &world.ledger,
            world.source.timeliness,
            world.last_activity,
            world.trace.as_mut(),
        );
        let metrics = world.trace.metrics().map(obs::MetricsRegistry::summary);
        let outcome = RunOutcome {
            report,
            producer: ProducerStats {
                overflowed: world.accumulator.overflowed(),
                ..world.stats
            },
            brokers: world.brokers.stats,
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
        (outcome, world.trace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DeliverySemantics;
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
        spec.faults = vec![BrokerFault::crash(
            BrokerId(0),
            SimTime::from_secs(5),
            SimDuration::from_secs(10),
        )];
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
            spec.faults = vec![BrokerFault::crash(
                BrokerId(0),
                SimTime::from_secs(5),
                SimDuration::from_secs(10),
            )];
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
        let fault = BrokerFault::crash(BrokerId(0), SimTime::from_secs(5), SimDuration::ZERO);
        let spec = RunSpec {
            faults: vec![fault],
            ..RunSpec::default()
        };
        assert!(spec.validate().is_err());
        let fault = BrokerFault::crash(BrokerId(9), SimTime::ZERO, SimDuration::from_secs(1));
        let spec = RunSpec {
            faults: vec![fault],
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
