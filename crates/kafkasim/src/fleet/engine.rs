//! The fleet event engine: N producers → partitioned topic → consumer
//! group, with per-tenant reliability accounting.
//!
//! This engine deliberately does **not** instantiate N copies of the
//! protocol-level [`crate::runtime::KafkaRun`] — at 10³–10⁶ producers
//! that would be millions of batch/ack events per second of simulated
//! time. Instead it models the fleet at the *flow* level on the same
//! [`desim`] event loop: producers emit deterministic Poisson-free
//! (rate × elapsed, plus a fractional carry shared by every tenant of one
//! flush phase and class) message counts per flush, a
//! pluggable [`Partitioner`] routes every message, per-partition token
//! buckets bound append throughput (the *How Fast Can We Insert?*
//! envelope), and a [`GroupCoordinator`] rebalances consumer ownership
//! under join/leave churn. Loss is attributed per tenant to either the
//! network (`base_loss` Bernoulli per message, per-tenant forked RNG) or
//! partition overload (bucket exhausted); duplicates arise when a
//! partition changes owner and the new consumer re-reads uncommitted
//! records under at-least-once — modelled as one duplicate per append to
//! a moved partition during its re-read window.
//!
//! **Conservation invariants** (pinned by the workspace proptests): for
//! every tenant, `produced == delivered + lost` and
//! `lost == lost_network + lost_overload`; summing any ledger column
//! over tenants equals the fleet-level total. All state lives in plain
//! `Vec`s indexed by tenant/partition/class and all randomness comes
//! from per-tenant forks of one master [`SimRng`], so a `(config, seed)`
//! pair replays bit-identically.

use desim::{EventContext, EventSim, EventWorld, SimDuration, SimRng, SimTime};
use obs::{NoopSink, Profiler, TenantSeries, TenantWindowRow, TraceEvent, TraceSink};
use serde::{Deserialize, Serialize};

use super::group::{Assignor, GroupCoordinator};
use super::partition::{PartitionStrategy, Partitioner};
use super::population::Population;

/// Producers flush accumulated messages on this cadence.
const FLUSH_INTERVAL: SimDuration = SimDuration::from_millis(200);
/// Flushes are staggered over this many phases of the interval, so fleet
/// arrivals spread over time instead of synchronising on one grid point:
/// tenant `t` flushes in phase `t % PHASES`.
const PHASES: usize = 8;
/// Consumer drain cadence.
const CONSUME_TICK: SimDuration = SimDuration::from_millis(100);
/// Token-bucket burst window: a partition can absorb this many seconds
/// of its sustained capacity at once.
const BURST_SECS: f64 = 0.25;
/// A consumer drains an owned partition at this multiple of the
/// partition's append capacity (it must outrun producers to ever catch
/// up after a pause).
const DRAIN_FACTOR: f64 = 2.0;

/// What a churn event does to the group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChurnAction {
    /// The member joins the group.
    Join,
    /// The member leaves the group.
    Leave,
}

/// One scripted membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChurnEvent {
    /// When the change happens (must fall strictly inside the run).
    pub at: SimTime,
    /// Join or leave.
    pub action: ChurnAction,
    /// The consumer member id.
    pub member: u32,
}

/// Full fleet-run description.
///
/// # Example
///
/// ```
/// use desim::SimDuration;
/// use kafkasim::fleet::{
///     Assignor, FleetConfig, PartitionStrategy, Population, PopulationEntry, StreamClass,
/// };
/// use kafkasim::source::SizeSpec;
///
/// let cfg = FleetConfig {
///     producers: 100,
///     partitions: 8,
///     strategy: PartitionStrategy::KeyHash,
///     population: Population::new(vec![PopulationEntry {
///         class: StreamClass {
///             name: "web-access-records".into(),
///             size: SizeSpec::Fixed(200),
///             rate_hz: 1.0,
///             timeliness: SimDuration::from_secs(30),
///         },
///         weight: 1.0,
///     }])
///     .expect("a positive weight and rate"),
///     ..FleetConfig::default()
/// };
/// assert!(cfg.validate().is_ok());
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetConfig {
    /// Number of producers (tenants).
    pub producers: usize,
    /// Partitions of the shared topic.
    pub partitions: u32,
    /// Partitioning strategy routing tenants to partitions.
    pub strategy: PartitionStrategy,
    /// The producer population mix.
    pub population: Population,
    /// Consumer-group members present at time zero (ids `0..n`).
    pub initial_consumers: u32,
    /// Partition-assignment policy at each rebalance.
    pub assignor: Assignor,
    /// Scripted membership changes.
    pub churn: Vec<ChurnEvent>,
    /// Simulated run length.
    pub duration: SimDuration,
    /// KPI window length (must divide `duration`).
    pub window: SimDuration,
    /// Sustained append capacity of one partition, messages/second.
    pub partition_capacity_hz: f64,
    /// Per-message network-loss probability (at-most-once leg).
    pub base_loss: f64,
    /// How long a moved partition is paused (consumer hand-off) and
    /// re-read (duplicate window) after a rebalance.
    pub rebalance_pause: SimDuration,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            producers: 100,
            partitions: 8,
            strategy: PartitionStrategy::KeyHash,
            population: Population::new(vec![super::population::PopulationEntry {
                class: super::population::StreamClass {
                    name: "web-access-records".into(),
                    size: crate::source::SizeSpec::Fixed(200),
                    rate_hz: 1.0,
                    timeliness: SimDuration::from_secs(30),
                },
                weight: 1.0,
            }])
            .expect("one class of positive weight and rate is valid"),
            initial_consumers: 4,
            assignor: Assignor::Sticky,
            churn: Vec::new(),
            duration: SimDuration::from_secs(30),
            window: SimDuration::from_secs(5),
            partition_capacity_hz: 50.0,
            base_loss: 0.001,
            rebalance_pause: SimDuration::from_secs(2),
        }
    }
}

impl FleetConfig {
    /// Validates the config.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.producers == 0 {
            return Err("fleet needs at least one producer".into());
        }
        if self.partitions == 0 {
            return Err("topic needs at least one partition".into());
        }
        if self.initial_consumers == 0 {
            return Err("group needs at least one initial consumer".into());
        }
        if self.duration.is_zero() || self.window.is_zero() {
            return Err("duration and window must be non-zero".into());
        }
        if !self
            .duration
            .as_micros()
            .is_multiple_of(self.window.as_micros())
        {
            return Err("window must divide duration evenly".into());
        }
        if !self.partition_capacity_hz.is_finite() || self.partition_capacity_hz <= 0.0 {
            return Err("partition capacity must be finite and positive".into());
        }
        if !self.base_loss.is_finite() || !(0.0..=1.0).contains(&self.base_loss) {
            return Err("base loss must be a probability".into());
        }
        for (i, c) in self.churn.iter().enumerate() {
            if c.at == SimTime::ZERO || c.at >= SimTime::ZERO + self.duration {
                return Err(format!("churn[{i}] must fall strictly inside the run"));
            }
        }
        Ok(())
    }
}

/// Per-tenant delivery ledger: where every message of one producer went.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TenantLedger {
    /// Tenant (producer) id.
    pub tenant: u32,
    /// Stream-class index into the population.
    pub class: u16,
    /// Messages the tenant emitted.
    pub produced: u64,
    /// Messages appended to the topic (first copies).
    pub delivered: u64,
    /// Messages dropped by the network leg.
    pub lost_network: u64,
    /// Messages rejected by a saturated partition.
    pub lost_overload: u64,
    /// Duplicate deliveries (rebalance re-reads).
    pub duplicated: u64,
}

impl TenantLedger {
    /// Total messages lost, all causes.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost_network + self.lost_overload
    }
}

/// Fleet-level totals (sums of the per-tenant ledgers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct FleetTotals {
    /// Sum of `TenantLedger::produced`.
    pub produced: u64,
    /// Sum of `TenantLedger::delivered`.
    pub delivered: u64,
    /// Sum of `TenantLedger::lost_network`.
    pub lost_network: u64,
    /// Sum of `TenantLedger::lost_overload`.
    pub lost_overload: u64,
    /// Sum of `TenantLedger::duplicated`.
    pub duplicated: u64,
}

impl FleetTotals {
    /// Total messages lost, all causes.
    #[must_use]
    pub fn lost(&self) -> u64 {
        self.lost_network + self.lost_overload
    }
}

/// Per-class rollup of the tenant ledgers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClassSummary {
    /// Class label.
    pub class: String,
    /// Producers in the class.
    pub producers: u64,
    /// Messages emitted by the class.
    pub produced: u64,
    /// First copies appended.
    pub delivered: u64,
    /// Network losses.
    pub lost_network: u64,
    /// Overload losses.
    pub lost_overload: u64,
    /// Duplicate deliveries.
    pub duplicated: u64,
}

/// One rebalance as it happened.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RebalanceRecord {
    /// When the membership change landed.
    pub at: SimTime,
    /// Group generation it produced.
    pub generation: u64,
    /// Members after the change.
    pub members: Vec<u32>,
    /// Partitions that changed owner.
    pub moved: Vec<u32>,
}

/// Everything a fleet run produces.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetOutcome {
    /// One ledger per tenant, in tenant order.
    pub tenants: Vec<TenantLedger>,
    /// Fleet-level totals.
    pub totals: FleetTotals,
    /// Per-class rollups, in population declaration order.
    pub classes: Vec<ClassSummary>,
    /// First-copy appends per partition (the skew profile).
    pub partition_appends: Vec<u64>,
    /// Every rebalance, in time order.
    pub rebalances: Vec<RebalanceRecord>,
    /// The windowed per-tenant (per-class cohort) KPI series.
    pub windows: TenantSeries,
    /// Events the simulation loop fired.
    pub events_fired: u64,
}

impl FleetOutcome {
    /// Partition skew: hottest partition's appends over the mean.
    /// `1.0` is perfectly even; `0.0` when nothing was appended.
    #[must_use]
    pub fn skew(&self) -> f64 {
        let max = self.partition_appends.iter().copied().max().unwrap_or(0) as f64;
        let total: u64 = self.partition_appends.iter().sum();
        if total == 0 {
            return 0.0;
        }
        let mean = total as f64 / self.partition_appends.len() as f64;
        max / mean
    }
}

/// Per-partition runtime state.
#[derive(Debug, Clone)]
struct PartitionState {
    /// Token bucket: available append tokens.
    tokens: f64,
    last_refill: SimTime,
    /// First-copy appends.
    appends: u64,
    /// Records drained by the group.
    consumed: u64,
    /// Consumption is paused until this instant (rebalance hand-off).
    paused_until: SimTime,
    /// Appends until this instant are re-read by the new owner
    /// (at-least-once duplicate window).
    reread_until: SimTime,
}

impl PartitionState {
    /// Fresh-topic state at time zero: a full burst bucket, nothing
    /// appended, nothing paused.
    fn fresh(capacity_hz: f64) -> Self {
        PartitionState {
            tokens: capacity_hz * BURST_SECS,
            last_refill: SimTime::ZERO,
            appends: 0,
            consumed: 0,
            paused_until: SimTime::ZERO,
            reread_until: SimTime::ZERO,
        }
    }

    /// Refill the token bucket to `now`, then accept up to `n` appends in
    /// one step. Returns how many were accepted; the rest are overload.
    ///
    /// Bit-identical to `n` sequential single-message attempts at the same
    /// instant: the refill at equal `now` adds exactly `0.0` tokens (an
    /// exact no-op), and for token counts in the bucket's range,
    /// `tokens - 1.0` repeated `k` times equals `tokens - k as f64`
    /// exactly (1.0 is an integer multiple of the ulp of any f64 in
    /// `[1, 2^52]`), pinned by `coalesced_accept_matches_sequential_singles`.
    /// `n == 0` is *not* a no-op: the refill still moves `last_refill`, and
    /// `t + c·e₁ + c·e₂` is not `t + c·(e₁ + e₂)` in floats.
    fn accept(&mut self, capacity_hz: f64, now: SimTime, n: u64) -> u64 {
        let elapsed = (now - self.last_refill).as_secs_f64();
        self.tokens = (self.tokens + capacity_hz * elapsed).min(capacity_hz * BURST_SECS);
        self.last_refill = now;
        let accepted = n.min(self.tokens as u64);
        self.tokens -= accepted as f64;
        self.appends += accepted;
        accepted
    }
}

/// Per-class accumulator for the open KPI window.
#[derive(Debug, Clone, Copy, Default)]
struct ClassWindowAcc {
    produced: u64,
    delivered: u64,
    lost: u64,
    duplicated: u64,
}

/// Fold the per-tenant ledgers into fleet totals and per-class rollups.
fn totals_and_classes(
    ledgers: &[TenantLedger],
    class_producers: &[u64],
    population: &Population,
) -> (FleetTotals, Vec<ClassSummary>) {
    let mut totals = FleetTotals::default();
    for l in ledgers {
        totals.produced += l.produced;
        totals.delivered += l.delivered;
        totals.lost_network += l.lost_network;
        totals.lost_overload += l.lost_overload;
        totals.duplicated += l.duplicated;
    }
    let mut classes: Vec<ClassSummary> = population
        .entries()
        .iter()
        .enumerate()
        .map(|(i, e)| ClassSummary {
            class: e.class.name.clone(),
            producers: class_producers[i],
            produced: 0,
            delivered: 0,
            lost_network: 0,
            lost_overload: 0,
            duplicated: 0,
        })
        .collect();
    for l in ledgers {
        let c = &mut classes[l.class as usize];
        c.produced += l.produced;
        c.delivered += l.delivered;
        c.lost_network += l.lost_network;
        c.lost_overload += l.lost_overload;
        c.duplicated += l.duplicated;
    }
    (totals, classes)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FleetEvent {
    /// Every tenant of one flush phase flushes accumulated messages.
    Flush(u32),
    /// Scripted churn entry (index into `FleetConfig::churn`).
    Churn(u32),
    /// Group drains owned, unpaused partitions.
    ConsumeTick,
    /// Close the open KPI window.
    WindowClose,
}

struct FleetWorld {
    cfg: FleetConfig,
    end: SimTime,
    /// Tenant → class index.
    classes_of: Vec<u16>,
    /// Per-tenant forked RNG (network-loss Bernoulli draws).
    rngs: Vec<SimRng>,
    router: Box<dyn Partitioner>,
    /// Tenant → partition under the static partitioners (`KeyHash`,
    /// `Locality`), whose `route` is a pure function of `(tenant, class)`;
    /// `None` under round-robin, which routes survivor by survivor.
    homes: Option<Vec<u32>>,
    group: GroupCoordinator,
    partitions: Vec<PartitionState>,
    ledgers: Vec<TenantLedger>,
    /// Fractional message carry of each (flush phase, class), at
    /// `phase * classes + class`.
    carry: Vec<f64>,
    class_producers: Vec<u64>,
    class_window: Vec<ClassWindowAcc>,
    window_idx: u64,
    window_moved: u64,
    rebalances: Vec<RebalanceRecord>,
    series: TenantSeries,
    trace: Box<dyn TraceSink>,
    prof: Profiler,
}

impl FleetWorld {
    /// One flush of `n > 0` messages of `tenant`. The loss draws come
    /// first, one per message from the tenant's own stream: they read no
    /// partition state, so the survivors can then be appended in one step.
    fn send(&mut self, tenant: u32, n: u64, now: SimTime) {
        let t = tenant as usize;
        let class = self.classes_of[t];
        let mut survivors = 0u64;
        for _ in 0..n {
            survivors += u64::from(!self.rngs[t].bernoulli(self.cfg.base_loss));
        }
        let (mut accepted, mut dup) = (0, 0);
        if let Some(homes) = &self.homes {
            // Nothing survived: no refill either (see `accept`).
            if survivors > 0 {
                (accepted, dup) = self.append(homes[t], survivors, now);
            }
        } else {
            for _ in 0..survivors {
                let partition = self.router.route(tenant, class, self.cfg.partitions);
                let one = self.append(partition, 1, now);
                accepted += one.0;
                dup += one.1;
            }
        }
        let ledger = &mut self.ledgers[t];
        ledger.produced += n;
        ledger.delivered += accepted;
        ledger.lost_network += n - survivors;
        ledger.lost_overload += survivors - accepted;
        ledger.duplicated += dup;
        let cw = &mut self.class_window[class as usize];
        cw.produced += n;
        cw.delivered += accepted;
        cw.lost += n - accepted;
        cw.duplicated += dup;
    }

    /// Appends `count > 0` messages to `partition` in one token-bucket
    /// step. Returns how many it accepted (the rest are overload) and how
    /// many of those the partition's re-read window duplicates.
    fn append(&mut self, partition: u32, count: u64, now: SimTime) -> (u64, u64) {
        let st = &mut self.partitions[partition as usize];
        let accepted = st.accept(self.cfg.partition_capacity_hz, now, count);
        (accepted, accepted * u64::from(now < st.reread_until))
    }

    fn apply_churn(&mut self, idx: usize, now: SimTime) {
        let _span = self.prof.span("fleet.rebalance");
        let ev = self.cfg.churn[idx];
        let reb = match ev.action {
            ChurnAction::Join => self.group.join(ev.member),
            ChurnAction::Leave => self.group.leave(ev.member),
        };
        if self.trace.enabled() {
            let generation = reb
                .as_ref()
                .map_or_else(|| self.group.generation(), |r| r.generation);
            self.trace.record(match ev.action {
                ChurnAction::Join => TraceEvent::ConsumerJoined {
                    at: now,
                    member: ev.member,
                    generation,
                },
                ChurnAction::Leave => TraceEvent::ConsumerLeft {
                    at: now,
                    member: ev.member,
                    generation,
                },
            });
        }
        let Some(reb) = reb else { return };
        let until = now + self.cfg.rebalance_pause;
        for &p in &reb.moved {
            let st = &mut self.partitions[p as usize];
            st.paused_until = until;
            st.reread_until = until;
        }
        self.window_moved += reb.moved.len() as u64;
        if self.trace.enabled() {
            for (member, parts) in &reb.assignments {
                let moved = parts.iter().filter(|p| reb.moved.contains(p)).count() as u64;
                self.trace.record(TraceEvent::PartitionsAssigned {
                    at: now,
                    member: *member,
                    generation: reb.generation,
                    partitions: parts.clone(),
                    moved,
                });
            }
        }
        self.rebalances.push(RebalanceRecord {
            at: now,
            generation: reb.generation,
            members: self.group.members().to_vec(),
            moved: reb.moved,
        });
    }

    fn close_window(&mut self, now: SimTime) {
        let _span = self.prof.span("fleet.window");
        let backlog: u64 = self.partitions.iter().map(|p| p.appends - p.consumed).sum();
        let start = now - self.cfg.window;
        for (idx, acc) in self.class_window.iter().enumerate() {
            self.series.push(TenantWindowRow {
                window: self.window_idx,
                start_s: start.as_secs_f64(),
                cohort: self.cfg.population.class(idx as u16).name.clone(),
                producers: self.class_producers[idx],
                produced: acc.produced,
                delivered: acc.delivered,
                lost: acc.lost,
                duplicated: acc.duplicated,
                backlog,
                moved_partitions: self.window_moved,
                group_members: self.group.members().len() as u64,
            });
        }
        self.class_window
            .iter_mut()
            .for_each(|a| *a = ClassWindowAcc::default());
        self.window_moved = 0;
        self.window_idx += 1;
    }

    /// The outcome of a finished run, and the trace sink back.
    fn finish(self, events_fired: u64) -> (FleetOutcome, Box<dyn TraceSink>) {
        let (totals, classes) =
            totals_and_classes(&self.ledgers, &self.class_producers, &self.cfg.population);
        let outcome = FleetOutcome {
            tenants: self.ledgers,
            totals,
            classes,
            partition_appends: self.partitions.iter().map(|p| p.appends).collect(),
            rebalances: self.rebalances,
            windows: self.series,
            events_fired,
        };
        (outcome, self.trace)
    }
}

impl EventWorld for FleetWorld {
    type Event = FleetEvent;

    fn handle(&mut self, event: FleetEvent, ctx: &mut EventContext<FleetEvent>) {
        let now = ctx.now();
        match event {
            FleetEvent::Flush(phase) => {
                let _span = self.prof.span("fleet.flush");
                // The phase's previous tick was one interval ago, or time
                // zero before its first, at `(phase + 1) / PHASES` of one.
                let elapsed = (now - SimTime::ZERO).min(FLUSH_INTERVAL).as_secs_f64();
                // Every tenant of one phase and class started at a zero
                // carry and has flushed at the same ticks since, so each
                // class's count is computed once per tick (DESIGN §6).
                let entries = self.cfg.population.entries();
                let carry = &mut self.carry[phase as usize * entries.len()..][..entries.len()];
                let due: Vec<u64> = (entries.iter().zip(carry))
                    .map(|(entry, carry)| {
                        let emitted = entry.class.rate_hz * elapsed + *carry;
                        let n = emitted as u64;
                        *carry = emitted - n as f64;
                        n
                    })
                    .collect();
                for tenant in (phase..self.ledgers.len() as u32).step_by(PHASES) {
                    let n = due[self.classes_of[tenant as usize] as usize];
                    if n > 0 {
                        self.send(tenant, n, now);
                    }
                }
                let next = now + FLUSH_INTERVAL;
                if next < self.end {
                    ctx.schedule_at(next, FleetEvent::Flush(phase));
                }
            }
            FleetEvent::Churn(idx) => self.apply_churn(idx as usize, now),
            FleetEvent::ConsumeTick => {
                let _span = self.prof.span("fleet.consume");
                let drain_per_tick = (self.cfg.partition_capacity_hz
                    * DRAIN_FACTOR
                    * CONSUME_TICK.as_secs_f64()) as u64;
                for p in 0..self.cfg.partitions {
                    if self.group.owner_of(p).is_none() {
                        continue;
                    }
                    let st = &mut self.partitions[p as usize];
                    if st.paused_until > now {
                        continue;
                    }
                    let backlog = st.appends - st.consumed;
                    st.consumed += backlog.min(drain_per_tick);
                }
                let next = now + CONSUME_TICK;
                if next < self.end {
                    ctx.schedule_at(next, FleetEvent::ConsumeTick);
                }
            }
            FleetEvent::WindowClose => {
                self.close_window(now);
                let next = now + self.cfg.window;
                if next <= self.end {
                    ctx.schedule_at(next, FleetEvent::WindowClose);
                }
            }
        }
    }
}

/// One fleet run: a validated [`FleetConfig`] plus a seed.
///
/// # Example
///
/// ```
/// use kafkasim::fleet::{FleetConfig, FleetRun};
///
/// let cfg = FleetConfig::default();
/// let outcome = FleetRun::new(cfg, 42).execute();
/// let t = &outcome.tenants[0];
/// assert_eq!(t.produced, t.delivered + t.lost());
/// assert_eq!(
///     outcome.totals.produced,
///     outcome.tenants.iter().map(|t| t.produced).sum::<u64>()
/// );
/// ```
pub struct FleetRun {
    cfg: FleetConfig,
    seed: u64,
}

impl FleetRun {
    /// Builds a run.
    ///
    /// # Panics
    /// Panics when the config is invalid (validate first for a `Result`).
    #[must_use]
    pub fn new(cfg: FleetConfig, seed: u64) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid fleet config: {e}");
        }
        FleetRun { cfg, seed }
    }

    /// Runs untraced and unprofiled.
    #[must_use]
    pub fn execute(self) -> FleetOutcome {
        self.execute_profiled(Box::new(NoopSink), Profiler::disabled())
            .0
    }

    /// [`FleetRun::execute`] under the name `benchmark/` still calls; the
    /// thread count is ignored. Goes when the benchmark re-points.
    #[doc(hidden)]
    #[must_use]
    pub fn execute_sharded(self, _threads: usize) -> FleetOutcome {
        self.execute()
    }

    /// Runs with trace events delivered to `sink`.
    pub fn execute_traced(self, sink: Box<dyn TraceSink>) -> (FleetOutcome, Box<dyn TraceSink>) {
        self.execute_profiled(sink, Profiler::disabled())
    }

    /// Runs with trace events *and* wall-clock span profiling.
    pub(crate) fn execute_profiled(
        self,
        sink: Box<dyn TraceSink>,
        prof: Profiler,
    ) -> (FleetOutcome, Box<dyn TraceSink>) {
        let setup = prof.span("fleet.setup");
        let mut sim = EventSim::new(self.world(sink, &prof));
        let (cfg, end) = (&sim.world().cfg, sim.world().end);
        let (producers, churn, window) = (cfg.producers, cfg.churn.clone(), cfg.window);
        // One event per non-empty flush phase whose first tick is before the
        // end, as every later tick is, seeded before the churn and the
        // ticks: it pops where the phase's per-tenant flushes would, and
        // they would pop as one run in tenant order (DESIGN §6).
        for phase in 0..producers.min(PHASES) as u64 {
            let first =
                SimTime::from_micros(FLUSH_INTERVAL.as_micros() * (phase + 1) / PHASES as u64);
            if first < end {
                sim.schedule_at(first, FleetEvent::Flush(phase as u32));
            }
        }
        for (i, c) in churn.iter().enumerate() {
            sim.schedule_at(c.at, FleetEvent::Churn(i as u32));
        }
        sim.schedule_at(SimTime::ZERO + CONSUME_TICK, FleetEvent::ConsumeTick);
        sim.schedule_at(SimTime::ZERO + window, FleetEvent::WindowClose);
        drop(setup);
        {
            let _run = prof.span("fleet.run");
            sim.run_until_idle();
        }
        let events_fired = sim.events_fired();
        sim.into_world().finish(events_fired)
    }

    /// The world at time zero, before any event is seeded.
    fn world(self, sink: Box<dyn TraceSink>, prof: &Profiler) -> FleetWorld {
        let cfg = self.cfg;
        let classes_of = cfg.population.apportion(cfg.producers);
        let mut master = SimRng::seed_from_u64(self.seed);
        let rngs: Vec<SimRng> = (0..cfg.producers).map(|_| master.fork()).collect();
        let mut router = cfg.strategy.build(cfg.partitions, &cfg.population);
        let homes = (!matches!(cfg.strategy, PartitionStrategy::RoundRobin)).then(|| {
            (classes_of.iter().zip(0u32..))
                .map(|(&class, tenant)| router.route(tenant, class, cfg.partitions))
                .collect()
        });
        let initial: Vec<u32> = (0..cfg.initial_consumers).collect();
        let group = GroupCoordinator::new(cfg.assignor, cfg.partitions, &initial);

        let mut trace = sink;
        if trace.enabled() {
            // Generation-1 assignment, so the trace tells the whole
            // ownership story from time zero.
            for &member in group.members() {
                let partitions = group.partitions_of(member);
                let moved = partitions.len() as u64;
                trace.record(TraceEvent::PartitionsAssigned {
                    at: SimTime::ZERO,
                    member,
                    generation: group.generation(),
                    partitions,
                    moved,
                });
            }
        }

        let n_classes = cfg.population.entries().len();
        let mut class_producers = vec![0u64; n_classes];
        for &c in &classes_of {
            class_producers[c as usize] += 1;
        }
        let ledgers: Vec<TenantLedger> = (classes_of.iter().zip(0u32..))
            .map(|(&class, tenant)| TenantLedger {
                tenant,
                class,
                ..TenantLedger::default()
            })
            .collect();
        FleetWorld {
            end: SimTime::ZERO + cfg.duration,
            classes_of,
            rngs,
            router,
            homes,
            group,
            partitions: vec![
                PartitionState::fresh(cfg.partition_capacity_hz);
                cfg.partitions as usize
            ],
            ledgers,
            carry: vec![0.0; PHASES * n_classes],
            class_producers,
            class_window: vec![ClassWindowAcc::default(); n_classes],
            window_idx: 0,
            window_moved: 0,
            rebalances: Vec::new(),
            series: TenantSeries::new(cfg.window),
            trace,
            prof: prof.clone(),
            cfg,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::population::{PopulationEntry, StreamClass};
    use super::*;
    use crate::source::SizeSpec;
    use obs::RingBufferSink;
    use proptest::prelude::*;

    fn small_cfg() -> FleetConfig {
        FleetConfig {
            producers: 200,
            partitions: 8,
            strategy: PartitionStrategy::KeyHash,
            population: Population::new(vec![
                PopulationEntry {
                    class: StreamClass {
                        name: "social-media".into(),
                        size: SizeSpec::Uniform {
                            low: 120,
                            high: 400,
                        },
                        rate_hz: 1.0,
                        timeliness: SimDuration::from_secs(2),
                    },
                    weight: 0.6,
                },
                PopulationEntry {
                    class: StreamClass {
                        name: "game-traffic".into(),
                        size: SizeSpec::Uniform { low: 40, high: 100 },
                        rate_hz: 2.0,
                        timeliness: SimDuration::from_millis(300),
                    },
                    weight: 0.4,
                },
            ])
            .unwrap(),
            initial_consumers: 4,
            assignor: Assignor::Sticky,
            churn: vec![
                ChurnEvent {
                    at: SimTime::from_secs(6),
                    action: ChurnAction::Join,
                    member: 4,
                },
                ChurnEvent {
                    at: SimTime::from_secs(12),
                    action: ChurnAction::Leave,
                    member: 1,
                },
            ],
            duration: SimDuration::from_secs(20),
            window: SimDuration::from_secs(5),
            partition_capacity_hz: 25.0,
            base_loss: 0.01,
            rebalance_pause: SimDuration::from_secs(2),
        }
    }

    #[test]
    fn per_tenant_accounting_conserves() {
        let out = FleetRun::new(small_cfg(), 7).execute();
        assert!(out.totals.produced > 0);
        let mut produced = 0u64;
        let mut delivered = 0u64;
        let mut lost = 0u64;
        let mut dup = 0u64;
        for t in &out.tenants {
            assert_eq!(t.produced, t.delivered + t.lost(), "tenant {}", t.tenant);
            produced += t.produced;
            delivered += t.delivered;
            lost += t.lost();
            dup += t.duplicated;
        }
        assert_eq!(produced, out.totals.produced);
        assert_eq!(delivered, out.totals.delivered);
        assert_eq!(lost, out.totals.lost());
        assert_eq!(dup, out.totals.duplicated);
        let class_produced: u64 = out.classes.iter().map(|c| c.produced).sum();
        assert_eq!(class_produced, out.totals.produced);
        assert_eq!(
            out.totals.delivered,
            out.partition_appends.iter().sum::<u64>()
        );
    }

    #[test]
    fn runs_are_bit_identical_at_fixed_seed() {
        let a = FleetRun::new(small_cfg(), 99).execute();
        let b = FleetRun::new(small_cfg(), 99).execute();
        assert_eq!(a, b);
    }

    #[test]
    fn seeds_differ() {
        let a = FleetRun::new(small_cfg(), 1).execute();
        let b = FleetRun::new(small_cfg(), 2).execute();
        assert_ne!(
            a.totals.lost_network, b.totals.lost_network,
            "different seeds draw different network losses"
        );
    }

    #[test]
    fn churn_rebalances_and_duplicates_are_visible() {
        let (out, mut sink) =
            FleetRun::new(small_cfg(), 7).execute_traced(Box::new(RingBufferSink::new(4096)));
        assert_eq!(out.rebalances.len(), 2);
        assert!(!out.rebalances[0].moved.is_empty());
        assert!(
            out.totals.duplicated > 0,
            "moved partitions re-read under at-least-once"
        );
        // The duplicates land in the rebalance windows of the series.
        assert!(out.windows.max_moved_partitions() > 0);
        let events: Vec<String> = sink.drain().iter().map(|e| e.kind().to_string()).collect();
        assert!(events.iter().any(|k| k == "consumer-joined"));
        assert!(events.iter().any(|k| k == "consumer-left"));
        assert!(events.iter().any(|k| k == "partitions-assigned"));
    }

    #[test]
    fn windows_cover_the_whole_run() {
        let out = FleetRun::new(small_cfg(), 7).execute();
        // 20 s / 5 s windows × 2 classes.
        assert_eq!(out.windows.rows.len(), 4 * 2);
        assert_eq!(out.windows.total_produced(), out.totals.produced);
    }

    #[test]
    fn overload_attribution_reacts_to_capacity() {
        let mut starved = small_cfg();
        starved.partition_capacity_hz = 5.0;
        let lean = FleetRun::new(starved, 7).execute();
        let rich = FleetRun::new(small_cfg(), 7).execute();
        assert!(lean.totals.lost_overload > rich.totals.lost_overload);
    }

    #[test]
    fn coalesced_accept_matches_sequential_singles() {
        // accept(n) must be bit-identical to n accept(1) calls at the same
        // instant, across refills and partial acceptance.
        let times = [0u64, 40, 40, 90, 400, 1000, 1001, 5000];
        let batches = [3u64, 1, 7, 2, 30, 9, 1, 14];
        let mut a = PartitionState::fresh(25.0);
        let mut b = PartitionState::fresh(25.0);
        for (&ms, &n) in times.iter().zip(&batches) {
            let now = SimTime::from_millis(ms);
            let accepted = a.accept(25.0, now, n);
            let mut singles = 0;
            for _ in 0..n {
                singles += b.accept(25.0, now, 1);
            }
            assert_eq!(accepted, singles);
            assert_eq!(a.tokens.to_bits(), b.tokens.to_bits());
            assert_eq!(a.appends, b.appends);
        }
    }

    #[test]
    fn invalid_configs_are_rejected() {
        let mut c = small_cfg();
        c.producers = 0;
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.window = SimDuration::from_secs(3); // does not divide 20 s
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.churn[0].at = SimTime::from_secs(20); // not strictly inside
        assert!(c.validate().is_err());
        let mut c = small_cfg();
        c.base_loss = 1.5;
        assert!(c.validate().is_err());
        assert!(small_cfg().validate().is_ok());
    }

    /// The per-tenant flush loop that one event per flush phase replaced,
    /// kept as the reference the engine must equal: one `Flush(tenant)`
    /// event per tenant, each tenant remembering its own last flush and
    /// its own fractional carry.
    struct PerTenant {
        world: FleetWorld,
        last_flush: Vec<SimTime>,
        carry: Vec<f64>,
    }

    impl FleetWorld {
        fn rate_of(&self, tenant: u32) -> f64 {
            self.cfg
                .population
                .class(self.classes_of[tenant as usize])
                .rate_hz
        }
    }

    impl EventWorld for PerTenant {
        type Event = FleetEvent;

        fn handle(&mut self, event: FleetEvent, ctx: &mut EventContext<FleetEvent>) {
            let FleetEvent::Flush(tenant) = event else {
                return self.world.handle(event, ctx);
            };
            let (w, now, t) = (&mut self.world, ctx.now(), tenant as usize);
            let elapsed = (now - self.last_flush[t]).as_secs_f64();
            self.last_flush[t] = now;
            let emitted = w.rate_of(tenant) * elapsed + self.carry[t];
            let n = emitted as u64;
            self.carry[t] = emitted - n as f64;
            if n > 0 {
                w.send(tenant, n, now);
            }
            let next = now + FLUSH_INTERVAL;
            if next < w.end {
                ctx.schedule_at(next, FleetEvent::Flush(tenant));
            }
        }
    }

    /// `FleetRun::execute` on the per-tenant loop: every tenant's first
    /// flush in tenant order (only those before the end, the rule the
    /// engine's phases follow), then the churn, the first consume tick and
    /// the first window close.
    fn execute_per_tenant(cfg: FleetConfig, seed: u64) -> FleetOutcome {
        let world =
            FleetRun::new(cfg.clone(), seed).world(Box::new(NoopSink), &Profiler::disabled());
        let mut sim = EventSim::new(PerTenant {
            world,
            last_flush: vec![SimTime::ZERO; cfg.producers],
            carry: vec![0.0; cfg.producers],
        });
        for t in 0..cfg.producers {
            let phase = (t % 8) as u64 + 1;
            let first =
                SimTime::ZERO + SimDuration::from_micros(FLUSH_INTERVAL.as_micros() * phase / 8);
            if first < sim.world().world.end {
                sim.schedule_at(first, FleetEvent::Flush(t as u32));
            }
        }
        for (i, c) in cfg.churn.iter().enumerate() {
            sim.schedule_at(c.at, FleetEvent::Churn(i as u32));
        }
        sim.schedule_at(SimTime::ZERO + CONSUME_TICK, FleetEvent::ConsumeTick);
        sim.schedule_at(SimTime::ZERO + cfg.window, FleetEvent::WindowClose);
        sim.run_until_idle();
        let events_fired = sim.events_fired();
        sim.into_world().world.finish(events_fired).0
    }

    /// A churn instant strictly inside a run of `d_us` microseconds, by
    /// `kind`: anywhere, before the first flush interval ends, or on a tie
    /// with a flush (every 25 ms is some phase's tick), a consume tick or a
    /// window close. A tie the run is too short for falls back to anywhere.
    fn churn_at(kind: usize, draw: u64, d_us: u64, window_us: u64) -> SimTime {
        let anywhere = 1 + draw % (d_us - 1);
        let on_grid = |step: u64| match (d_us - 1) / step {
            0 => anywhere,
            n => step * (1 + draw % n),
        };
        SimTime::from_micros(match kind {
            0 => anywhere,
            1 => 1 + draw % (d_us - 1).min(FLUSH_INTERVAL.as_micros() - 1),
            2 => on_grid(FLUSH_INTERVAL.as_micros() / PHASES as u64),
            3 => on_grid(CONSUME_TICK.as_micros()),
            _ => on_grid(window_us),
        })
    }

    /// Random fleets of 1 to 40 producers over 1 to 6 partitions: runs
    /// from under the first flush phase to several seconds, off the flush
    /// grid; windows from 10 ms to 2 s; churn anywhere, early and on every
    /// kind of tie; all three partitioners; `base_loss` 0, 0.3 or 1; and
    /// buckets from a tenth of a message upwards against rates of up to
    /// 60 Hz, so a phase's tenants compete for a bucket in one instant.
    fn arb_fleet() -> impl Strategy<Value = (FleetConfig, u64)> {
        let shape = (
            1usize..41,
            1u32..7,
            0usize..3,
            0usize..3,
            1u32..5,
            proptest::bool::ANY,
        );
        let window = prop_oneof![10_000u64..25_000, 25_000u64..200_000, 200_000u64..2_000_001];
        let time = (window, 1u64..9, 0u64..3_000_001);
        let classes = proptest::collection::vec((1u32..601, 1u32..5), 1..4);
        let churn = proptest::collection::vec(
            (0usize..5, 0u64..u64::MAX, 0u32..7, proptest::bool::ANY),
            0..5,
        );
        (shape, time, (classes, 1u32..401), churn, 0u64..u64::MAX).prop_map(
            |(
                (producers, partitions, strategy, loss, consumers, sticky),
                (window_us, windows, pause_us),
                (classes, capacity),
                churn,
                seed,
            )| {
                let d_us = window_us * windows;
                let population = classes
                    .iter()
                    .enumerate()
                    .map(|(i, &(deci_hz, weight))| PopulationEntry {
                        class: StreamClass {
                            name: format!("class-{i}"),
                            size: SizeSpec::Fixed(200),
                            rate_hz: f64::from(deci_hz) / 10.0,
                            timeliness: SimDuration::from_secs(1),
                        },
                        weight: f64::from(weight),
                    })
                    .collect();
                let cfg = FleetConfig {
                    producers,
                    partitions,
                    strategy: [
                        PartitionStrategy::RoundRobin,
                        PartitionStrategy::KeyHash,
                        PartitionStrategy::Locality,
                    ][strategy],
                    population: Population::new(population).unwrap(),
                    initial_consumers: consumers,
                    assignor: if sticky {
                        Assignor::Sticky
                    } else {
                        Assignor::Range
                    },
                    churn: churn
                        .iter()
                        .map(|&(kind, draw, member, join)| ChurnEvent {
                            at: churn_at(kind, draw, d_us, window_us),
                            action: if join {
                                ChurnAction::Join
                            } else {
                                ChurnAction::Leave
                            },
                            member,
                        })
                        .collect(),
                    duration: SimDuration::from_micros(d_us),
                    window: SimDuration::from_micros(window_us),
                    partition_capacity_hz: f64::from(capacity) / 10.0,
                    base_loss: [0.0, 0.3, 1.0][loss],
                    rebalance_pause: SimDuration::from_micros(pause_us),
                };
                (cfg, seed)
            },
        )
    }

    /// Phases that mix classes: 12 producers at 0.3 Hz and 1.7 Hz are
    /// dealt `0,1,0,1,0,1,0,1,1,1,1,1`, so phases 0 and 2 hold one tenant
    /// of each class and phases 1 and 3 two of the fast one (with 8
    /// producers each phase would hold one tenant, and a carry per phase
    /// would pass for a carry per tenant). The churn lands on phase 0's
    /// sixth tick. A carry keyed by class alone, or by phase alone,
    /// miscounts here.
    #[test]
    fn phase_and_class_carries_equal_per_tenant_carries() {
        let class = |name: &str, rate_hz, weight| PopulationEntry {
            class: StreamClass {
                name: name.into(),
                size: SizeSpec::Fixed(200),
                rate_hz,
                timeliness: SimDuration::from_secs(1),
            },
            weight,
        };
        let cfg = FleetConfig {
            producers: 12,
            partitions: 3,
            population: Population::new(vec![class("slow", 0.3, 1.0), class("fast", 1.7, 2.0)])
                .unwrap(),
            initial_consumers: 2,
            churn: vec![ChurnEvent {
                at: SimTime::from_millis(1_025),
                action: ChurnAction::Join,
                member: 2,
            }],
            duration: SimDuration::from_secs(4),
            window: SimDuration::from_secs(1),
            partition_capacity_hz: 4.0,
            base_loss: 0.1,
            ..FleetConfig::default()
        };
        let world = FleetRun::new(cfg.clone(), 3).world(Box::new(NoopSink), &Profiler::disabled());
        assert_eq!(world.classes_of, [0, 1, 0, 1, 0, 1, 0, 1, 1, 1, 1, 1]);
        let reference = execute_per_tenant(cfg.clone(), 3);
        let phased = FleetRun::new(cfg, 3).execute();
        assert!(reference.classes.iter().all(|c| c.produced > 0));
        assert_eq!(
            FleetOutcome {
                events_fired: 0,
                ..phased
            },
            FleetOutcome {
                events_fired: 0,
                ..reference
            }
        );
    }

    proptest! {
        /// One event per flush phase computes what one event per tenant
        /// computed: every ledger, bucket, rebalance and window row, with
        /// `events_fired` (the one thing it exists to change) masked.
        #[test]
        fn phase_flushes_equal_the_per_tenant_loop(case in arb_fleet()) {
            let (cfg, seed) = case;
            cfg.validate().map_err(TestCaseError::fail)?;
            let reference = execute_per_tenant(cfg.clone(), seed);
            let phased = FleetRun::new(cfg.clone(), seed).execute();
            prop_assert!(phased.events_fired <= reference.events_fired);
            prop_assert_eq!(
                FleetOutcome { events_fired: 0, ..phased },
                FleetOutcome { events_fired: 0, ..reference }
            );
        }
    }
}
