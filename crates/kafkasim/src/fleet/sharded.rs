//! Fleet runs on the sharded engine: one shard per broker island,
//! bit-identical to the sequential engine at any thread count.
//!
//! # Shard assignment
//!
//! Each partition of the shared topic lives on its own broker island — the
//! fleet topology has no replication links, so
//! [`netsim::IslandMap`] over the empty edge set yields one island per
//! partition, and each island becomes one [`desim::shard`] shard. A shard
//! owns its partition's token bucket, consumption state, and every tenant
//! *homed* to it.
//!
//! # Tenant homing and the two routing regimes
//!
//! * **Static strategies** (`KeyHash`, `Locality`, including the degenerate
//!   locality fallback): a tenant's partition is a pure function of
//!   `(tenant, class)`, so the tenant is homed to its partition's shard and
//!   **no event ever crosses a shard boundary**. Each shard replays exactly
//!   the subsequence of the sequential engine's events that touch its
//!   partition, in the same relative order (the shard-local heap assigns
//!   sequence numbers in the same order the global heap did), so the merged
//!   outcome is **equal to [`FleetRun::execute`]** — not just
//!   thread-invariant. The proptests pin both properties.
//! * **Round-robin**: the global dealing cursor couples every flush to
//!   every partition. The cursor position at each flush is *precomputed*
//!   (survivor counts per flush depend only on per-tenant RNG streams,
//!   which are replayed from clones during setup), tenants are homed by
//!   hash, and each flush sends one **coalesced append batch per remote
//!   partition** through the engine's mailboxes — exercising the
//!   cross-shard merge path. Delivery is clamped to the next macro-step
//!   boundary, so remote appends land up to [`SHARD_HORIZON`] later than
//!   in the sequential engine: round-robin sharded results are
//!   bit-identical *across thread counts* but intentionally not equal to
//!   the sequential engine (the deferred hop changes token-bucket timing).
//!   `bench` therefore keeps the sequential engine for round-robin rows.
//!
//! # Event coalescing
//!
//! The append hot path enqueues one event per producer batch, never per
//! message: a flush performs its per-message Bernoulli loss draws (the RNG
//! stream must match the sequential engine draw for draw) and then appends
//! the survivors as a single [`PartitionState::accept`] batch — a branch-free
//! fan-out of the per-message outcomes (accepted/overload/duplicate) done at
//! dequeue. The coalescing proptest pins `accept(n)` bit-identical to `n`
//! single-message attempts.
//!
//! # Consumer-group churn
//!
//! Group membership evolves independently of message flow, so the entire
//! churn script is replayed on a [`GroupCoordinator`] during setup; every
//! shard schedules every churn event and applies the precomputed ownership
//! and pause/re-read effects to its local partition. Rebalance records,
//! per-window moved/member counts, and the consumer-group trace stream are
//! synthesized from the same plan, byte-identical to the sequential
//! engine's.

use std::sync::Arc;

use desim::{FastMap, ShardContext, ShardWorld, ShardedSim, SimDuration, SimRng, SimTime};
use netsim::IslandMap;
use obs::{TenantSeries, TenantWindowRow, TraceEvent};

use super::engine::{
    ChurnAction, ClassWindowAcc, FleetConfig, FleetOutcome, FleetRun, PartitionState,
    RebalanceRecord, TenantLedger, CONSUME_TICK, DRAIN_FACTOR, FLUSH_INTERVAL,
};
use super::group::{GroupCoordinator, Rebalance};
use super::partition::{mix64, PartitionStrategy};

/// Macro-step horizon of the fleet's sharded runs. Static strategies have
/// zero cross-shard traffic, so any horizon gives identical results; the
/// value only trades barrier overhead against round-robin's mailbox
/// latency (remote appends are clamped to the next multiple of this).
pub(crate) const SHARD_HORIZON: SimDuration = SimDuration::from_millis(100);

/// One scripted churn event, fully resolved against the group coordinator.
struct ChurnStep {
    at: SimTime,
    action: ChurnAction,
    member: u32,
    /// Generation to stamp on the Joined/Left trace event.
    generation: u64,
    /// `Some` when the membership actually changed.
    reb: Option<Rebalance>,
    /// Members after this step, ascending.
    members_after: Vec<u32>,
    /// `owned_after[p]`: does partition `p` have an owner after this step?
    owned_after: Vec<bool>,
}

/// Everything derivable from the config before the event loop runs.
struct ChurnPlan {
    /// Steps in firing order (time, then script index).
    steps: Vec<ChurnStep>,
    initial_members: Vec<u32>,
    initial_assignments: Vec<(u32, Vec<u32>)>,
    initial_owned: Vec<bool>,
}

fn plan_churn(cfg: &FleetConfig) -> ChurnPlan {
    let initial: Vec<u32> = (0..cfg.initial_consumers).collect();
    let mut group = GroupCoordinator::new(cfg.assignor, cfg.partitions, &initial);
    let initial_members = group.members().to_vec();
    let initial_assignments: Vec<(u32, Vec<u32>)> = initial_members
        .iter()
        .map(|&m| (m, group.partitions_of(m)))
        .collect();
    let owned = |g: &GroupCoordinator| {
        (0..cfg.partitions)
            .map(|p| g.owner_of(p).is_some())
            .collect::<Vec<bool>>()
    };
    let initial_owned = owned(&group);

    // The sequential engine fires churn in (time, script index) order.
    let mut order: Vec<usize> = (0..cfg.churn.len()).collect();
    order.sort_by_key(|&i| (cfg.churn[i].at, i));
    let steps = order
        .into_iter()
        .map(|i| {
            let ev = cfg.churn[i];
            let reb = match ev.action {
                ChurnAction::Join => group.join(ev.member),
                ChurnAction::Leave => group.leave(ev.member),
            };
            let generation = reb
                .as_ref()
                .map_or_else(|| group.generation(), |r| r.generation);
            ChurnStep {
                at: ev.at,
                action: ev.action,
                member: ev.member,
                generation,
                reb,
                members_after: group.members().to_vec(),
                owned_after: owned(&group),
            }
        })
        .collect();
    ChurnPlan {
        steps,
        initial_members,
        initial_assignments,
        initial_owned,
    }
}

/// How a tenant's messages find their partition.
enum Route {
    /// Every message of this tenant lands on this *local* partition index.
    Static(usize),
    /// Round-robin: precomputed global-cursor start per flush, consumed in
    /// flush order.
    RoundRobin { starts: Vec<u64>, next: usize },
}

/// Per-tenant runtime state on its home shard.
struct TenantRt {
    class: u16,
    rate_hz: f64,
    rng: SimRng,
    last_flush: SimTime,
    carry: f64,
    route: Route,
    ledger: TenantLedger,
}

/// Appends credited on a shard for a tenant homed elsewhere (round-robin
/// cross-shard batches).
#[derive(Default, Clone, Copy)]
struct RemoteDelta {
    delivered: u64,
    lost_overload: u64,
    duplicated: u64,
}

/// One closed KPI window as one shard saw it.
struct LocalWindow {
    backlog: u64,
    classes: Vec<ClassWindowAcc>,
}

#[derive(Default)]
struct Fired {
    flush: u64,
    churn: u64,
    tick: u64,
    wc: u64,
    batch: u64,
}

#[derive(Clone)]
enum ShardEvent {
    /// Flush of the shard-local tenant at this index.
    Flush(u32),
    /// Churn step at this index of the (time-sorted) plan.
    Churn(u32),
    ConsumeTick,
    WindowClose,
    /// Coalesced cross-shard append batch (round-robin only): `count`
    /// survivors of one flush of `tenant` aimed at `partition`.
    AppendBatch {
        tenant: u32,
        class: u16,
        partition: u32,
        count: u64,
    },
}

struct FleetShard {
    cap: f64,
    base_loss: f64,
    end: SimTime,
    window: SimDuration,
    n_partitions: u64,
    rebalance_pause: SimDuration,
    shard_of_partition: Arc<Vec<u32>>,
    churn: Arc<Vec<ChurnStep>>,
    /// Global ids of the local partitions, ascending.
    parts: Vec<u32>,
    /// Global partition id → local index.
    local_of: Vec<Option<usize>>,
    pstate: Vec<PartitionState>,
    owned: Vec<bool>,
    /// Local tenants, ascending by tenant id.
    tenants: Vec<TenantRt>,
    class_window: Vec<ClassWindowAcc>,
    windows: Vec<LocalWindow>,
    remote: FastMap<u32, RemoteDelta>,
    fired: Fired,
}

impl FleetShard {
    /// Append `count` survivors of `tenant` to local partition `local` at
    /// `now`, crediting `ledger` (the tenant's, or a remote delta).
    /// Branch-free fan-out of the batched outcome.
    #[allow(clippy::too_many_arguments)]
    fn append_batch(
        pstate: &mut PartitionState,
        class_window: &mut [ClassWindowAcc],
        cap: f64,
        now: SimTime,
        class: u16,
        count: u64,
        delivered: &mut u64,
        lost_overload: &mut u64,
        duplicated: &mut u64,
    ) {
        let accepted = pstate.accept(cap, now, count);
        let dup = accepted * u64::from(now < pstate.reread_until);
        let overload = count - accepted;
        *delivered += accepted;
        *duplicated += dup;
        *lost_overload += overload;
        let cw = &mut class_window[class as usize];
        cw.delivered += accepted;
        cw.duplicated += dup;
        cw.lost += overload;
    }

    fn handle_flush(&mut self, idx: usize, now: SimTime, ctx: &mut ShardContext<ShardEvent>) {
        self.fired.flush += 1;
        let cap = self.cap;
        let base_loss = self.base_loss;
        let np = self.n_partitions;
        let end = self.end;
        let FleetShard {
            pstate,
            class_window,
            tenants,
            local_of,
            shard_of_partition,
            ..
        } = self;
        let t = &mut tenants[idx];
        let elapsed = (now - t.last_flush).as_secs_f64();
        t.last_flush = now;
        let emitted = t.rate_hz * elapsed + t.carry;
        // `as` truncates toward zero: `floor` for these non-negative counts,
        // without the libm call baseline x86-64 makes for it.
        let n = emitted as u64;
        t.carry = emitted - n as f64;
        let class = t.class;
        t.ledger.produced += n;
        class_window[class as usize].produced += n;
        // Per-message loss draws — the RNG stream must match the
        // sequential engine draw for draw. Appends are coalesced below.
        let mut survivors = 0u64;
        for _ in 0..n {
            survivors += u64::from(!t.rng.bernoulli(base_loss));
        }
        let lost_net = n - survivors;
        t.ledger.lost_network += lost_net;
        class_window[class as usize].lost += lost_net;

        let tenant = t.ledger.tenant;
        let TenantRt { route, ledger, .. } = t;
        let TenantLedger {
            delivered,
            lost_overload,
            duplicated,
            ..
        } = ledger;
        match route {
            Route::Static(local) => {
                FleetShard::append_batch(
                    &mut pstate[*local],
                    class_window,
                    cap,
                    now,
                    class,
                    survivors,
                    delivered,
                    lost_overload,
                    duplicated,
                );
            }
            Route::RoundRobin { starts, next } => {
                let cstart = starts[*next];
                *next += 1;
                let q = survivors / np;
                let r = survivors % np;
                let first = cstart % np;
                for p in 0..np {
                    let offset = (p + np - first) % np;
                    let count = q + u64::from(offset < r);
                    if count == 0 {
                        continue;
                    }
                    if let Some(local) = local_of[p as usize] {
                        FleetShard::append_batch(
                            &mut pstate[local],
                            class_window,
                            cap,
                            now,
                            class,
                            count,
                            delivered,
                            lost_overload,
                            duplicated,
                        );
                    } else {
                        ctx.send(
                            shard_of_partition[p as usize],
                            now,
                            ShardEvent::AppendBatch {
                                tenant,
                                class,
                                partition: p as u32,
                                count,
                            },
                        );
                    }
                }
            }
        }
        let next_flush = now + FLUSH_INTERVAL;
        if next_flush < end {
            ctx.schedule_at(next_flush, ShardEvent::Flush(idx as u32));
        }
    }

    fn handle_churn(&mut self, idx: usize, now: SimTime) {
        self.fired.churn += 1;
        let step = &self.churn[idx];
        if let Some(reb) = &step.reb {
            let until = now + self.rebalance_pause;
            for &p in &reb.moved {
                if let Some(local) = self.local_of[p as usize] {
                    let st = &mut self.pstate[local];
                    st.paused_until = until;
                    st.reread_until = until;
                }
            }
        }
        for (local, &global) in self.parts.iter().enumerate() {
            self.owned[local] = step.owned_after[global as usize];
        }
    }

    fn handle_tick(&mut self, now: SimTime, ctx: &mut ShardContext<ShardEvent>) {
        self.fired.tick += 1;
        let drain = (self.cap * DRAIN_FACTOR * CONSUME_TICK.as_secs_f64()) as u64;
        for local in 0..self.pstate.len() {
            if !self.owned[local] {
                continue;
            }
            let st = &mut self.pstate[local];
            if st.paused_until > now {
                continue;
            }
            let backlog = st.appends - st.consumed;
            st.consumed += backlog.min(drain);
        }
        let next = now + CONSUME_TICK;
        if next < self.end {
            ctx.schedule_at(next, ShardEvent::ConsumeTick);
        }
    }

    fn handle_window_close(&mut self, now: SimTime, ctx: &mut ShardContext<ShardEvent>) {
        self.fired.wc += 1;
        let backlog: u64 = self.pstate.iter().map(|p| p.appends - p.consumed).sum();
        self.windows.push(LocalWindow {
            backlog,
            classes: self.class_window.clone(),
        });
        self.class_window
            .iter_mut()
            .for_each(|a| *a = ClassWindowAcc::default());
        let next = now + self.window;
        if next <= self.end {
            ctx.schedule_at(next, ShardEvent::WindowClose);
        }
    }

    fn handle_append_batch(
        &mut self,
        tenant: u32,
        class: u16,
        partition: u32,
        count: u64,
        now: SimTime,
    ) {
        self.fired.batch += 1;
        let local = self.local_of[partition as usize].expect("batch routed to wrong shard");
        let delta = self.remote.entry(tenant).or_default();
        FleetShard::append_batch(
            &mut self.pstate[local],
            &mut self.class_window,
            self.cap,
            now,
            class,
            count,
            &mut delta.delivered,
            &mut delta.lost_overload,
            &mut delta.duplicated,
        );
    }
}

impl ShardWorld for FleetShard {
    type Event = ShardEvent;

    fn handle(&mut self, event: ShardEvent, ctx: &mut ShardContext<ShardEvent>) {
        let now = ctx.now();
        match event {
            ShardEvent::Flush(idx) => self.handle_flush(idx as usize, now, ctx),
            ShardEvent::Churn(idx) => self.handle_churn(idx as usize, now),
            ShardEvent::ConsumeTick => self.handle_tick(now, ctx),
            ShardEvent::WindowClose => self.handle_window_close(now, ctx),
            ShardEvent::AppendBatch {
                tenant,
                class,
                partition,
                count,
            } => self.handle_append_batch(tenant, class, partition, count, now),
        }
    }
}

/// The window (0-based) a churn event at `at` is charged to: churn fires
/// before a coincident window close, so `at == k·window` lands in window
/// `k - 1`.
fn window_of(at: SimTime, window: SimDuration) -> usize {
    (at.as_micros().div_ceil(window.as_micros()) - 1) as usize
}

impl FleetRun {
    /// Run on the sharded engine with `threads` worker threads.
    ///
    /// Results are bit-identical for every thread count. For the static
    /// partitioning strategies (`KeyHash`, `Locality`) the outcome is
    /// additionally equal to [`FleetRun::execute`]; round-robin routes
    /// cross-shard appends through macro-step mailboxes and is documented
    /// as a different (still deterministic) model — see the module docs.
    #[must_use]
    pub fn execute_sharded(self, threads: usize) -> FleetOutcome {
        self.execute_sharded_traced(threads).0
    }

    /// [`FleetRun::execute_sharded`], also returning the consumer-group
    /// trace stream (identical to what [`FleetRun::execute_traced`] emits).
    #[must_use]
    pub fn execute_sharded_traced(self, threads: usize) -> (FleetOutcome, Vec<TraceEvent>) {
        let cfg = self.cfg;
        let seed = self.seed;
        let n_parts = cfg.partitions as usize;

        // One shard per broker island. The fleet topology has no
        // replication links, so every partition is its own island.
        let islands = IslandMap::compute(n_parts, &[]);
        let n_shards = islands.n_islands();
        let shard_of_partition: Arc<Vec<u32>> =
            Arc::new((0..n_parts).map(|p| islands.shard_of(p as u32)).collect());

        let classes_of = cfg.population.apportion(cfg.producers);
        let mut master = SimRng::seed_from_u64(seed);
        let rngs: Vec<SimRng> = (0..cfg.producers).map(|_| master.fork()).collect();
        let n_classes = cfg.population.entries().len();
        let mut class_producers = vec![0u64; n_classes];
        for &c in &classes_of {
            class_producers[c as usize] += 1;
        }

        let plan = plan_churn(&cfg);
        let end = SimTime::ZERO + cfg.duration;
        let is_static = !matches!(cfg.strategy, PartitionStrategy::RoundRobin);

        // Tenant homes. Static: the tenant's (pure-function) partition's
        // shard. Round-robin: spread by hash.
        let mut router = cfg.strategy.build(cfg.partitions, &cfg.population);
        let home_of: Vec<(u32, Option<u32>)> = (0..cfg.producers)
            .map(|t| {
                let t32 = t as u32;
                if is_static {
                    let p = router.route(t32, classes_of[t], cfg.partitions);
                    (shard_of_partition[p as usize], Some(p))
                } else {
                    ((mix64(u64::from(t32)) % n_shards as u64) as u32, None)
                }
            })
            .collect();

        // Round-robin cursor precompute: replay every tenant's flush
        // schedule against a *clone* of its RNG to count survivors, then
        // prefix-sum in global (time, tenant) flush order — the order the
        // sequential engine interleaves flushes in.
        let rr_starts: Vec<Vec<u64>> = if is_static {
            Vec::new()
        } else {
            let mut flushes: Vec<(SimTime, u32, u64)> = Vec::new();
            for t in 0..cfg.producers {
                let mut rng = rngs[t].clone();
                let rate = cfg.population.class(classes_of[t]).rate_hz;
                let phase = (t % 8) as u64 + 1;
                let mut at = SimTime::ZERO
                    + SimDuration::from_micros(FLUSH_INTERVAL.as_micros() * phase / 8);
                let mut last = SimTime::ZERO;
                let mut carry = 0.0f64;
                loop {
                    let emitted = rate * (at - last).as_secs_f64() + carry;
                    let n = emitted as u64;
                    carry = emitted - n as f64;
                    last = at;
                    let mut survivors = 0u64;
                    for _ in 0..n {
                        survivors += u64::from(!rng.bernoulli(cfg.base_loss));
                    }
                    flushes.push((at, t as u32, survivors));
                    let next = at + FLUSH_INTERVAL;
                    if next >= end {
                        break;
                    }
                    at = next;
                }
            }
            flushes.sort_by_key(|&(at, t, _)| (at, t));
            let mut starts = vec![Vec::new(); cfg.producers];
            let mut cursor = 0u64;
            for (_, t, survivors) in flushes {
                starts[t as usize].push(cursor);
                cursor = cursor.wrapping_add(survivors);
            }
            starts
        };

        // Build the shard worlds.
        let mut plan = plan;
        let churn = Arc::new(std::mem::take(&mut plan.steps));
        let mut worlds: Vec<FleetShard> = (0..n_shards)
            .map(|s| {
                let parts: Vec<u32> = (0..n_parts)
                    .filter(|&p| shard_of_partition[p] == s as u32)
                    .map(|p| p as u32)
                    .collect();
                let mut local_of = vec![None; n_parts];
                for (local, &global) in parts.iter().enumerate() {
                    local_of[global as usize] = Some(local);
                }
                let owned = parts
                    .iter()
                    .map(|&g| plan.initial_owned[g as usize])
                    .collect();
                let pstate = vec![PartitionState::fresh(cfg.partition_capacity_hz); parts.len()];
                FleetShard {
                    cap: cfg.partition_capacity_hz,
                    base_loss: cfg.base_loss,
                    end,
                    window: cfg.window,
                    n_partitions: u64::from(cfg.partitions),
                    rebalance_pause: cfg.rebalance_pause,
                    shard_of_partition: Arc::clone(&shard_of_partition),
                    churn: Arc::clone(&churn),
                    parts,
                    local_of,
                    pstate,
                    owned,
                    tenants: Vec::new(),
                    class_window: vec![ClassWindowAcc::default(); n_classes],
                    windows: Vec::new(),
                    remote: FastMap::new(),
                    fired: Fired::default(),
                }
            })
            .collect();

        // Distribute tenants to their home shards in ascending tenant
        // order, consuming the per-tenant RNG forks in the same order the
        // sequential engine forked them.
        let mut rr_starts = rr_starts;
        for (t, rng) in rngs.into_iter().enumerate() {
            let (home, static_p) = home_of[t];
            let world = &mut worlds[home as usize];
            let route = match static_p {
                Some(p) => Route::Static(world.local_of[p as usize].expect("home owns partition")),
                None => Route::RoundRobin {
                    starts: std::mem::take(&mut rr_starts[t]),
                    next: 0,
                },
            };
            world.tenants.push(TenantRt {
                class: classes_of[t],
                rate_hz: cfg.population.class(classes_of[t]).rate_hz,
                rng,
                last_flush: SimTime::ZERO,
                carry: 0.0,
                route,
                ledger: TenantLedger {
                    tenant: t as u32,
                    class: classes_of[t],
                    produced: 0,
                    delivered: 0,
                    lost_network: 0,
                    lost_overload: 0,
                    duplicated: 0,
                },
            });
        }

        // Seed each shard's heap in the sequential engine's setup order:
        // first flushes (tenant ascending), churn (script order), consume
        // tick, window close — so shard-local sequence numbers order
        // coincident events exactly as the global heap did.
        let mut sim = ShardedSim::new(worlds, SHARD_HORIZON, seed);
        for s in 0..n_shards {
            let firsts: Vec<(u32, SimTime)> = sim
                .world_mut(s)
                .tenants
                .iter()
                .enumerate()
                .map(|(i, t)| {
                    let phase = u64::from(t.ledger.tenant % 8) + 1;
                    (
                        i as u32,
                        SimTime::ZERO
                            + SimDuration::from_micros(FLUSH_INTERVAL.as_micros() * phase / 8),
                    )
                })
                .collect();
            for (i, at) in firsts {
                sim.schedule(s, at, ShardEvent::Flush(i));
            }
            for (i, step) in churn.iter().enumerate() {
                sim.schedule(s, step.at, ShardEvent::Churn(i as u32));
            }
            sim.schedule(s, SimTime::ZERO + CONSUME_TICK, ShardEvent::ConsumeTick);
            sim.schedule(s, SimTime::ZERO + cfg.window, ShardEvent::WindowClose);
        }

        sim.run_until_idle(threads);
        let total_fired = sim.events_fired();
        let worlds = sim.into_worlds();

        // --- Merge ---------------------------------------------------
        let mut ledgers: Vec<TenantLedger> = classes_of
            .iter()
            .enumerate()
            .map(|(t, &class)| TenantLedger {
                tenant: t as u32,
                class,
                produced: 0,
                delivered: 0,
                lost_network: 0,
                lost_overload: 0,
                duplicated: 0,
            })
            .collect();
        let mut partition_appends = vec![0u64; n_parts];
        let n_windows = (cfg.duration.as_micros() / cfg.window.as_micros()) as usize;
        let mut win_class = vec![vec![ClassWindowAcc::default(); n_classes]; n_windows];
        let mut win_backlog = vec![0u64; n_windows];
        let mut flush_fired = 0u64;
        let mut tick_fired = 0u64;
        let mut wc_fired = 0u64;
        for world in &worlds {
            flush_fired += world.fired.flush;
            tick_fired = world.fired.tick;
            wc_fired = world.fired.wc;
            for t in &world.tenants {
                ledgers[t.ledger.tenant as usize] = t.ledger;
            }
            for (local, &global) in world.parts.iter().enumerate() {
                partition_appends[global as usize] = world.pstate[local].appends;
            }
            for (w, row) in world.windows.iter().enumerate() {
                win_backlog[w] += row.backlog;
                for (c, acc) in row.classes.iter().enumerate() {
                    let agg = &mut win_class[w][c];
                    agg.produced += acc.produced;
                    agg.delivered += acc.delivered;
                    agg.lost += acc.lost;
                    agg.duplicated += acc.duplicated;
                }
            }
        }
        // Remote deltas (round-robin cross-shard appends) fold in after
        // every home ledger has been scattered — a shard can hold deltas
        // for a tenant homed on a not-yet-visited shard.
        for world in &worlds {
            for (&tenant, delta) in &world.remote {
                let l = &mut ledgers[tenant as usize];
                l.delivered += delta.delivered;
                l.lost_overload += delta.lost_overload;
                l.duplicated += delta.duplicated;
            }
        }
        // Either way per-tenant conservation holds:
        // produced = delivered + lost.

        // Per-window moved-partition and membership counts, from the plan.
        let mut win_moved = vec![0u64; n_windows];
        let mut win_members = vec![plan.initial_members.len() as u64; n_windows];
        {
            let mut members = plan.initial_members.len() as u64;
            let mut step_iter = churn.iter().peekable();
            for (w, slot) in win_members.iter_mut().enumerate() {
                let close = SimTime::ZERO
                    + SimDuration::from_micros(cfg.window.as_micros() * (w as u64 + 1));
                while let Some(step) = step_iter.peek() {
                    if step.at > close {
                        break;
                    }
                    members = step.members_after.len() as u64;
                    if let Some(reb) = &step.reb {
                        win_moved[window_of(step.at, cfg.window)] += reb.moved.len() as u64;
                    }
                    step_iter.next();
                }
                *slot = members;
            }
        }

        let mut series = TenantSeries::new(cfg.window);
        for (w, classes) in win_class.iter().enumerate() {
            // Same expression the sequential engine uses (`now - window` at
            // the close): a SimTime, so the f64 is bit-identical.
            let start_s = (SimTime::ZERO
                + SimDuration::from_micros(cfg.window.as_micros() * w as u64))
            .as_secs_f64();
            for (c, acc) in classes.iter().enumerate() {
                series.push(TenantWindowRow {
                    window: w as u64,
                    start_s,
                    cohort: cfg.population.class(c as u16).name.clone(),
                    producers: class_producers[c],
                    produced: acc.produced,
                    delivered: acc.delivered,
                    lost: acc.lost,
                    duplicated: acc.duplicated,
                    backlog: win_backlog[w],
                    moved_partitions: win_moved[w],
                    group_members: win_members[w],
                });
            }
        }

        let rebalances: Vec<RebalanceRecord> = churn
            .iter()
            .filter_map(|step| {
                step.reb.as_ref().map(|reb| RebalanceRecord {
                    at: step.at,
                    generation: reb.generation,
                    members: step.members_after.clone(),
                    moved: reb.moved.clone(),
                })
            })
            .collect();

        // For static strategies, report the event count the sequential
        // engine would have fired (ticks, closes and churn are replicated
        // per shard but correspond to one global event each); round-robin
        // adds mailbox batches, so report the true count.
        let events_fired = if is_static {
            flush_fired + churn.len() as u64 + tick_fired + wc_fired
        } else {
            total_fired
        };

        let (totals, classes) =
            super::engine::totals_and_classes(&ledgers, &class_producers, &cfg.population);

        let trace = synthesize_group_trace(&plan, &churn);
        (
            FleetOutcome {
                tenants: ledgers,
                totals,
                classes,
                partition_appends,
                rebalances,
                windows: series,
                events_fired,
            },
            trace,
        )
    }
}

/// The consumer-group trace stream the sequential engine emits, rebuilt
/// from the churn plan: generation-1 assignments at time zero, then per
/// churn a Joined/Left event followed by the post-rebalance assignments.
fn synthesize_group_trace(plan: &ChurnPlan, steps: &[ChurnStep]) -> Vec<TraceEvent> {
    let mut out = Vec::new();
    for (member, partitions) in &plan.initial_assignments {
        out.push(TraceEvent::PartitionsAssigned {
            at: SimTime::ZERO,
            member: *member,
            generation: 1,
            partitions: partitions.clone(),
            moved: partitions.len() as u64,
        });
    }
    for step in steps {
        out.push(match step.action {
            ChurnAction::Join => TraceEvent::ConsumerJoined {
                at: step.at,
                member: step.member,
                generation: step.generation,
            },
            ChurnAction::Leave => TraceEvent::ConsumerLeft {
                at: step.at,
                member: step.member,
                generation: step.generation,
            },
        });
        if let Some(reb) = &step.reb {
            for (member, parts) in &reb.assignments {
                let moved = parts.iter().filter(|p| reb.moved.contains(p)).count() as u64;
                out.push(TraceEvent::PartitionsAssigned {
                    at: step.at,
                    member: *member,
                    generation: reb.generation,
                    partitions: parts.clone(),
                    moved,
                });
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::super::engine::{ChurnEvent, FleetRun};
    use super::super::population::{Population, PopulationEntry, StreamClass};
    use super::*;
    use crate::source::SizeSpec;
    use obs::RingBufferSink;

    fn cfg(strategy: PartitionStrategy) -> FleetConfig {
        FleetConfig {
            producers: 150,
            partitions: 12,
            strategy,
            population: Population::new(vec![
                PopulationEntry {
                    class: StreamClass {
                        name: "web".into(),
                        size: SizeSpec::Fixed(200),
                        rate_hz: 1.5,
                        timeliness: SimDuration::from_secs(2),
                    },
                    weight: 0.7,
                },
                PopulationEntry {
                    class: StreamClass {
                        name: "game".into(),
                        size: SizeSpec::Fixed(80),
                        rate_hz: 3.0,
                        timeliness: SimDuration::from_millis(300),
                    },
                    weight: 0.3,
                },
            ])
            .unwrap(),
            initial_consumers: 4,
            assignor: super::super::group::Assignor::Sticky,
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
            partition_capacity_hz: 30.0,
            base_loss: 0.01,
            rebalance_pause: SimDuration::from_secs(2),
        }
    }

    #[test]
    fn static_strategies_match_the_sequential_engine_exactly() {
        for strategy in [PartitionStrategy::KeyHash, PartitionStrategy::Locality] {
            let legacy = FleetRun::new(cfg(strategy), 7).execute();
            for threads in [1, 2, 4, 8] {
                let sharded = FleetRun::new(cfg(strategy), 7).execute_sharded(threads);
                assert_eq!(sharded, legacy, "{strategy:?} at {threads} threads");
            }
        }
    }

    #[test]
    fn sharded_trace_matches_sequential_trace() {
        let (_, mut sink) = FleetRun::new(cfg(PartitionStrategy::KeyHash), 7)
            .execute_traced(Box::new(RingBufferSink::new(8192)));
        let legacy_events = sink.drain();
        let (_, sharded_events) =
            FleetRun::new(cfg(PartitionStrategy::KeyHash), 7).execute_sharded_traced(4);
        assert_eq!(sharded_events, legacy_events);
    }

    #[test]
    fn round_robin_is_thread_invariant_and_conserves() {
        let baseline = FleetRun::new(cfg(PartitionStrategy::RoundRobin), 11).execute_sharded(1);
        for threads in [2, 4, 8] {
            let run =
                FleetRun::new(cfg(PartitionStrategy::RoundRobin), 11).execute_sharded(threads);
            assert_eq!(run, baseline, "round-robin at {threads} threads");
        }
        assert!(baseline.totals.produced > 0);
        for t in &baseline.tenants {
            assert_eq!(t.produced, t.delivered + t.lost(), "tenant {}", t.tenant);
        }
        assert_eq!(
            baseline.totals.delivered,
            baseline.partition_appends.iter().sum::<u64>()
        );
        // The round-robin cursor deals across partitions, so cross-shard
        // batches must actually have flowed.
        let spread = baseline
            .partition_appends
            .iter()
            .filter(|&&a| a > 0)
            .count();
        assert!(spread > 1, "round-robin should spread appends");
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
}
