//! Sharded deterministic event engine: parallel macro-steps, bit-identical
//! results at any thread count.
//!
//! The single-heap [`EventSim`](crate::typed::EventSim) processes one event at
//! a time, which caps a fleet-scale run at one core no matter how independent
//! the simulated components are. This module splits the event population into
//! **shards** — one per independent island of the simulated topology — and
//! advances all shards in parallel between **deterministic macro-step
//! barriers**.
//!
//! # Execution model
//!
//! Virtual time is cut into a fixed grid of windows `[k·H, (k+1)·H)` where `H`
//! is the *horizon*. Each macro step:
//!
//! 1. finds the globally earliest pending event and selects the grid window
//!    containing it (empty windows are skipped entirely, so a sparse schedule
//!    fast-forwards rather than spinning);
//! 2. lets every shard process **its own** events with `time < window_end`,
//!    in parallel, each shard using its own heap, sequence counter, and
//!    seed-derived RNG stream;
//! 3. at the barrier, merges all cross-shard sends buffered during the window
//!    into the destination heaps in one fixed total order — sorted by
//!    `(destination, time, source shard, source seq)` — with the delivery
//!    time clamped to no earlier than the *next* window start.
//!
//! # Why results are bit-identical at any thread count
//!
//! * A shard's evolution inside a window depends only on its own state: its
//!   heap, its sequence counter, its RNG stream. Threads never share any of
//!   these, so the partition of shards onto worker threads is unobservable.
//! * Cross-shard events are never injected mid-window. They are buffered and
//!   merged only at the barrier, in an order determined entirely by values
//!   that are themselves thread-invariant (event time, source shard id,
//!   source-local sequence number). Destination sequence numbers are assigned
//!   while walking that sorted order, so tie-breaking on the destination heap
//!   is also thread-invariant.
//! * Window boundaries depend only on the earliest pending event time and the
//!   fixed horizon — again thread-invariant.
//!
//! The price is a latency floor: a cross-shard send takes effect no earlier
//! than the next window boundary. Callers choose a horizon no larger than the
//! minimum cross-shard latency they model (for network-coupled shards, the
//! minimum link delay), in which case the clamp never moves an event and the
//! sharded run is *exactly* the merge of its sequential counterparts.

use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Barrier, Mutex, MutexGuard};

use crate::agenda::Agenda;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};

/// A world advanced by one shard of a [`ShardedSim`].
///
/// Mirrors [`EventWorld`](crate::typed::EventWorld), with the additional
/// ability to `send` events to sibling shards through the context. Worlds are
/// moved onto worker threads during parallel runs, hence the `Send` bound.
pub trait ShardWorld: Send {
    /// The event type this world handles.
    type Event: Send;

    /// Handle one event at its scheduled time.
    fn handle(&mut self, event: Self::Event, ctx: &mut ShardContext<Self::Event>);
}

/// Scheduling and randomness facilities handed to [`ShardWorld::handle`].
///
/// Each shard owns exactly one context for the lifetime of the simulation:
/// its agenda (clock, sequence counter, pending events), RNG stream, and
/// outgoing mailboxes.
pub struct ShardContext<E> {
    shard: u32,
    n_shards: u32,
    agenda: Agenda<E>,
    rng: SimRng,
    /// Outgoing mailbox per destination shard; drained at each barrier.
    outbox: Vec<Vec<(SimTime, u64, E)>>,
    /// Events waiting in `outbox`; zero lets the barrier skip this shard.
    unmerged: usize,
}

impl<E> ShardContext<E> {
    fn new(shard: u32, n_shards: u32, rng: SimRng) -> Self {
        ShardContext {
            shard,
            n_shards,
            agenda: Agenda::new(),
            rng,
            outbox: (0..n_shards).map(|_| Vec::new()).collect(),
            unmerged: 0,
        }
    }

    /// This shard's id, in `0..n_shards`.
    #[must_use]
    pub fn shard(&self) -> u32 {
        self.shard
    }

    /// Number of shards in the simulation.
    #[must_use]
    pub fn n_shards(&self) -> u32 {
        self.n_shards
    }

    /// Current virtual time on this shard's clock.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.agenda.now()
    }

    /// This shard's private random-number stream.
    pub fn rng(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Events fired on this shard so far.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.agenda.fired()
    }

    /// Schedule `event` on this shard at absolute time `at`.
    ///
    /// Times in the past are clamped to `now`, like
    /// [`EventContext::schedule_at`](crate::typed::EventContext::schedule_at).
    /// Ties fire in scheduling order.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.agenda.schedule_at(at, event);
    }

    /// Schedule `event` on this shard after `delay`.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.agenda.schedule_in(delay, event);
    }

    /// Send `event` to shard `dst` with a target time of `at`.
    ///
    /// A send to the local shard is an ordinary [`schedule_at`]. A send to a
    /// sibling shard is buffered and merged at the next barrier; its delivery
    /// time is `at` clamped to no earlier than the next window boundary
    /// (see the module docs for when the clamp is a no-op).
    ///
    /// [`schedule_at`]: ShardContext::schedule_at
    ///
    /// # Panics
    ///
    /// Panics if `dst` is not a valid shard id.
    pub fn send(&mut self, dst: u32, at: SimTime, event: E) {
        assert!(dst < self.n_shards, "send to unknown shard {dst}");
        if dst == self.shard {
            self.schedule_at(at, event);
        } else {
            let seq = self.agenda.take_seq();
            self.unmerged += 1;
            self.outbox[dst as usize].push((at, seq, event));
        }
    }
}

/// One shard: its world plus its private engine state.
struct ShardCore<W: ShardWorld> {
    world: W,
    ctx: ShardContext<W::Event>,
}

impl<W: ShardWorld> ShardCore<W> {
    /// Fire every local event due at or before `last`.
    fn run_window(&mut self, last: SimTime) {
        while let Some(event) = self.ctx.agenda.pop_at_or_before(last) {
            self.world.handle(event, &mut self.ctx);
        }
    }
}

/// A cross-shard event on its way through a barrier, in merge-key order:
/// `(destination, time, source shard, source seq, event)`.
type InTransit<E> = (u32, SimTime, u32, u64, E);

/// Earliest pending event time across all shards, or `None` when idle.
///
/// Generic over how a shard is held: a plain borrow on the inline path, a
/// lock guard on the coordinator of the worker pool.
fn min_pending<W: ShardWorld>(cores: &[impl Deref<Target = ShardCore<W>>]) -> Option<SimTime> {
    cores
        .iter()
        .filter_map(|core| core.ctx.agenda.next_deadline())
        .min()
}

/// The grid window containing `at`: returns `(last, end)` where the window
/// is `[start, end)` and `last` is its final instant, `end` less one
/// microsecond (instants are whole microseconds) — or `end` itself when it
/// saturates at [`SimTime::MAX`], so events at the far end of time still
/// fire.
fn window(at: SimTime, horizon: SimDuration) -> (SimTime, SimTime) {
    let h = horizon.as_micros();
    let k = at.as_micros() / h;
    let end = SimTime::from_micros((k * h).saturating_add(h));
    let last = if end == SimTime::MAX {
        end
    } else {
        end - SimDuration::from_micros(1)
    };
    (last, end)
}

/// Drain every outgoing mailbox and inject the events into their destination
/// agendas in the fixed merge order `(destination, time, source, seq)`, with
/// delivery clamped to `next_start`. Returns the number of events merged.
///
/// A barrier no shard sent across (every barrier of a run whose shards are
/// independent) touches no mailbox, and `transit` is scratch the caller
/// keeps, so a steady run allocates nothing here.
fn merge_mailboxes<W: ShardWorld>(
    cores: &mut [impl DerefMut<Target = ShardCore<W>>],
    transit: &mut Vec<InTransit<W::Event>>,
    next_start: SimTime,
) -> u64 {
    for (src, core) in cores.iter_mut().enumerate() {
        let ctx = &mut core.ctx;
        if ctx.unmerged == 0 {
            continue;
        }
        ctx.unmerged = 0;
        for (dst, outbox) in ctx.outbox.iter_mut().enumerate() {
            transit.extend(
                outbox
                    .drain(..)
                    .map(|(at, seq, event)| (dst as u32, at, src as u32, seq, event)),
            );
        }
    }
    let merged = transit.len() as u64;
    // `(src, seq)` is unique, so no two keys are equal and the unstable sort
    // (which, unlike the stable one, needs no buffer) has one possible result.
    transit.sort_unstable_by_key(|e| (e.0, e.1, e.2, e.3));
    for (dst, at, _src, _seq, event) in transit.drain(..) {
        cores[dst as usize]
            .ctx
            .schedule_at(at.max(next_start), event);
    }
    merged
}

/// Locks every shard for the coordinator. Only called while the workers are
/// parked at a barrier, so no lock is ever contended.
fn lock_all<'a, W: ShardWorld>(
    shards: &'a [Mutex<ShardCore<W>>],
    guards: &mut Vec<MutexGuard<'a, ShardCore<W>>>,
) {
    guards.extend(
        shards
            .iter()
            .map(|cell| cell.lock().expect("shard lock poisoned")),
    );
}

/// A deterministic parallel discrete-event simulation over N shards.
///
/// See the [module docs](self) for the execution model and the determinism
/// argument. Construct with one world per shard, schedule seed events with
/// [`schedule`](ShardedSim::schedule), then call
/// [`run_until_idle`](ShardedSim::run_until_idle) with any thread count —
/// including 1, which runs inline on the calling thread.
pub struct ShardedSim<W: ShardWorld> {
    shards: Vec<Mutex<ShardCore<W>>>,
    horizon: SimDuration,
    steps: u64,
    cross_shard: u64,
    /// Scratch of [`merge_mailboxes`], kept so barriers do not allocate.
    transit: Vec<InTransit<W::Event>>,
}

impl<W: ShardWorld> ShardedSim<W> {
    /// Build a sharded simulation: one shard per world, macro-step windows of
    /// `horizon`, and per-shard RNG streams forked in shard order from a
    /// master seeded with `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `worlds` is empty or `horizon` is zero.
    #[must_use]
    pub fn new(worlds: Vec<W>, horizon: SimDuration, seed: u64) -> Self {
        assert!(!worlds.is_empty(), "a sharded sim needs at least one shard");
        assert!(!horizon.is_zero(), "macro-step horizon must be positive");
        let n = u32::try_from(worlds.len()).expect("shard count fits in u32");
        let mut master = SimRng::seed_from_u64(seed);
        let shards = worlds
            .into_iter()
            .enumerate()
            .map(|(i, world)| {
                Mutex::new(ShardCore {
                    world,
                    ctx: ShardContext::new(i as u32, n, master.fork()),
                })
            })
            .collect();
        ShardedSim {
            shards,
            horizon,
            steps: 0,
            cross_shard: 0,
            transit: Vec::new(),
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// The macro-step horizon.
    #[must_use]
    pub fn horizon(&self) -> SimDuration {
        self.horizon
    }

    /// Schedule a seed event on `shard` at absolute time `at`.
    pub fn schedule(&mut self, shard: usize, at: SimTime, event: W::Event) {
        let core = self.shards[shard].get_mut().expect("shard lock poisoned");
        core.ctx.schedule_at(at, event);
    }

    /// Mutable access to one shard's world (between runs).
    pub fn world_mut(&mut self, shard: usize) -> &mut W {
        &mut self.shards[shard]
            .get_mut()
            .expect("shard lock poisoned")
            .world
    }

    /// Total events fired across all shards.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.shards
            .iter()
            .map(|c| c.lock().expect("shard lock poisoned").ctx.events_fired())
            .sum()
    }

    /// Macro steps (barriers) executed so far.
    #[must_use]
    pub fn steps(&self) -> u64 {
        self.steps
    }

    /// Cross-shard events merged through mailboxes so far.
    #[must_use]
    pub fn cross_shard_events(&self) -> u64 {
        self.cross_shard
    }

    /// Consume the simulation and return the shard worlds in shard order.
    #[must_use]
    pub fn into_worlds(self) -> Vec<W> {
        self.shards
            .into_iter()
            .map(|c| c.into_inner().expect("shard lock poisoned").world)
            .collect()
    }

    /// Run macro steps until every shard's heap is empty, using `threads`
    /// worker threads (clamped to `[1, n_shards]`). Returns the total number
    /// of events fired during this call.
    ///
    /// The result — every shard world, every RNG stream, every counter — is
    /// bit-identical for every value of `threads`.
    pub fn run_until_idle(&mut self, threads: usize) -> u64 {
        let fired_before = self.events_fired();
        let threads = threads.clamp(1, self.shards.len());
        if threads == 1 {
            self.run_inline();
        } else {
            self.run_parallel(threads);
        }
        self.events_fired() - fired_before
    }

    /// Sequential driver: same window/merge schedule as the parallel path,
    /// executed on the calling thread. `&mut self` proves no one else holds
    /// a shard, so no lock is taken.
    fn run_inline(&mut self) {
        let mut cores: Vec<&mut ShardCore<W>> = self
            .shards
            .iter_mut()
            .map(|cell| cell.get_mut().expect("shard lock poisoned"))
            .collect();
        while let Some(min_at) = min_pending(&cores) {
            let (last, end) = window(min_at, self.horizon);
            for core in &mut cores {
                core.run_window(last);
            }
            self.steps += 1;
            self.cross_shard += merge_mailboxes(&mut cores, &mut self.transit, end);
        }
    }

    /// Parallel driver: a worker pool advances shards between two barriers
    /// per macro step; the coordinator picks windows and merges mailboxes
    /// while the workers are parked.
    fn run_parallel(&mut self, threads: usize) {
        let shards = &self.shards;
        let transit = &mut self.transit;
        let n = shards.len();
        let barrier = Barrier::new(threads + 1);
        // Last instant, in microseconds, of the window the workers are
        // about to run.
        let last_us = AtomicU64::new(0);
        let quit = AtomicBool::new(false);
        let mut steps = 0u64;
        let mut cross = 0u64;
        std::thread::scope(|scope| {
            for worker in 0..threads {
                let barrier = &barrier;
                let last_us = &last_us;
                let quit = &quit;
                scope.spawn(move || loop {
                    barrier.wait();
                    if quit.load(Ordering::Acquire) {
                        break;
                    }
                    let last = SimTime::from_micros(last_us.load(Ordering::Acquire));
                    // Strided shard ownership: shard i belongs to worker
                    // i % threads for this step. Disjoint, so the locks
                    // never contend.
                    let mut i = worker;
                    while i < n {
                        shards[i]
                            .lock()
                            .expect("shard lock poisoned")
                            .run_window(last);
                        i += threads;
                    }
                    barrier.wait();
                });
            }
            // Coordinator. Workers are always parked at a barrier while this
            // code holds the shards.
            let mut cores = Vec::with_capacity(n);
            lock_all(shards, &mut cores);
            while let Some(min_at) = min_pending(&cores) {
                let (last, end) = window(min_at, self.horizon);
                last_us.store(last.as_micros(), Ordering::Release);
                cores.clear(); // hand the shards to the workers
                barrier.wait(); // release workers into the window
                barrier.wait(); // wait for the window to finish
                lock_all(shards, &mut cores);
                steps += 1;
                cross += merge_mailboxes(&mut cores, transit, end);
            }
            drop(cores);
            quit.store(true, Ordering::Release);
            barrier.wait(); // release workers into the quit check
        });
        self.steps += steps;
        self.cross_shard += cross;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A world that logs every event it sees (time, payload, an RNG draw)
    /// and forwards hops around the shard ring.
    struct Hopper {
        log: Vec<(u64, u64, u64)>,
    }

    #[derive(Clone)]
    enum Ev {
        Hop {
            hops_left: u32,
            payload: u64,
            delay: SimDuration,
        },
        Local {
            payload: u64,
        },
    }

    impl ShardWorld for Hopper {
        type Event = Ev;

        fn handle(&mut self, event: Ev, ctx: &mut ShardContext<Ev>) {
            match event {
                Ev::Hop {
                    hops_left,
                    payload,
                    delay,
                } => {
                    let draw = ctx.rng().next_u64();
                    self.log.push((ctx.now().as_micros(), payload, draw));
                    if hops_left > 0 {
                        let dst = (ctx.shard() + 1) % ctx.n_shards();
                        ctx.send(
                            dst,
                            ctx.now() + delay,
                            Ev::Hop {
                                hops_left: hops_left - 1,
                                payload: payload + 1,
                                delay,
                            },
                        );
                    }
                }
                Ev::Local { payload } => {
                    let draw = ctx.rng().next_u64();
                    self.log.push((ctx.now().as_micros(), payload, draw));
                }
            }
        }
    }

    /// Per-shard log of `(micros, payload, rng draw)` entries.
    type RingLog = Vec<(u64, u64, u64)>;

    /// Build, seed, and run a ring sim; return (per-shard logs, fired,
    /// steps, cross-shard count).
    fn run_ring(n_shards: usize, threads: usize) -> (Vec<RingLog>, u64, u64, u64) {
        let worlds = (0..n_shards).map(|_| Hopper { log: Vec::new() }).collect();
        let mut sim = ShardedSim::new(worlds, SimDuration::from_millis(10), 42);
        // Several interleaved rings starting on different shards at
        // different times, plus local-only noise events.
        for s in 0..n_shards {
            sim.schedule(
                s,
                SimTime::from_millis(1 + s as u64),
                Ev::Hop {
                    hops_left: 23,
                    payload: (s as u64) << 32,
                    delay: SimDuration::from_millis(10),
                },
            );
            for k in 0..5u64 {
                sim.schedule(s, SimTime::from_millis(3 + 7 * k), Ev::Local { payload: k });
            }
        }
        let fired = sim.run_until_idle(threads);
        let steps = sim.steps();
        let cross = sim.cross_shard_events();
        let logs = sim.into_worlds().into_iter().map(|w| w.log).collect();
        (logs, fired, steps, cross)
    }

    #[test]
    fn bit_identical_across_thread_counts() {
        let baseline = run_ring(5, 1);
        for threads in [2, 3, 4, 8] {
            let run = run_ring(5, threads);
            assert_eq!(run, baseline, "threads={threads} diverged from threads=1");
        }
        // The rings really did cross shards.
        assert!(baseline.3 > 0, "expected cross-shard traffic");
        // 5 rings x 24 hop events + 5 shards x 5 local events.
        assert_eq!(baseline.1, 5 * 24 + 25);
    }

    #[test]
    fn rng_streams_are_per_shard_and_deterministic() {
        // Two shards never exchanging events: each draws from its own
        // stream; the logs must match a hand-forked pair of RNGs.
        struct Drawer {
            draws: Vec<u64>,
        }
        impl ShardWorld for Drawer {
            type Event = ();
            fn handle(&mut self, (): (), ctx: &mut ShardContext<()>) {
                self.draws.push(ctx.rng().next_u64());
            }
        }
        let worlds = vec![Drawer { draws: Vec::new() }, Drawer { draws: Vec::new() }];
        let mut sim = ShardedSim::new(worlds, SimDuration::from_millis(1), 7);
        for s in 0..2 {
            for k in 0..4u64 {
                sim.schedule(s, SimTime::from_millis(k), ());
            }
        }
        sim.run_until_idle(2);
        let worlds = sim.into_worlds();

        let mut master = SimRng::seed_from_u64(7);
        let mut r0 = master.fork();
        let mut r1 = master.fork();
        let want0: Vec<u64> = (0..4).map(|_| r0.next_u64()).collect();
        let want1: Vec<u64> = (0..4).map(|_| r1.next_u64()).collect();
        assert_eq!(worlds[0].draws, want0);
        assert_eq!(worlds[1].draws, want1);
    }

    #[test]
    fn cross_shard_delivery_clamps_to_next_window() {
        // Horizon 10ms. A send at t=2ms targeting t=3ms on another shard
        // must be clamped to the window boundary at 10ms; a send targeting
        // t=14ms (beyond the boundary) must keep its time.
        struct Probe {
            seen: Vec<u64>,
        }
        #[derive(Clone)]
        enum P {
            Emit,
            Mark,
        }
        impl ShardWorld for Probe {
            type Event = P;
            fn handle(&mut self, event: P, ctx: &mut ShardContext<P>) {
                match event {
                    P::Emit => {
                        ctx.send(1, SimTime::from_millis(3), P::Mark);
                        ctx.send(1, SimTime::from_millis(14), P::Mark);
                    }
                    P::Mark => self.seen.push(ctx.now().as_millis()),
                }
            }
        }
        let worlds = vec![Probe { seen: Vec::new() }, Probe { seen: Vec::new() }];
        let mut sim = ShardedSim::new(worlds, SimDuration::from_millis(10), 1);
        sim.schedule(0, SimTime::from_millis(2), P::Emit);
        sim.run_until_idle(1);
        let worlds = sim.into_worlds();
        assert_eq!(worlds[1].seen, vec![10, 14]);
    }

    #[test]
    fn local_sends_are_not_clamped() {
        struct Probe {
            seen: Vec<u64>,
        }
        #[derive(Clone)]
        enum P {
            Emit,
            Mark,
        }
        impl ShardWorld for Probe {
            type Event = P;
            fn handle(&mut self, event: P, ctx: &mut ShardContext<P>) {
                match event {
                    P::Emit => ctx.send(0, SimTime::from_millis(3), P::Mark),
                    P::Mark => self.seen.push(ctx.now().as_millis()),
                }
            }
        }
        let mut sim = ShardedSim::new(
            vec![Probe { seen: Vec::new() }],
            SimDuration::from_millis(10),
            1,
        );
        sim.schedule(0, SimTime::from_millis(2), P::Emit);
        sim.run_until_idle(1);
        assert_eq!(sim.into_worlds()[0].seen, vec![3]);
    }

    #[test]
    fn empty_windows_fast_forward() {
        // Two events 10 seconds apart with a 1ms horizon: the engine must
        // jump between occupied windows, not grind through 10k empty ones.
        struct Null;
        impl ShardWorld for Null {
            type Event = ();
            fn handle(&mut self, (): (), _ctx: &mut ShardContext<()>) {}
        }
        let mut sim = ShardedSim::new(vec![Null], SimDuration::from_millis(1), 1);
        sim.schedule(0, SimTime::from_secs(1), ());
        sim.schedule(0, SimTime::from_secs(11), ());
        sim.run_until_idle(1);
        assert_eq!(sim.events_fired(), 2);
        assert_eq!(sim.steps(), 2, "one macro step per occupied window");
    }

    #[test]
    fn merge_order_breaks_time_ties_by_source_shard() {
        // Shards 1 and 2 both send to shard 0 at the same target time in the
        // same window. The merge order is (time, src, seq), so shard 1's
        // event must fire first regardless of processing interleave.
        struct Recv {
            order: Vec<u64>,
        }
        #[derive(Clone)]
        enum M {
            Emit(u64),
            Tag(u64),
        }
        impl ShardWorld for Recv {
            type Event = M;
            fn handle(&mut self, event: M, ctx: &mut ShardContext<M>) {
                match event {
                    M::Emit(tag) => ctx.send(0, SimTime::from_millis(50), M::Tag(tag)),
                    M::Tag(tag) => self.order.push(tag),
                }
            }
        }
        for threads in [1, 3] {
            let worlds = vec![
                Recv { order: Vec::new() },
                Recv { order: Vec::new() },
                Recv { order: Vec::new() },
            ];
            let mut sim = ShardedSim::new(worlds, SimDuration::from_millis(100), 9);
            // Schedule the *higher* shard's emit earlier in real processing
            // order to prove merge order is not arrival order.
            sim.schedule(2, SimTime::from_millis(1), M::Emit(2));
            sim.schedule(1, SimTime::from_millis(2), M::Emit(1));
            sim.run_until_idle(threads);
            let worlds = sim.into_worlds();
            assert_eq!(worlds[0].order, vec![1, 2], "threads={threads}");
        }
    }
}
