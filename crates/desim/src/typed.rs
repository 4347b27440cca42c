//! The typed-event engine, on which every simulator of the workspace runs.
//!
//! The world declares a plain `enum` of its event kinds
//! ([`EventWorld::Event`]) and a single [`EventWorld::handle`] method that
//! dispatches on it. Events are stored *by value* in the crate's agenda
//! (one [`crate::minq::MinQueue`]: a short sorted run with std's binary
//! heap behind it), so scheduling is an insert into a short `Vec` and
//! firing is a match — no boxes, no virtual calls, no per-event
//! allocation, where the closure engine ([`crate::Simulation`]) boxes
//! every event.
//!
//! There is deliberately **no cancellation**: models that need to retire a
//! stale timer guard it with an epoch or flag in the world (the timer fires,
//! notices its epoch is old, and returns). That keeps the queue free of
//! tombstone bookkeeping. Events at equal timestamps fire in insertion
//! order.
//!
//! # Example
//!
//! ```
//! use desim::{EventContext, EventSim, EventWorld, SimDuration, SimTime};
//!
//! struct Counter { ticks: u32 }
//! enum Ev { Tick }
//!
//! impl EventWorld for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, event: Ev, ctx: &mut EventContext<Ev>) {
//!         match event {
//!             Ev::Tick => {
//!                 self.ticks += 1;
//!                 if self.ticks < 5 {
//!                     ctx.schedule_in(SimDuration::from_millis(10), Ev::Tick);
//!                 }
//!             }
//!         }
//!     }
//! }
//!
//! let mut sim = EventSim::new(Counter { ticks: 0 });
//! sim.schedule_at(SimTime::ZERO, Ev::Tick);
//! sim.run_until_idle();
//! assert_eq!(sim.world().ticks, 5);
//! assert_eq!(sim.now(), SimTime::from_millis(40));
//! ```

use crate::agenda::Agenda;
use crate::time::{SimDuration, SimTime};

/// A world driven by typed events.
///
/// Implementors define an event enum and a dispatch method; the engine owns
/// the clock and the queue.
pub trait EventWorld: Sized {
    /// The event alphabet of this world — typically a plain `enum`.
    type Event;

    /// Fires one event. The clock has already advanced to the event's
    /// timestamp; follow-up events are scheduled through `ctx`.
    fn handle(&mut self, event: Self::Event, ctx: &mut EventContext<Self::Event>);
}

/// Scheduling handle passed to [`EventWorld::handle`].
///
/// Holds the clock and the pending events (the crate's one `Agenda`);
/// generic over the event type only, so a world can hand it to helper
/// functions without naming itself.
pub struct EventContext<E> {
    agenda: Agenda<E>,
}

impl<E> core::fmt::Debug for EventContext<E> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventContext")
            .field("now", &self.now())
            .field("pending", &self.pending())
            .field("fired", &self.events_fired())
            .finish()
    }
}

impl<E> EventContext<E> {
    fn new() -> Self {
        EventContext {
            agenda: Agenda::new(),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.agenda.now()
    }

    /// Schedules `event` to fire at the absolute instant `at`.
    ///
    /// Events scheduled in the past fire "now" (at the current clock value),
    /// after all events already queued for the current instant.
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.agenda.schedule_at(at, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.agenda.schedule_in(delay, event);
    }

    /// Number of events that have fired so far.
    #[must_use]
    pub(crate) fn events_fired(&self) -> u64 {
        self.agenda.fired()
    }

    /// Number of events still pending.
    #[must_use]
    pub(crate) fn pending(&self) -> usize {
        self.agenda.len()
    }

    /// The timestamp of the earliest pending event, if any.
    ///
    /// Handlers that generate their own future work (e.g. a source polled
    /// on a self-scheduled cadence) can use this to *coalesce*: as long as
    /// the next self-generated instant is strictly earlier than every
    /// pending event, processing it inline is order-identical to scheduling
    /// it — the engine would have popped it next anyway.
    #[must_use]
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.agenda.next_deadline()
    }
}

/// A discrete-event simulation over a typed-event world.
///
/// The counterpart of [`crate::Simulation`] for worlds that implement
/// [`EventWorld`]; scheduling and stepping never allocate per event.
pub struct EventSim<W: EventWorld> {
    world: W,
    ctx: EventContext<W::Event>,
}

impl<W: EventWorld + core::fmt::Debug> core::fmt::Debug for EventSim<W> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("EventSim")
            .field("world", &self.world)
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl<W: EventWorld> EventSim<W> {
    /// Creates a simulation over `world` with the clock at zero.
    #[must_use]
    pub fn new(world: W) -> Self {
        EventSim {
            world,
            ctx: EventContext::new(),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// Shared access to the world.
    #[must_use]
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Exclusive access to the world.
    #[cfg(test)]
    pub(crate) fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Consumes the simulation, returning the world.
    #[must_use]
    pub fn into_world(self) -> W {
        self.world
    }

    /// Schedules an event at an absolute instant. See [`EventContext::schedule_at`].
    pub fn schedule_at(&mut self, at: SimTime, event: W::Event) {
        self.ctx.schedule_at(at, event);
    }

    /// Schedules an event after a delay. See [`EventContext::schedule_in`].
    pub fn schedule_in(&mut self, delay: SimDuration, event: W::Event) {
        self.ctx.schedule_in(delay, event);
    }

    /// Fires the next pending event, advancing the clock to its timestamp.
    ///
    /// Returns `false` when the queue is empty (the clock does not move).
    pub(crate) fn step(&mut self) -> bool {
        let Some(event) = self.ctx.agenda.pop() else {
            return false;
        };
        self.world.handle(event, &mut self.ctx);
        true
    }

    /// Runs until no events remain. Returns the number of events fired.
    pub fn run_until_idle(&mut self) -> u64 {
        let before = self.events_fired();
        while self.step() {}
        self.events_fired() - before
    }

    /// Runs until the clock would pass `deadline` or the queue drains.
    ///
    /// Events stamped exactly at `deadline` still fire; the clock never
    /// exceeds `deadline`.
    pub fn run_until(&mut self, deadline: SimTime) -> u64 {
        let before = self.events_fired();
        while let Some(event) = self.ctx.agenda.pop_at_or_before(deadline) {
            self.world.handle(event, &mut self.ctx);
        }
        self.ctx.agenda.advance_to(deadline);
        self.events_fired() - before
    }

    /// Fires up to `max_events` events while the clock has not passed
    /// `deadline`, returning how many fired.
    ///
    /// The deadline check mirrors the plain `while now() <= deadline {
    /// step() }` driver loop: it is applied *before* each step, so the
    /// last fired event may carry the clock past `deadline` (exactly as
    /// that loop allows). Calling `run_slice` repeatedly until it
    /// returns `0` is therefore event-for-event identical to the plain
    /// loop — the slicing only adds resumption points, which profilers
    /// and cooperative schedulers use to bound time inside one call.
    pub fn run_slice(&mut self, deadline: SimTime, max_events: u64) -> u64 {
        let mut fired = 0;
        while fired < max_events && self.now() <= deadline {
            if !self.step() {
                break;
            }
            fired += 1;
        }
        fired
    }

    /// Total events fired since construction.
    #[must_use]
    pub fn events_fired(&self) -> u64 {
        self.ctx.events_fired()
    }

    /// Number of events still pending.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn pending(&self) -> usize {
        self.ctx.pending()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Recorder {
        seen: Vec<u32>,
        epoch: u32,
    }

    enum Ev {
        Mark(u32),
        Guarded { epoch: u32, value: u32 },
        Chain,
    }

    impl EventWorld for Recorder {
        type Event = Ev;
        fn handle(&mut self, event: Ev, ctx: &mut EventContext<Ev>) {
            match event {
                Ev::Mark(v) => self.seen.push(v),
                Ev::Guarded { epoch, value } => {
                    if epoch == self.epoch {
                        self.seen.push(value);
                    }
                }
                Ev::Chain => {
                    self.seen.push(ctx.now().as_millis() as u32);
                    if self.seen.len() < 3 {
                        ctx.schedule_in(SimDuration::from_millis(10), Ev::Chain);
                    }
                }
            }
        }
    }

    fn sim() -> EventSim<Recorder> {
        EventSim::new(Recorder {
            seen: Vec::new(),
            epoch: 0,
        })
    }

    #[test]
    fn events_fire_in_time_order_then_fifo() {
        let mut s = sim();
        s.schedule_at(SimTime::from_millis(30), Ev::Mark(3));
        s.schedule_at(SimTime::from_millis(10), Ev::Mark(1));
        s.schedule_at(SimTime::from_millis(10), Ev::Mark(2));
        s.run_until_idle();
        assert_eq!(s.world().seen, vec![1, 2, 3]);
        assert_eq!(s.events_fired(), 3);
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut s = sim();
        s.schedule_at(SimTime::from_millis(5), Ev::Chain);
        s.run_until_idle();
        assert_eq!(s.world().seen, vec![5, 15, 25]);
        assert_eq!(s.now(), SimTime::from_millis(25));
    }

    #[test]
    fn epoch_guard_replaces_cancellation() {
        let mut s = sim();
        s.schedule_at(SimTime::from_millis(10), Ev::Guarded { epoch: 0, value: 7 });
        // Bump the epoch before the timer fires: the stale event is a no-op.
        s.world_mut().epoch = 1;
        s.run_until_idle();
        assert!(s.world().seen.is_empty());
    }

    #[test]
    fn run_until_semantics_match_closure_engine() {
        let mut s = sim();
        for ms in [5u64, 10, 15] {
            s.schedule_at(SimTime::from_millis(ms), Ev::Mark(ms as u32));
        }
        let fired = s.run_until(SimTime::from_millis(10));
        assert_eq!(fired, 2);
        assert_eq!(s.world().seen, vec![5, 10]);
        assert_eq!(s.now(), SimTime::from_millis(10));
        s.run_until(SimTime::from_millis(60));
        assert_eq!(s.now(), SimTime::from_millis(60));
        assert_eq!(s.world().seen, vec![5, 10, 15]);
        assert_eq!(s.pending(), 0);
    }

    #[test]
    fn past_events_clamp_to_now() {
        let mut s = sim();
        s.run_until(SimTime::from_millis(20));
        s.schedule_at(SimTime::from_millis(1), Ev::Chain);
        assert!(s.step());
        assert_eq!(s.world().seen, vec![20]);
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut s = sim();
        assert!(!s.step());
    }

    #[test]
    fn run_slice_matches_plain_step_loop() {
        let times = [5u64, 10, 15, 20, 40, 41];
        let deadline = SimTime::from_millis(20);

        // Reference: the plain driver loop.
        let mut reference = sim();
        for ms in times {
            reference.schedule_at(SimTime::from_millis(ms), Ev::Mark(ms as u32));
        }
        while reference.now() <= deadline {
            if !reference.step() {
                break;
            }
        }

        // Sliced: repeated run_slice with a tiny budget.
        let mut sliced = sim();
        for ms in times {
            sliced.schedule_at(SimTime::from_millis(ms), Ev::Mark(ms as u32));
        }
        let mut total = 0;
        loop {
            let fired = sliced.run_slice(deadline, 2);
            if fired == 0 {
                break;
            }
            total += fired;
        }

        assert_eq!(sliced.world().seen, reference.world().seen);
        assert_eq!(sliced.now(), reference.now());
        assert_eq!(total, reference.events_fired());
        // The deadline check happens before each step, so the first event
        // past the deadline fires (clock at 40), exactly like the loop.
        assert_eq!(sliced.world().seen, vec![5, 10, 15, 20, 40]);
    }
}
