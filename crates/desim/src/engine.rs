//! The closure engine: a virtual clock plus an agenda of boxed closures.
//!
//! A [`Simulation`] owns a user-supplied *world* (any type `W`) and a queue
//! of events. Each event is a boxed `FnOnce(&mut W, &mut Context<W>)`; firing
//! an event may mutate the world and schedule further events through the
//! [`Context`]. Events at equal timestamps fire in insertion order, making
//! every run deterministic.
//!
//! Every simulator in the workspace runs on the typed engine
//! ([`crate::EventSim`]), which stores events by value; this one boxes each
//! event and is kept for the benchmark's engine driver. The pending events
//! sit in the crate's agenda, the one [`crate::minq::MinQueue`] path the
//! typed engine takes too. Like it, there is no cancellation: a model
//! retires a stale timer with an epoch or flag in its world.

use crate::agenda::Agenda;
use crate::time::{SimDuration, SimTime};

type Action<W> = Box<dyn FnOnce(&mut W, &mut Context<W>)>;

/// Scheduling handle passed to every firing event.
///
/// Allows an event to read the clock and schedule follow-up events without
/// owning the world borrow.
pub struct Context<W> {
    agenda: Agenda<Action<W>>,
}

impl<W> core::fmt::Debug for Context<W> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Context")
            .field("now", &self.now())
            .field("pending", &self.pending())
            .field("fired", &self.events_fired())
            .finish()
    }
}

impl<W> Context<W> {
    fn new() -> Self {
        Context {
            agenda: Agenda::new(),
        }
    }

    /// The current virtual time.
    #[must_use]
    pub(crate) fn now(&self) -> SimTime {
        self.agenda.now()
    }

    /// Schedules `action` to fire at the absolute instant `at`.
    ///
    /// Events scheduled in the past fire "now" (at the current clock value),
    /// after all events already queued for the current instant.
    pub(crate) fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.agenda.schedule_at(at, Box::new(action));
    }

    /// Schedules `action` to fire `delay` after the current instant.
    pub fn schedule_in<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.agenda.schedule_in(delay, Box::new(action));
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
}

/// A discrete-event simulation: a world `W` plus the scheduler driving it.
///
/// # Example
///
/// ```
/// use desim::{Simulation, SimDuration, SimTime};
///
/// struct World { ticks: u32 }
///
/// let mut sim = Simulation::new(World { ticks: 0 });
/// fn tick(w: &mut World, ctx: &mut desim::Context<World>) {
///     w.ticks += 1;
///     if w.ticks < 5 {
///         ctx.schedule_in(SimDuration::from_millis(10), tick);
///     }
/// }
/// sim.schedule_at(SimTime::ZERO, tick);
/// sim.run_until_idle();
/// assert_eq!(sim.world().ticks, 5);
/// assert_eq!(sim.now(), SimTime::from_millis(40));
/// ```
pub struct Simulation<W> {
    world: W,
    ctx: Context<W>,
}

impl<W: core::fmt::Debug> core::fmt::Debug for Simulation<W> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Simulation")
            .field("world", &self.world)
            .field("ctx", &self.ctx)
            .finish()
    }
}

impl<W> Simulation<W> {
    /// Creates a simulation over `world` with the clock at zero.
    #[must_use]
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            ctx: Context::new(),
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

    /// Schedules an event at an absolute instant. See `Context::schedule_at`.
    pub fn schedule_at<F>(&mut self, at: SimTime, action: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.ctx.schedule_at(at, action);
    }

    /// Schedules an event after a delay. See [`Context::schedule_in`].
    #[cfg(test)]
    pub(crate) fn schedule_in<F>(&mut self, delay: SimDuration, action: F)
    where
        F: FnOnce(&mut W, &mut Context<W>) + 'static,
    {
        self.ctx.schedule_in(delay, action);
    }

    /// Fires the next pending event, advancing the clock to its timestamp.
    ///
    /// Returns `false` when the queue is empty (the clock does not move).
    pub(crate) fn step(&mut self) -> bool {
        let Some(action) = self.ctx.agenda.pop() else {
            return false;
        };
        action(&mut self.world, &mut self.ctx);
        true
    }

    /// Runs until no events remain.
    ///
    /// Returns the number of events fired. Beware of event chains that
    /// reschedule themselves forever; prefer [`Simulation::run_until`] when
    /// the model has recurring timers.
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
        while let Some(action) = self.ctx.agenda.pop_at_or_before(deadline) {
            action(&mut self.world, &mut self.ctx);
        }
        self.ctx.agenda.advance_to(deadline);
        self.events_fired() - before
    }

    /// Total events fired since construction.
    #[must_use]
    pub(crate) fn events_fired(&self) -> u64 {
        self.ctx.events_fired()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        sim.schedule_at(SimTime::from_millis(30), |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(SimTime::from_millis(10), |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(SimTime::from_millis(20), |w: &mut Vec<u32>, _| w.push(2));
        sim.run_until_idle();
        assert_eq!(sim.world(), &[1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.schedule_at(SimTime::from_millis(5), move |w: &mut Vec<u32>, _| {
                w.push(i)
            });
        }
        sim.run_until_idle();
        assert_eq!(sim.world(), &(0..10).collect::<Vec<_>>());
    }

    #[test]
    fn nested_scheduling_advances_clock() {
        let mut sim = Simulation::new(0u64);
        sim.schedule_in(SimDuration::from_secs(1), |_, ctx| {
            ctx.schedule_in(SimDuration::from_secs(2), |w: &mut u64, ctx| {
                *w = ctx.now().as_micros();
            });
        });
        sim.run_until_idle();
        assert_eq!(*sim.world(), SimTime::from_secs(3).as_micros());
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulation::new(Vec::<u64>::new());
        for ms in [5u64, 10, 15, 20] {
            sim.schedule_at(SimTime::from_millis(ms), move |w: &mut Vec<u64>, _| {
                w.push(ms)
            });
        }
        let fired = sim.run_until(SimTime::from_millis(12));
        assert_eq!(fired, 2);
        assert_eq!(sim.world(), &[5, 10]);
        assert_eq!(sim.now(), SimTime::from_millis(12));
        sim.run_until_idle();
        assert_eq!(sim.world(), &[5, 10, 15, 20]);
    }

    #[test]
    fn run_until_fires_events_at_deadline() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_millis(7), |w: &mut u32, _| *w += 1);
        sim.run_until(SimTime::from_millis(7));
        assert_eq!(*sim.world(), 1);
    }

    #[test]
    fn past_events_fire_now() {
        let mut sim = Simulation::new(0u32);
        sim.schedule_at(SimTime::from_millis(10), |_, ctx| {
            // Scheduling in the past clamps to "now".
            ctx.schedule_at(SimTime::from_millis(1), |w: &mut u32, ctx| {
                *w = ctx.now().as_millis() as u32;
            });
        });
        sim.run_until_idle();
        assert_eq!(*sim.world(), 10);
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut sim = Simulation::new(());
        assert!(!sim.step());
        sim.schedule_in(SimDuration::ZERO, |_, _| {});
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Simulation::new(());
        sim.run_until(SimTime::from_secs(9));
        assert_eq!(sim.now(), SimTime::from_secs(9));
    }

    #[test]
    fn events_fired_counts() {
        let mut sim = Simulation::new(());
        for _ in 0..5 {
            sim.schedule_in(SimDuration::from_millis(1), |_, _| {});
        }
        sim.run_until_idle();
        assert_eq!(sim.events_fired(), 5);
    }
}
