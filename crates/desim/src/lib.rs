//! `desim` — a small, deterministic discrete-event simulation engine.
//!
//! This crate is the foundation of the Kafka-reliability reproduction: every
//! higher layer (the network substrate, the simulated Kafka cluster, the
//! experiment testbed) runs on top of the scheduler, clock, and random-number
//! facilities defined here.
//!
//! # Design
//!
//! * **Virtual time** is a [`SimTime`] measured in integer microseconds, so
//!   event ordering is exact and runs are bit-for-bit reproducible.
//! * **Events** are values of a world's own `enum`, fired by an
//!   [`EventSim`] through one [`EventWorld::handle`] method; ties are broken
//!   by insertion order (FIFO among simultaneous events), which keeps
//!   causality deterministic. The pending events sit in one agenda: a
//!   clock, a sequence counter and one [`minq::MinQueue`]. The closure
//!   engine ([`Simulation`], boxed `FnOnce` events) schedules through the
//!   same agenda.
//! * **Randomness** comes from [`rng::SimRng`], a seeded xoshiro256\*\*
//!   generator with the distribution set the paper needs (uniform,
//!   exponential, **Pareto** for network delay, normal, Bernoulli).
//! * **Statistics** helpers ([`stats`]) accumulate counters, running moments
//!   and time-weighted averages without storing sample vectors.
//!
//! # Example
//!
//! ```
//! use desim::{EventContext, EventSim, EventWorld, SimDuration};
//!
//! // A world holding a single counter; two chained events increment it.
//! struct Counter(u32);
//! enum Ev { Bump }
//!
//! impl EventWorld for Counter {
//!     type Event = Ev;
//!     fn handle(&mut self, _: Ev, ctx: &mut EventContext<Ev>) {
//!         self.0 += 1;
//!         if self.0 < 2 {
//!             ctx.schedule_in(SimDuration::from_millis(5), Ev::Bump);
//!         }
//!     }
//! }
//!
//! let mut sim = EventSim::new(Counter(0));
//! sim.schedule_in(SimDuration::from_millis(5), Ev::Bump);
//! sim.run_until_idle();
//! assert_eq!(sim.world().0, 2);
//! assert_eq!(sim.now().as_millis(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod agenda;
pub mod engine;
pub mod fasthash;
pub mod minq;
pub mod rng;
pub mod stats;
pub(crate) mod time;
pub(crate) mod typed;

pub use engine::{Context, Simulation};
pub use rng::SimRng;
pub use time::{SimDuration, SimTime};
pub use typed::{EventContext, EventSim, EventWorld};
