//! Layer drivers: seeded micro-loops that call one layer's public API with
//! the shape (message size, loss, delay, batch) of the workload being traced.
//!
//! A driver gives a layer a rate of its own where the program has no span
//! inside it: `netsim`'s time is hidden in `kafkasim`'s request-pump and
//! dispatch self time, `desim`'s in every handler. Rates are the best of
//! [`REPS`] back-to-back repeats; they have no bound and gate nothing.

pub mod annet;
pub mod desim;
pub mod kafkasim;
pub mod netsim;
pub mod obs;
pub mod planner;

use ::desim::SimDuration;

use crate::workloads::timed;

/// The shape of the traced workload, as far as a layer driver needs it.
#[derive(Debug, Clone)]
pub struct Shape {
    pub seed: u64,
    pub message_size: u64,
    pub batch: usize,
    pub loss_rate: f64,
    pub delay: SimDuration,
    /// Messages per run of the workload; drivers size their loops from it.
    pub messages: u64,
}

const REPS: usize = 3;

/// Nanoseconds of the fastest of [`REPS`] runs of `f`, with its result.
pub fn best_of<R>(mut f: impl FnMut() -> R) -> (R, u64) {
    let (mut out, mut best) = timed(&mut f);
    for _ in 1..REPS {
        let (next, ns) = timed(&mut f);
        if ns < best {
            best = ns;
        }
        out = next;
    }
    (out, best)
}
