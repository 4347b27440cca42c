//! `desim`: the event queue under a hold model, and the closure engine.

use desim::minq::MinQueue;
use desim::{Context, SimDuration, SimRng, SimTime, Simulation};

use super::{best_of, Shape};
use crate::metrics::Metrics;
use crate::workloads::per_s;

/// Hold model: a queue kept at `depth` entries, each pop followed by a push
/// a random increment later. Returns operations done (a pop and a push each
/// count one).
fn hold(depth: usize, ops: u64, seed: u64) -> u64 {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut q = MinQueue::new();
    let mut seq = 0;
    for _ in 0..depth {
        q.push(SimTime::from_micros(rng.next_below(1_000_000)), seq, seq);
        seq += 1;
    }
    for _ in 0..ops / 2 {
        let (at, item) = q.pop().expect("the queue holds its depth");
        q.push(
            at + SimDuration::from_micros(1 + rng.next_below(1_000_000)),
            seq,
            item,
        );
        seq += 1;
    }
    std::hint::black_box(q.len());
    ops / 2 * 2
}

fn tick(fired: &mut u64, ctx: &mut Context<u64>) {
    *fired += 1;
    ctx.schedule_in(SimDuration::from_millis(1), tick);
}

/// A chain of self-rescheduling events through `Simulation`.
fn tick_chain(events: u64) -> u64 {
    let mut sim = Simulation::new(0u64);
    sim.schedule_at(SimTime::ZERO, tick);
    let fired = sim.run_until(SimTime::from_millis(events));
    std::hint::black_box(*sim.world());
    fired
}

/// `depth` is the queue depth the workload keeps: tens of pending events in
/// a `KafkaRun`, thousands in a fleet shard.
pub fn run(shape: &Shape, depth: usize, out: &mut Metrics) {
    let ops = (shape.messages * 40).clamp(20_000, 4_000_000);
    let (done, ns) = best_of(|| hold(depth, ops, shape.seed));
    let name = if depth > 1_000 {
        "desim.minq.deep_ops_per_s"
    } else {
        "desim.minq.ops_per_s"
    };
    out.set(name, per_s(done as f64, ns));
    let (fired, ns) = best_of(|| tick_chain(ops / 4));
    out.set("desim.engine.events_per_s", per_s(fired as f64, ns));
}
