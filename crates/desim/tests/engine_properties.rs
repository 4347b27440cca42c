//! Property tests of the simulation engines' core guarantees: time-ordered,
//! FIFO-stable, deterministic event execution. The ordering properties run
//! each schedule through both engines: the closure `Simulation` and the
//! typed `EventSim` every simulator runs on.

use desim::{EventContext, EventSim, EventWorld, SimDuration, SimTime, Simulation};
use proptest::prelude::*;

/// A typed world that records the tag of each event it fires.
struct Log(Vec<(u64, usize)>);

impl EventWorld for Log {
    type Event = (u64, usize);
    fn handle(&mut self, event: (u64, usize), _: &mut EventContext<(u64, usize)>) {
        self.0.push(event);
    }
}

/// A typed simulation with one event tagged `(t, index)` at each `t`.
fn typed(times: &[u64]) -> EventSim<Log> {
    let mut sim = EventSim::new(Log(Vec::new()));
    for (idx, &t) in times.iter().enumerate() {
        sim.schedule_at(SimTime::from_micros(t), (t, idx));
    }
    sim
}

proptest! {
    /// Events fire in non-decreasing time order, with ties broken by
    /// insertion order, for any schedule, and both engines fire the same
    /// sequence.
    #[test]
    fn events_fire_in_order(times in proptest::collection::vec(0u64..10_000, 1..100)) {
        let mut sim = Simulation::new(Vec::<(u64, usize)>::new());
        for (idx, &t) in times.iter().enumerate() {
            sim.schedule_at(
                SimTime::from_micros(t),
                move |w: &mut Vec<(u64, usize)>, _| w.push((t, idx)),
            );
        }
        sim.run_until_idle();
        let fired = sim.world();
        prop_assert_eq!(fired.len(), times.len());
        for pair in fired.windows(2) {
            prop_assert!(
                pair[0].0 < pair[1].0 || (pair[0].0 == pair[1].0 && pair[0].1 < pair[1].1),
                "order violated: {:?} then {:?}", pair[0], pair[1]
            );
        }
        let mut typed = typed(&times);
        typed.run_until_idle();
        prop_assert_eq!(&typed.world().0, fired);
    }

    /// `run_until(d)` fires exactly the events stamped ≤ d and leaves the
    /// clock at d, on both engines.
    #[test]
    fn run_until_is_a_clean_cut(
        times in proptest::collection::vec(0u64..10_000, 1..60),
        cut in 0u64..10_000,
    ) {
        let mut sim = Simulation::new(0usize);
        for &t in &times {
            sim.schedule_at(SimTime::from_micros(t), |w: &mut usize, _| *w += 1);
        }
        sim.run_until(SimTime::from_micros(cut));
        let expected = times.iter().filter(|&&t| t <= cut).count();
        prop_assert_eq!(*sim.world(), expected);
        prop_assert_eq!(sim.now(), SimTime::from_micros(cut));
        sim.run_until_idle();
        prop_assert_eq!(*sim.world(), times.len());
        let mut typed = typed(&times);
        typed.run_until(SimTime::from_micros(cut));
        prop_assert_eq!(typed.world().0.len(), expected);
        prop_assert_eq!(typed.now(), SimTime::from_micros(cut));
        typed.run_until_idle();
        prop_assert_eq!(typed.world().0.len(), times.len());
    }

    /// The duration arithmetic respects the triangle-style identities used
    /// throughout the simulators.
    #[test]
    fn duration_arithmetic_identities(a in 0u64..1_000_000, b in 0u64..1_000_000) {
        let da = SimDuration::from_micros(a);
        let db = SimDuration::from_micros(b);
        prop_assert_eq!(da + db, db + da);
        prop_assert_eq!((da + db).saturating_sub(db), da);
        let t = SimTime::from_micros(a) + db;
        prop_assert_eq!(t.saturating_since(SimTime::from_micros(a)), db);
    }
}
