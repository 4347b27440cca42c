//! The scheduling front-end shared by both engines: clock, sequence
//! counter, fired count, and the pending events behind **delay-class FIFO
//! lanes** in front of a [`MinQueue`] (the "heap" below: the general
//! structure, itself a short sorted run with std's binary heap behind it).
//!
//! Many events of a simulation are periodic: a request's timeout is armed
//! exactly one request-timeout ahead, housekeeping and the replication or
//! controller tick one period ahead, a fleet flush phase one flush interval
//! ahead. Instants that
//! lie a *constant* delay after a clock that never runs backwards are
//! already sorted, so a FIFO holds them in key order and neither end ever
//! sifts. The agenda keeps [`LANES`] such FIFOs. Each lane owns one delay;
//! [`Agenda::schedule_at`] appends to the lane owning `at - now` when the
//! new key is not below the lane's back, lets an unowned delay claim an
//! empty lane, and otherwise falls through to the heap, which remains the
//! one general structure. Removal takes the least of the heap top and the
//! lane fronts.
//!
//! # Why this changes no result
//!
//! Keys are `(time, seq)` with `seq` unique, a strict total order. Every
//! lane is sorted (the append check keeps it so; it is checked on every
//! append, never inferred from the delay), the heap is sorted, and removal
//! takes the minimum over all of them, so the agenda pops exactly the
//! sequence any correct priority queue pops. Which events sit in a lane and
//! which in the heap is invisible to the model.
//!
//! # Cost on shallow queues
//!
//! A per-message run keeps tens of events pending, most a variable delay
//! ahead; there the lanes must cost next to nothing. The delay, front key
//! and back key of every lane are cached in three small inline arrays, so a
//! schedule that matches no lane and a pop that the heap wins read those
//! arrays and never touch a `VecDeque`.

use std::collections::VecDeque;

use crate::minq::MinQueue;
use crate::time::{SimDuration, SimTime};

/// Lanes per agenda. Four is the number of periodic kinds a protocol run can
/// have armed at once (request timeout, housekeeping, the replication or
/// controller tick, the online controller's tick), and the walk over four
/// cached keys is below the noise of the per-message workloads (DESIGN §7a).
/// There the lanes take about as much traffic as the heap, in short runs
/// that drain and are claimed again: a count over the benchmark's
/// `sim-steady` read 1.25 M lane appends and 1.04 M lane claims against
/// 2.74 M heap pushes at a mean heap depth of 3.3, and over `sim-lossy`
/// 0.79 M, 1.18 M and 1.72 M at a depth of 2.5. A fleet run keeps at most
/// eight flush phases, a consume tick and a window close pending.
const LANES: usize = 4;

type Key = (SimTime, u64);

/// Front of an empty lane: above every real key (`seq` never reaches
/// `u64::MAX`), so an empty lane never wins a pop.
const NO_FRONT: Key = (SimTime::MAX, u64::MAX);

/// Back of an empty lane: below every real key, so the first append passes.
const NO_BACK: Key = (SimTime::ZERO, 0);

/// Clock, counters and pending events of one engine.
pub(crate) struct Agenda<E> {
    now: SimTime,
    next_seq: u64,
    fired: u64,
    heap: MinQueue<E>,
    /// Least key in `heap`, [`NO_FRONT`] when empty: cached like a lane's
    /// front, so finding the least event reads five keys and never the
    /// queue.
    heap_front: Key,
    /// The delay each lane owns. Only meaningful together with the lane's
    /// content: an empty lane keeps its last delay until another claims it.
    lane_delay: [SimDuration; LANES],
    /// Least key of each lane, [`NO_FRONT`] when empty.
    lane_front: [Key; LANES],
    /// Greatest key of each lane, [`NO_BACK`] when empty.
    lane_back: [Key; LANES],
    lanes: [VecDeque<(SimTime, u64, E)>; LANES],
}

impl<E> Agenda<E> {
    pub(crate) fn new() -> Self {
        Agenda {
            now: SimTime::ZERO,
            next_seq: 0,
            fired: 0,
            heap: MinQueue::new(),
            heap_front: NO_FRONT,
            lane_delay: [SimDuration::ZERO; LANES],
            lane_front: [NO_FRONT; LANES],
            lane_back: [NO_BACK; LANES],
            lanes: core::array::from_fn(|_| VecDeque::new()),
        }
    }

    /// The current virtual time.
    pub(crate) fn now(&self) -> SimTime {
        self.now
    }

    /// Events fired so far.
    pub(crate) fn fired(&self) -> u64 {
        self.fired
    }

    /// Events still pending.
    pub(crate) fn len(&self) -> usize {
        self.heap.len() + self.lanes.iter().map(VecDeque::len).sum::<usize>()
    }

    /// Schedules `event` at the absolute instant `at`. An instant in the
    /// past fires "now", after everything already queued for the current
    /// instant.
    pub(crate) fn schedule_at(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        let delay = at - self.now;
        let key = (at, seq);
        let mut empty = None;
        for lane in 0..LANES {
            if self.lane_delay[lane] == delay {
                if key >= self.lane_back[lane] {
                    self.append(lane, key, event);
                } else {
                    self.push_heap(key, event);
                }
                return;
            }
            if empty.is_none() && self.lane_front[lane] == NO_FRONT {
                empty = Some(lane);
            }
        }
        match empty {
            Some(lane) => {
                self.lane_delay[lane] = delay;
                self.append(lane, key, event);
            }
            None => self.push_heap(key, event),
        }
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub(crate) fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    fn push_heap(&mut self, key: Key, event: E) {
        self.heap_front = self.heap_front.min(key);
        self.heap.push(key.0, key.1, event);
    }

    fn append(&mut self, lane: usize, key: Key, event: E) {
        if self.lane_front[lane] == NO_FRONT {
            self.lane_front[lane] = key;
        }
        self.lane_back[lane] = key;
        self.lanes[lane].push_back((key.0, key.1, event));
    }

    /// The lane holding the least key, or `LANES` when the heap top is the
    /// least (or everything is empty), together with that key.
    fn least(&self) -> (usize, Key) {
        let mut best = self.heap_front;
        let mut source = LANES;
        for lane in 0..LANES {
            if self.lane_front[lane] < best {
                best = self.lane_front[lane];
                source = lane;
            }
        }
        (source, best)
    }

    /// The timestamp of the earliest pending event, if any.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        let (_, key) = self.least();
        (key != NO_FRONT).then_some(key.0)
    }

    /// Removes the earliest pending event if it is due at or before
    /// `limit`. The clock does not move until [`Agenda::fire`].
    fn take_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        let (source, key) = self.least();
        if key == NO_FRONT || key.0 > limit {
            return None;
        }
        if source == LANES {
            let popped = self.heap.pop();
            self.heap_front = self.heap.peek_key().unwrap_or(NO_FRONT);
            return popped;
        }
        let lane = &mut self.lanes[source];
        let (at, _, event) = lane.pop_front().expect("cached front of a lane");
        match lane.front() {
            Some(&(at, seq, _)) => self.lane_front[source] = (at, seq),
            None => {
                self.lane_front[source] = NO_FRONT;
                self.lane_back[source] = NO_BACK;
            }
        }
        Some((at, event))
    }

    /// Advances the clock to a removed event's instant and counts it fired.
    fn fire(&mut self, at: SimTime) {
        debug_assert!(at >= self.now, "time must be monotone");
        self.now = at;
        self.fired += 1;
    }

    /// Removes and fires the earliest pending event due at or before
    /// `limit`.
    pub(crate) fn pop_at_or_before(&mut self, limit: SimTime) -> Option<E> {
        let (at, event) = self.take_at_or_before(limit)?;
        self.fire(at);
        Some(event)
    }

    /// Removes and fires the earliest pending event.
    pub(crate) fn pop(&mut self) -> Option<E> {
        self.pop_at_or_before(SimTime::MAX)
    }

    /// Moves the clock forward to `t`; never backwards.
    pub(crate) fn advance_to(&mut self, t: SimTime) {
        self.now = self.now.max(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// One step of a random scheduling program.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// `schedule_in` one of [`CLASSES`]: more classes than lanes, with
        /// delay zero among them.
        Class(usize),
        /// `schedule_in` an arbitrary delay.
        Random(u64),
        /// `schedule_at` an instant this far in the past (clamped to now).
        Past(u64),
        /// `schedule_at` a point of a coarse absolute grid, whatever the
        /// clock reads: runs of equal timestamps reached by different
        /// delays, so heap and lanes tie on time and only `seq` orders them.
        Grid(u64),
        /// Pop up to this many events.
        Pop(u64),
        /// What the engines' `run_until` does: fire everything due within
        /// this span, then jump the clock to its end.
        RunUntil(u64),
        /// Turn the clock back (see [`Twin::rewind`]).
        Rewind(u64),
    }

    /// Six constant delays for four lanes, in microseconds.
    const CLASSES: [u64; 6] = [0, 1, 700, 25_000, 200_000, 1_000_000];

    fn op() -> impl Strategy<Value = Op> {
        (0u8..20, 0u64..400_000).prop_map(|(kind, arg)| match kind {
            0..=7 => Op::Class(arg as usize % CLASSES.len()),
            8..=9 => Op::Random(arg),
            10 => Op::Past(arg),
            11..=12 => Op::Grid(arg % 6),
            13..=16 => Op::Pop(1 + arg % 7),
            17..=18 => Op::RunUntil(arg),
            _ => Op::Rewind(arg),
        })
    }

    /// An [`Agenda`] and the reference it must equal: a `BTreeMap` fed the
    /// same `(at, seq)` keys, with its own clock and counter. Not a
    /// [`MinQueue`]: the agenda's fallback must not be its own oracle.
    struct Twin {
        agenda: Agenda<u64>,
        oracle: BTreeMap<Key, u64>,
        now: SimTime,
        next_seq: u64,
    }

    impl Twin {
        fn new() -> Self {
            Twin {
                agenda: Agenda::new(),
                oracle: BTreeMap::new(),
                now: SimTime::ZERO,
                next_seq: 0,
            }
        }

        /// Schedules at `at` on both sides; the payload is the key's `seq`,
        /// so equal payloads mean equal `seq`.
        fn schedule_at(&mut self, at: SimTime) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.oracle.insert((at.max(self.now), seq), seq);
            self.agenda.schedule_at(at, seq);
        }

        /// Pops both sides if the next event is due by `limit`; `Ok(false)`
        /// when neither had one.
        fn pop(&mut self, limit: SimTime) -> Result<bool, TestCaseError> {
            let want = match self.oracle.first_key_value() {
                Some((&key, &seq)) if key.0 <= limit => {
                    self.oracle.remove(&key);
                    Some((key.0, seq))
                }
                _ => None,
            };
            let got = self.agenda.take_at_or_before(limit);
            prop_assert_eq!(got, want);
            if let Some((at, _)) = want {
                self.now = at;
                self.agenda.fire(at);
            }
            Ok(want.is_some())
        }

        /// No public call moves the clock backwards, and with a monotone
        /// clock a delay class can never undercut its own lane. The lane's
        /// back check must hold the order *without* that argument, so the
        /// test breaks the premise by hand.
        fn rewind(&mut self, by: SimDuration) {
            self.now = self.now - by;
            self.agenda.now = self.now;
        }

        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.agenda.len(), self.oracle.len());
            prop_assert_eq!(self.agenda.now(), self.now);
            prop_assert_eq!(
                self.agenda.next_deadline(),
                self.oracle.keys().next().map(|&(at, _)| at)
            );
            Ok(())
        }

        fn run(&mut self, program: &[Op]) -> Result<(), TestCaseError> {
            // A far-future one-off first: the event that parks at the back
            // of a greedy lane and blocks every periodic one behind it.
            self.schedule_at(SimTime::from_secs(3_600));
            for &op in program {
                match op {
                    Op::Class(c) => {
                        self.schedule_at(self.now + SimDuration::from_micros(CLASSES[c]))
                    }
                    Op::Random(d) => self.schedule_at(self.now + SimDuration::from_micros(d)),
                    Op::Past(d) => self.schedule_at(self.now - SimDuration::from_micros(d)),
                    Op::Grid(k) => self.schedule_at(SimTime::from_micros(k * 250_000)),
                    Op::Pop(n) => {
                        for _ in 0..n {
                            if !self.pop(SimTime::MAX)? {
                                break;
                            }
                            self.check()?;
                        }
                    }
                    Op::RunUntil(span) => {
                        let deadline = self.now + SimDuration::from_micros(span);
                        while self.pop(deadline)? {}
                        self.now = self.now.max(deadline);
                        self.agenda.advance_to(deadline);
                    }
                    Op::Rewind(by) => self.rewind(SimDuration::from_micros(by)),
                }
                self.check()?;
            }
            while self.pop(SimTime::MAX)? {
                self.check()?;
            }
            prop_assert_eq!(self.agenda.fired(), self.next_seq);
            Ok(())
        }
    }

    proptest! {
        /// The agenda is a priority queue: under any program it pops the
        /// `(time, seq, payload)` sequence of a `BTreeMap` fed the same
        /// keys, and agrees with it on `len` and the next deadline after
        /// every step.
        #[test]
        fn agenda_pops_what_a_bare_heap_pops(program in proptest::collection::vec(op(), 1..400)) {
            Twin::new().run(&program)?;
        }

        /// The same with periodic traffic only, the shape the lanes exist
        /// for: every class is re-armed as it fires, so lanes fill, drain
        /// and change owner while the one-off sits in the heap.
        #[test]
        fn periodic_programs_pop_in_heap_order(
            phases in proptest::collection::vec((0usize..6, 0u64..300_000), 1..40),
            rounds in 1usize..400,
        ) {
            let mut twin = Twin::new();
            twin.schedule_at(SimTime::from_secs(3_600));
            for &(_, phase) in &phases {
                twin.schedule_at(SimTime::from_micros(phase));
            }
            for _ in 0..rounds {
                // The payload is the event's `seq`; it picks the class the
                // event re-arms with.
                let Some(&seq) = twin.oracle.values().next() else {
                    break;
                };
                prop_assert!(twin.pop(SimTime::MAX)?);
                twin.check()?;
                if seq != 0 {
                    let class = phases[seq as usize % phases.len()].0;
                    twin.schedule_at(twin.now + SimDuration::from_micros(CLASSES[class]));
                }
            }
            while twin.pop(SimTime::MAX)? {}
            twin.check()?;
        }
    }

    fn micros(us: u64) -> SimDuration {
        SimDuration::from_micros(us)
    }

    /// Lane index owning `delay` with something in it, if any.
    fn lane_of(agenda: &Agenda<u32>, delay: SimDuration) -> Option<usize> {
        (0..LANES).find(|&l| agenda.lane_delay[l] == delay && !agenda.lanes[l].is_empty())
    }

    #[test]
    fn constant_delays_ride_lanes_and_the_rest_falls_to_the_heap() {
        let mut a = Agenda::new();
        for (i, d) in [10, 20, 30, 40, 50, 60].into_iter().enumerate() {
            a.schedule_in(micros(d), i as u32);
        }
        // Four classes claimed the four lanes; the fifth and sixth found
        // none empty.
        assert_eq!(a.heap.len(), 2);
        for d in [10, 20, 30, 40] {
            assert!(lane_of(&a, micros(d)).is_some(), "delay {d}");
        }
        a.schedule_in(micros(20), 6);
        assert_eq!(a.lanes[lane_of(&a, micros(20)).unwrap()].len(), 2);
        let order: Vec<u32> = std::iter::from_fn(|| a.pop()).collect();
        assert_eq!(order, vec![0, 1, 6, 2, 3, 4, 5]);
        assert_eq!(a.fired(), 7);
        assert_eq!(a.now(), SimTime::from_micros(60));
    }

    #[test]
    fn a_drained_lane_is_claimed_by_the_next_class() {
        // The fleet's seeding in miniature: eight start-up phases take the
        // lanes first, and the steady 200 ms class must take one over as
        // soon as it drains, not stay in the heap for the whole run.
        let mut a = Agenda::new();
        for phase in 1..=8u64 {
            a.schedule_in(micros(25_000 * phase), phase as u32);
        }
        assert_eq!(a.heap.len(), 4);
        assert_eq!(a.pop(), Some(1)); // t = 25 ms; its lane is now empty
        a.schedule_in(micros(200_000), 9);
        assert!(lane_of(&a, micros(200_000)).is_some());
        assert_eq!(a.heap.len(), 4);
        // From here on every re-armed flush appends behind the last.
        assert_eq!(a.pop(), Some(2));
        a.schedule_in(micros(200_000), 10);
        assert_eq!(a.lanes[lane_of(&a, micros(200_000)).unwrap()].len(), 2);
        assert_eq!(a.heap.len(), 4);
    }

    #[test]
    fn a_key_below_the_back_of_its_lane_goes_to_the_heap() {
        let mut a = Agenda::new();
        a.advance_to(SimTime::from_micros(1_000));
        a.schedule_in(micros(500), 0); // lane: 1500
        a.now = SimTime::from_micros(400); // a clock no engine can produce
        a.schedule_in(micros(500), 1); // same class, 900 < 1500
        assert_eq!(a.heap.len(), 1, "the lane must refuse it");
        assert_eq!(a.next_deadline(), Some(SimTime::from_micros(900)));
        assert_eq!(a.pop(), Some(1));
        assert_eq!(a.pop(), Some(0));
    }

    #[test]
    fn equal_instants_pop_in_sequence_order_across_heap_and_lanes() {
        let mut a = Agenda::new();
        // All due at t = 100, by five different delays: four lanes and the
        // heap each hold one, and only `seq` tells them apart.
        for (i, now) in [0u64, 10, 20, 30, 40].into_iter().enumerate() {
            a.advance_to(SimTime::from_micros(now));
            a.schedule_at(SimTime::from_micros(100), i as u32);
        }
        // Heap entry first in seq order would be wrong: it was pushed last.
        assert_eq!(a.heap.len(), 1);
        let order: Vec<u32> = std::iter::from_fn(|| a.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn take_leaves_the_clock_alone_and_the_limit_is_inclusive() {
        let mut a = Agenda::new();
        a.schedule_in(micros(70), 7u32);
        assert_eq!(a.take_at_or_before(SimTime::from_micros(69)), None);
        assert_eq!(
            a.take_at_or_before(SimTime::from_micros(70)),
            Some((SimTime::from_micros(70), 7))
        );
        assert_eq!((a.now(), a.fired(), a.len()), (SimTime::ZERO, 0, 0));
        assert_eq!(a.next_deadline(), None);
    }

    #[test]
    fn an_event_at_the_end_of_time_is_not_mistaken_for_an_empty_lane() {
        let mut a = Agenda::new();
        a.schedule_at(SimTime::MAX, 1u32);
        assert_eq!(a.next_deadline(), Some(SimTime::MAX));
        assert_eq!(a.pop(), Some(1));
        assert_eq!(a.pop(), None);
    }
}
