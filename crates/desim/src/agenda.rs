//! The scheduling front-end shared by both engines: the clock, the
//! sequence counter, the fired count and one [`MinQueue`] of pending
//! events.
//!
//! # Why the order is fixed
//!
//! Keys are `(time, seq)` with `seq` drawn from one counter, so unique: a
//! strict total order. The queue pops in key order, so the agenda pops
//! exactly the sequence any correct priority queue pops, and events due at
//! the same instant fire in the order they were scheduled.

use crate::minq::MinQueue;
use crate::time::{SimDuration, SimTime};

/// Clock, counters and pending events of one engine.
pub(crate) struct Agenda<E> {
    now: SimTime,
    next_seq: u64,
    fired: u64,
    queue: MinQueue<E>,
}

impl<E> Agenda<E> {
    pub(crate) fn new() -> Self {
        Agenda {
            now: SimTime::ZERO,
            next_seq: 0,
            fired: 0,
            queue: MinQueue::new(),
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
        self.queue.len()
    }

    /// Schedules `event` at the absolute instant `at`. An instant in the
    /// past fires "now", after everything already queued for the current
    /// instant.
    pub(crate) fn schedule_at(&mut self, at: SimTime, event: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(at.max(self.now), seq, event);
    }

    /// Schedules `event` to fire `delay` after the current instant.
    pub(crate) fn schedule_in(&mut self, delay: SimDuration, event: E) {
        self.schedule_at(self.now + delay, event);
    }

    /// The timestamp of the earliest pending event, if any.
    pub(crate) fn next_deadline(&self) -> Option<SimTime> {
        self.queue.peek_key().map(|(at, _)| at)
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
        let (at, event) = self.queue.pop_at_or_before(limit)?;
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
        /// `schedule_in` one of [`CLASSES`], delay zero among them.
        Class(usize),
        /// `schedule_in` an arbitrary delay.
        Random(u64),
        /// `schedule_at` an instant this far in the past (clamped to now).
        Past(u64),
        /// `schedule_at` a point of a coarse absolute grid, whatever the
        /// clock reads: runs of equal timestamps reached by different
        /// delays, so only `seq` orders them.
        Grid(u64),
        /// Pop up to this many events.
        Pop(u64),
        /// What the engines' `run_until` does: fire everything due within
        /// this span, then jump the clock to its end.
        RunUntil(u64),
        /// Turn the clock back (see [`Twin::rewind`]).
        Rewind(u64),
    }

    /// Six constant delays, in microseconds: the periodic re-arming of a
    /// protocol run (timeouts, ticks, flush phases).
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
    /// [`MinQueue`]: the agenda's queue must not be its own oracle.
    struct Twin {
        agenda: Agenda<u64>,
        oracle: BTreeMap<(SimTime, u64), u64>,
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
            let got = self.agenda.queue.pop_at_or_before(limit);
            prop_assert_eq!(got, want);
            if let Some((at, _)) = want {
                self.now = at;
                self.agenda.fire(at);
            }
            Ok(want.is_some())
        }

        /// No public call moves the clock backwards, so with a monotone
        /// clock every key of a delay class lands behind the last one. The
        /// order must not rest on that argument, so the test breaks the
        /// premise by hand: a rewound clock schedules keys below ones
        /// already queued, and clamps `Past` ones to an earlier `now`.
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
            // A far-future one-off first: every periodic key must pop
            // before it, whatever was queued after it.
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

        /// The same with periodic traffic only, the shape of a protocol
        /// run's timers and a fleet's flush phases: every class is re-armed
        /// as it fires, while the far-future one-off stays queued.
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

    #[test]
    fn equal_instants_pop_in_sequence_order_across_heap_and_lanes() {
        let mut a = Agenda::new();
        // All due at t = 100, by five different delays: only `seq` tells
        // them apart.
        for (i, now) in [0u64, 10, 20, 30, 40].into_iter().enumerate() {
            a.advance_to(SimTime::from_micros(now));
            a.schedule_at(SimTime::from_micros(100), i as u32);
        }
        let order: Vec<u32> = std::iter::from_fn(|| a.pop()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn take_leaves_the_clock_alone_and_the_limit_is_inclusive() {
        let mut a = Agenda::new();
        a.schedule_in(SimDuration::from_micros(70), 7u32);
        assert_eq!(a.queue.pop_at_or_before(SimTime::from_micros(69)), None);
        assert_eq!(
            a.queue.pop_at_or_before(SimTime::from_micros(70)),
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
