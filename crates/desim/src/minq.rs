//! The min-queue that holds every engine's pending events (through the
//! agenda) and every TCP channel's packets in flight.
//!
//! Keys are `(timestamp, sequence)`. Sequence numbers are unique and
//! monotone, so keys are totally ordered and equal-time events pop in
//! insertion order — the determinism contract of the engines.
//!
//! A per-message run keeps 0–14 entries in each of these queues, rarely
//! more, and a new key is usually the next or nearly the next to pop. So
//! the queue is two structures behind one API:
//!
//! * **the run**, a short `Vec` sorted by *descending* key: the minimum is
//!   its last entry, so `pop` and `peek` read the end, and `push` scans
//!   from the end and inserts, moving only the entries above the new key;
//! * **the heap**, std's [`BinaryHeap`], for the entries the run cannot
//!   place: past 16 entries (`RUN_MAX`) the run hands its largest to it.
//!
//! Removal takes the lesser of the run's end and the heap's top. Both are
//! sorted, so the queue pops exactly the sequence any correct priority
//! queue pops; which entry sits where is invisible to the caller.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Entries the run holds before it hands its largest to the heap. A
/// per-message queue seldom reaches it (under heavy loss one push in
/// 15 000 does), so there the heap is all but idle; on a deep queue it
/// keeps a push's walk and shift short, and most keys go straight to the
/// heap after two compares.
const RUN_MAX: usize = 16;

/// A queued entry, ordered by its key alone.
struct Entry<T> {
    at: SimTime,
    seq: u64,
    item: T,
}

impl<T> Entry<T> {
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
}

impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl<T> Eq for Entry<T> {}

impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A min-queue of `(SimTime, u64)`-keyed payloads: a short sorted run in
/// front of a binary heap (see the [module documentation](self)).
pub struct MinQueue<T> {
    /// Sorted by descending key; the least entry is the last.
    run: Vec<Entry<T>>,
    /// What the full run could not place, least key on top.
    heap: BinaryHeap<Reverse<Entry<T>>>,
}

impl<T> Default for MinQueue<T> {
    fn default() -> Self {
        MinQueue::new()
    }
}

impl<T> MinQueue<T> {
    /// An empty queue.
    #[must_use]
    pub fn new() -> Self {
        MinQueue {
            run: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.run.len() + self.heap.len()
    }

    /// `true` when no entries are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.heap.is_empty()
    }

    /// Pushes an entry. `seq` must be unique across live entries.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        if self.run.len() == RUN_MAX {
            self.push_past_the_bound(at, seq, item);
        } else {
            self.insert(at, seq, item);
        }
    }

    /// Places an entry in the run: walks in from the end past every
    /// greater key and inserts there.
    fn insert(&mut self, at: SimTime, seq: u64, item: T) {
        let key = (at, seq);
        let mut i = self.run.len();
        while i > 0 && self.run[i - 1].key() < key {
            i -= 1;
        }
        self.run.insert(i, Entry { at, seq, item });
    }

    /// A push into a full run: the largest of the run and the new entry
    /// goes to the heap, and so does an entry above the heap's top, which
    /// cannot pop before it anyway. Off the path of shallow traffic.
    #[cold]
    fn push_past_the_bound(&mut self, at: SimTime, seq: u64, item: T) {
        let key = (at, seq);
        if self.run[0].key() < key || self.heap.peek().is_some_and(|top| top.0.key() < key) {
            self.heap.push(Reverse(Entry { at, seq, item }));
        } else {
            self.insert(at, seq, item);
            let largest = self.run.remove(0);
            self.heap.push(Reverse(largest));
        }
    }

    /// The least key, and `true` when the run holds it (`false`: the heap).
    fn least(&self) -> Option<((SimTime, u64), bool)> {
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) if h.0.key() < r.key() => Some((h.0.key(), false)),
            (Some(r), _) => Some((r.key(), true)),
            (None, Some(h)) => Some((h.0.key(), false)),
            (None, None) => None,
        }
    }

    /// The minimum key and a reference to its payload, if any.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        let ((at, _), in_run) = self.least()?;
        let e = if in_run {
            self.run.last().expect("least is in the run")
        } else {
            &self.heap.peek().expect("least is in the heap").0
        };
        Some((at, &e.item))
    }

    /// The minimum `(timestamp, sequence)` key, if any.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.least().map(|(key, _)| key)
    }

    /// Removes and returns the minimum entry if its timestamp is at or
    /// before `limit`: one look at the top where `peek` then `pop` takes two.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        let ((at, _), in_run) = self.least()?;
        if at > limit {
            return None;
        }
        Some(self.take(in_run))
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let (_, in_run) = self.least()?;
        Some(self.take(in_run))
    }

    /// Removes the run's last entry or the heap's top, as [`Self::least`]
    /// chose. Two returns, not one `if` expression over both sources: that
    /// form read 13.6 % fewer msgs/s on the benchmark's `sim-lossy`
    /// (PERFORMANCE.md, "desim's queue").
    fn take(&mut self, in_run: bool) -> (SimTime, T) {
        if in_run {
            let e = self.run.pop().expect("least is in the run");
            return (e.at, e.item);
        }
        let Reverse(e) = self.heap.pop().expect("least is in the heap");
        (e.at, e.item)
    }

    /// Empties the queue, yielding the payloads in unspecified (but
    /// deterministic) order: the run's, then the heap's. For callers that
    /// need to flush every pending entry without caring about key order.
    pub fn drain_unordered(&mut self) -> impl Iterator<Item = T> + '_ {
        self.run
            .drain(..)
            .chain(self.heap.drain().map(|Reverse(e)| e))
            .map(|e| e.item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn pops_in_key_order() {
        let mut q = MinQueue::new();
        q.push(SimTime::from_millis(30), 0, 'c');
        q.push(SimTime::from_millis(10), 1, 'a');
        q.push(SimTime::from_millis(20), 2, 'b');
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec!['a', 'b', 'c']);
    }

    #[test]
    fn equal_times_pop_in_sequence_order() {
        let mut q = MinQueue::new();
        for seq in 0..100u64 {
            q.push(SimTime::from_millis(5), seq, seq);
        }
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = MinQueue::new();
        let mut seq = 0u64;
        let mut push = |q: &mut MinQueue<u64>, ms: u64| {
            q.push(SimTime::from_millis(ms), seq, ms);
            seq += 1;
        };
        for ms in [50u64, 10, 40, 20, 30] {
            push(&mut q, ms);
        }
        assert_eq!(q.pop().map(|(_, v)| v), Some(10));
        for ms in [5u64, 25, 45] {
            push(&mut q, ms);
        }
        let rest: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(rest, vec![5, 20, 25, 30, 40, 45, 50]);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = MinQueue::new();
        q.push(SimTime::from_millis(7), 0, "x");
        q.push(SimTime::from_millis(3), 1, "y");
        assert_eq!(q.peek(), Some((SimTime::from_millis(3), &"y")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(3), "y")));
    }

    #[test]
    fn pop_at_or_before_stops_at_the_limit() {
        let mut q = MinQueue::new();
        q.push(SimTime::from_millis(7), 0, "x");
        q.push(SimTime::from_millis(3), 1, "y");
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(2)), None);
        assert_eq!(
            q.pop_at_or_before(SimTime::from_millis(3)),
            Some((SimTime::from_millis(3), "y"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::from_millis(6)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX),
            Some((SimTime::from_millis(7), "x"))
        );
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }

    #[test]
    fn drain_unordered_empties_the_queue() {
        let mut q = MinQueue::new();
        // Past the run bound, so both halves hold something.
        for seq in 0..40u64 {
            q.push(SimTime::from_millis(40 - seq), seq, seq);
        }
        assert!(!q.run.is_empty() && !q.heap.is_empty());
        let mut drained: Vec<u64> = q.drain_unordered().collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..40).collect::<Vec<_>>());
        assert!(q.is_empty());
        q.push(SimTime::from_millis(1), 40, 40);
        assert_eq!(q.pop(), Some((SimTime::from_millis(1), 40)));
    }

    #[test]
    fn a_full_run_hands_its_largest_to_the_heap() {
        let mut q = MinQueue::new();
        for seq in 0..RUN_MAX as u64 {
            q.push(SimTime::from_millis(10 + seq), seq, seq);
        }
        assert_eq!((q.run.len(), q.heap.len()), (RUN_MAX, 0));
        // Below the run's largest: it goes in, the largest goes out.
        q.push(SimTime::from_millis(1), 100, 100);
        assert_eq!((q.run.len(), q.heap.len()), (RUN_MAX, 1));
        assert_eq!(
            q.heap.peek().map(|top| top.0.at),
            Some(SimTime::from_millis(10 + RUN_MAX as u64 - 1))
        );
        // Above it: straight to the heap.
        q.push(SimTime::from_millis(1_000), 101, 101);
        assert_eq!((q.run.len(), q.heap.len()), (RUN_MAX, 2));
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        let mut want = vec![100];
        want.extend(0..RUN_MAX as u64);
        want.push(101);
        assert_eq!(order, want);
    }

    /// The benchmark's deep hold model (`desim.minq.deep_ops_per_s`): a
    /// queue kept 4 096 entries deep, each pop followed by a push a random
    /// increment later, so nearly every entry lives in the heap. About
    /// 100 k pops and as many pushes, each pop checked against a
    /// `BTreeMap` keyed by `(time, seq)`.
    #[test]
    fn a_deep_hold_model_pops_what_a_sorted_map_pops() {
        let mut rng = crate::SimRng::seed_from_u64(4_096);
        let mut q = MinQueue::new();
        let mut oracle = BTreeMap::new();
        for seq in 0..4_096 {
            let at = SimTime::from_micros(rng.next_below(1_000_000));
            q.push(at, seq, seq);
            oracle.insert((at, seq), seq);
        }
        assert!(q.heap.len() > 4_000, "the heap holds {}", q.heap.len());
        for seq in 4_096..104_096 {
            let ((at, _), want) = oracle.pop_first().expect("the map holds its depth");
            assert_eq!(q.pop(), Some((at, want)), "pop before push {seq}");
            let at = at + crate::SimDuration::from_micros(1 + rng.next_below(1_000_000));
            q.push(at, seq, seq);
            oracle.insert((at, seq), seq);
        }
        assert_eq!(q.len(), oracle.len());
    }

    /// One step of a random queue program.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Push at `clock + d` (the agenda's and the channel's shape).
        Ahead(u64),
        /// Push at an absolute point of a coarse grid: runs of equal times
        /// that straddle the run and the heap.
        Grid(u64),
        /// Push `n` entries at increasing times (FIFO traffic: every key
        /// above everything pending).
        Fifo(u8),
        /// Push `n` entries at decreasing times (every key below
        /// everything pending).
        Reverse(u8),
        /// Push `n` entries at one instant.
        Burst(u8),
        /// Pop up to `n` entries.
        Pop(u8),
        /// Pop everything due at or before `clock + d`.
        PopUntil(u64),
        /// Drain unordered and compare the multiset.
        Drain,
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..20, 0u64..2_000).prop_map(|(kind, arg)| match kind {
            0..=4 => Op::Ahead(arg),
            5..=6 => Op::Grid(arg % 5),
            7 => Op::Fifo(1 + (arg % 40) as u8),
            8 => Op::Reverse(1 + (arg % 40) as u8),
            9 => Op::Burst(1 + (arg % 40) as u8),
            10..=15 => Op::Pop(1 + (arg % 8) as u8),
            16..=18 => Op::PopUntil(arg),
            _ => Op::Drain,
        })
    }

    /// A [`MinQueue`] and the reference it must equal: a `BTreeMap` keyed by
    /// `(time, seq)`, which pops its first entry.
    struct Twin {
        queue: MinQueue<u64>,
        oracle: BTreeMap<(SimTime, u64), u64>,
        clock: SimTime,
        next_seq: u64,
    }

    impl Twin {
        fn new() -> Self {
            Twin {
                queue: MinQueue::new(),
                oracle: BTreeMap::new(),
                clock: SimTime::ZERO,
                next_seq: 0,
            }
        }

        /// Pushes at `at` on both sides; the payload is the key's `seq`.
        fn push(&mut self, at: SimTime) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.queue.push(at, seq, seq);
            self.oracle.insert((at, seq), seq);
        }

        fn pop(&mut self, limit: SimTime) -> Result<bool, TestCaseError> {
            let want = match self.oracle.first_key_value() {
                Some((&(at, seq), _)) if at <= limit => {
                    self.oracle.remove(&(at, seq));
                    Some((at, seq))
                }
                _ => None,
            };
            let got = if limit == SimTime::MAX {
                self.queue.pop()
            } else {
                self.queue.pop_at_or_before(limit)
            };
            prop_assert_eq!(got, want);
            if let Some((at, _)) = want {
                self.clock = self.clock.max(at);
            }
            Ok(want.is_some())
        }

        fn check(&self) -> Result<(), TestCaseError> {
            prop_assert_eq!(self.queue.len(), self.oracle.len());
            prop_assert_eq!(self.queue.is_empty(), self.oracle.is_empty());
            prop_assert_eq!(
                self.queue.peek(),
                self.oracle.iter().next().map(|(&(at, _), v)| (at, v))
            );
            prop_assert_eq!(self.queue.peek_key(), self.oracle.keys().next().copied());
            Ok(())
        }

        fn run(&mut self, program: &[Op]) -> Result<(), TestCaseError> {
            let us = SimTime::from_micros;
            for &op in program {
                match op {
                    Op::Ahead(d) => self.push(us(self.clock.as_micros() + d)),
                    Op::Grid(k) => self.push(us(k * 500)),
                    Op::Fifo(n) => {
                        let base = self.clock.as_micros() + 3_000;
                        for i in 0..u64::from(n) {
                            self.push(us(base + i));
                        }
                    }
                    Op::Reverse(n) => {
                        let base = self.clock.as_micros() + 100;
                        for i in 0..u64::from(n) {
                            self.push(us(base + 40 - i));
                        }
                    }
                    Op::Burst(n) => {
                        let at = us(self.clock.as_micros() + 50);
                        for _ in 0..n {
                            self.push(at);
                        }
                    }
                    Op::Pop(n) => {
                        for _ in 0..n {
                            if !self.pop(SimTime::MAX)? {
                                break;
                            }
                            self.check()?;
                        }
                    }
                    Op::PopUntil(d) => {
                        let limit = us(self.clock.as_micros() + d);
                        while self.pop(limit)? {
                            self.check()?;
                        }
                    }
                    Op::Drain => {
                        let mut got: Vec<u64> = self.queue.drain_unordered().collect();
                        got.sort_unstable();
                        let mut want: Vec<u64> =
                            core::mem::take(&mut self.oracle).into_values().collect();
                        want.sort_unstable();
                        prop_assert_eq!(got, want);
                    }
                }
                self.check()?;
            }
            while self.pop(SimTime::MAX)? {
                self.check()?;
            }
            Ok(())
        }
    }

    proptest! {
        /// Under any program of pushes (ahead of a clock, on a coarse grid,
        /// FIFO, reverse, equal-time bursts), pops, bounded pops and
        /// unordered drains, the queue pops what a `BTreeMap` keyed by
        /// `(time, seq)` pops and agrees with it on `len`, `peek` and the
        /// least key after every step. Bursts of up to 40 push it past the
        /// run bound, so the heap and run/heap ties at equal time are hit.
        #[test]
        fn queue_pops_what_a_sorted_map_pops(program in proptest::collection::vec(op(), 1..300)) {
            Twin::new().run(&program)?;
        }
    }
}
