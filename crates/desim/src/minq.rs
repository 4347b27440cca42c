//! The index-min event queue shared by both engines.
//!
//! A 4-ary min-heap keyed by `(timestamp, sequence)`. Sequence numbers are
//! unique and monotone, so keys are totally ordered and equal-time events
//! pop in insertion order — the determinism contract of the engines.
//!
//! A 4-ary layout halves the tree depth of a binary heap and keeps parent
//! and children within one or two cache lines, which matters because the
//! simulation hot loop is push/pop bound.
//!
//! The heap itself stores only fixed-size keys; payloads live in a slot
//! arena indexed by the key ([`MinQueue`] is struct-of-arrays). Sifting an
//! entry up or down therefore moves 24 bytes regardless of the payload
//! type — event enums carrying batch payloads would otherwise be memcpy'd
//! at every level of every sift.
//!
//! The queue is public so other layers with the same access pattern (e.g.
//! `netsim`'s per-channel segment/timer queue) can share it instead of
//! `std`'s binary heap.

use crate::time::SimTime;

#[derive(Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

/// A 4-ary min-heap of `(SimTime, u64)`-keyed payloads.
pub struct MinQueue<T> {
    keys: Vec<Key>,
    /// Slot arena: `keys[i].slot` indexes the payload. Freed slots are
    /// recycled through `free`, so steady-state push/pop never reallocates.
    slots: Vec<Option<T>>,
    free: Vec<u32>,
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
            keys: Vec::new(),
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Number of queued entries.
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no entries are queued.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    fn key(&self, i: usize) -> (SimTime, u64) {
        let k = &self.keys[i];
        (k.at, k.seq)
    }

    /// Pushes an entry. `seq` must be unique across live entries.
    pub fn push(&mut self, at: SimTime, seq: u64, item: T) {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as u32
            }
        };
        self.slots[slot as usize] = Some(item);
        self.keys.push(Key { at, seq, slot });
        self.sift_up(self.keys.len() - 1);
    }

    /// The minimum key and a reference to its payload, if any.
    #[must_use]
    pub fn peek(&self) -> Option<(SimTime, &T)> {
        self.keys.first().map(|k| {
            (
                k.at,
                self.slots[k.slot as usize].as_ref().expect("live slot"),
            )
        })
    }

    /// The minimum `(timestamp, sequence)` key, if any.
    pub(crate) fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.keys.first().map(|k| (k.at, k.seq))
    }

    /// Removes and returns the minimum entry if its timestamp is at or
    /// before `limit`: one look at the top where `peek` then `pop` takes two.
    pub fn pop_at_or_before(&mut self, limit: SimTime) -> Option<(SimTime, T)> {
        if self.keys.first()?.at > limit {
            return None;
        }
        self.pop()
    }

    /// Removes and returns the minimum entry.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        if self.keys.is_empty() {
            return None;
        }
        let last = self.keys.len() - 1;
        self.keys.swap(0, last);
        let k = self.keys.pop().expect("non-empty");
        if !self.keys.is_empty() {
            self.sift_down(0);
        }
        let item = self.slots[k.slot as usize].take().expect("live slot");
        self.free.push(k.slot);
        Some((k.at, item))
    }

    /// Empties the queue, yielding the payloads in unspecified (but
    /// deterministic) order. For callers that need to flush every pending
    /// entry without caring about key order.
    pub fn drain_unordered(&mut self) -> impl Iterator<Item = T> + '_ {
        self.keys.clear();
        self.free.clear();
        self.slots.drain(..).flatten()
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 4;
            if self.key(i) < self.key(parent) {
                self.keys.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        let n = self.keys.len();
        loop {
            let first = 4 * i + 1;
            if first >= n {
                break;
            }
            let mut min = first;
            let end = (first + 4).min(n);
            for c in first + 1..end {
                if self.key(c) < self.key(min) {
                    min = c;
                }
            }
            if self.key(min) < self.key(i) {
                self.keys.swap(i, min);
                i = min;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        for seq in 0..10u64 {
            q.push(SimTime::from_millis(10 - seq), seq, seq);
        }
        let mut drained: Vec<u64> = q.drain_unordered().collect();
        drained.sort_unstable();
        assert_eq!(drained, (0..10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn slots_are_recycled_across_push_pop_cycles() {
        let mut q = MinQueue::new();
        let mut seq = 0u64;
        // Steady-state churn: the live population never exceeds 4, so the
        // slot arena must not grow past it.
        for round in 0..100u64 {
            for i in 0..4u64 {
                q.push(SimTime::from_millis(round * 10 + i), seq, seq);
                seq += 1;
            }
            for _ in 0..4 {
                q.pop().unwrap();
            }
        }
        assert!(q.is_empty());
        assert!(q.slots.len() <= 4, "slot arena grew to {}", q.slots.len());
    }
}
