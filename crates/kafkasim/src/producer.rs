//! Producer-side bookkeeping: the record accumulator, batches and the
//! message ledger.
//!
//! These types are pure state machines (no events, no I/O) so their
//! behaviour — batching by count `B`, linger flushes, `T_o` expiry, retry
//! accounting — can be unit-tested in isolation; [`crate::runtime`] drives
//! them from the event loop. A batch written to a socket leaves this
//! module: it waits for its ack in its connection's send-ordered in-flight
//! queue, which the runtime owns.

use std::collections::VecDeque;

use desim::{SimDuration, SimTime};

use crate::audit::LossReason;
use crate::broker::ProduceRecord;
use crate::message::{Message, MessageKey};

/// A batch of messages bound for one partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingBatch {
    /// Batch identifier (unique per run).
    pub id: u64,
    /// Destination partition.
    pub partition: u32,
    /// The batched messages.
    pub messages: Vec<Message>,
    /// Kafka-level send attempts so far.
    pub attempts: u32,
}

impl PendingBatch {
    /// The earliest message deadline — the batch must complete by then.
    #[must_use]
    pub fn deadline(&self) -> SimTime {
        self.messages
            .iter()
            .map(|m| m.deadline)
            .min()
            .unwrap_or(SimTime::MAX)
    }

    /// Total payload bytes.
    #[must_use]
    pub fn payload_bytes(&self) -> u64 {
        self.messages.iter().map(|m| m.payload_bytes).sum()
    }

    /// Drops expired messages in place, appending them to `expired`.
    ///
    /// Survivors keep their order and the expired messages are appended to
    /// `expired` in their original order.
    pub fn drop_expired_into(&mut self, now: SimTime, expired: &mut Vec<Message>) {
        self.messages.retain(|m| {
            if m.is_expired(now) {
                expired.push(*m);
                false
            } else {
                true
            }
        });
    }

    /// Writes the records a broker stores for this batch into `out`
    /// (cleared first), so a caller can reuse one buffer across requests.
    pub fn to_records_into(&self, out: &mut Vec<ProduceRecord>) {
        out.clear();
        out.extend(self.messages.iter().map(|m| ProduceRecord {
            key: m.key,
            payload_bytes: m.payload_bytes,
            created_at: m.created_at,
        }));
    }
}

#[derive(Debug, Clone)]
struct OpenBatch {
    messages: Vec<Message>,
    opened_at: SimTime,
}

/// The record accumulator: per-partition open batches plus a FIFO of ready
/// batches awaiting the sender.
///
/// # Example
///
/// ```
/// use kafkasim::producer::Accumulator;
/// use kafkasim::message::{Message, MessageKey};
/// use desim::{SimDuration, SimTime};
///
/// let mut acc = Accumulator::new(2, SimDuration::from_millis(5), 100, 1);
/// let msg = |k| Message::new(MessageKey(k), 100, SimTime::ZERO, SimDuration::from_secs(1));
/// acc.push(msg(0), 0, SimTime::ZERO).unwrap();
/// assert!(acc.pop_ready(SimTime::ZERO).is_none(), "batch of 2 not yet full");
/// acc.push(msg(1), 0, SimTime::ZERO).unwrap();
/// let batch = acc.pop_ready(SimTime::ZERO).expect("full batch");
/// assert_eq!(batch.messages.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Accumulator {
    batch_size: usize,
    linger: SimDuration,
    capacity: usize,
    open: Vec<Option<OpenBatch>>,
    ready: VecDeque<PendingBatch>,
    /// Each ready batch's earliest message deadline, in lockstep with
    /// `ready`.
    ready_deadlines: VecDeque<SimTime>,
    /// `ready_deadlines` is non-decreasing front to back (the steady state:
    /// batches seal oldest first), so [`Accumulator::expire_all`] may stop
    /// at the first batch with nothing expired. Cleared by an out-of-order
    /// `seal`; re-derived by every sweep and set when the queue empties.
    ready_in_order: bool,
    buffered: usize,
    next_batch_id: u64,
    overflowed: u64,
    /// Retired message buffers, reused for new open batches so the steady
    /// state allocates nothing per batch.
    pool: Vec<Vec<Message>>,
    /// Conservative lower bound on every buffered message's deadline: no
    /// buffered message expires strictly before it (`SimTime::MAX` when
    /// nothing is buffered). Pops may leave it stale — too early — which
    /// costs at most a wasted sweep, never a missed expiry. Lets
    /// [`Accumulator::expire_all`] skip its full scan in the common case
    /// where nothing can have timed out yet.
    earliest_deadline: SimTime,
}

/// Most message buffers the accumulator keeps around for reuse.
const POOL_LIMIT: usize = 256;

impl Accumulator {
    /// Creates an accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size`, `capacity` or `partitions` is zero.
    #[must_use]
    pub fn new(batch_size: usize, linger: SimDuration, capacity: usize, partitions: u32) -> Self {
        assert!(batch_size > 0, "batch_size must be positive");
        assert!(capacity > 0, "capacity must be positive");
        assert!(partitions > 0, "need at least one partition");
        Accumulator {
            batch_size,
            linger,
            capacity,
            open: vec![None; partitions as usize],
            ready: VecDeque::new(),
            ready_deadlines: VecDeque::new(),
            ready_in_order: true,
            buffered: 0,
            next_batch_id: 0,
            overflowed: 0,
            pool: Vec::new(),
            earliest_deadline: SimTime::MAX,
        }
    }

    /// Returns a retired message buffer to the pool (cleared).
    fn pool_buf(&mut self, mut buf: Vec<Message>) {
        if self.pool.len() < POOL_LIMIT {
            buf.clear();
            self.pool.push(buf);
        }
    }

    /// Returns a dead batch's message buffer to the allocation pool so a
    /// future open batch can reuse it. Call this wherever a batch's life
    /// ends (acknowledged, given up, or lost); dropping the batch instead
    /// is harmless but wastes the buffer.
    pub fn recycle(&mut self, batch: PendingBatch) {
        self.pool_buf(batch.messages);
    }

    /// Buffered messages (open + ready).
    #[must_use]
    pub fn len(&self) -> usize {
        self.buffered
    }

    /// `true` when nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buffered == 0
    }

    /// Messages rejected because the accumulator was full.
    #[must_use]
    pub fn overflowed(&self) -> u64 {
        self.overflowed
    }

    /// Applies a new batch size / linger (dynamic reconfiguration §V).
    ///
    /// Open batches are sealed under the old configuration.
    pub fn reconfigure(&mut self, batch_size: usize, linger: SimDuration, now: SimTime) {
        assert!(batch_size > 0, "batch_size must be positive");
        // Seal open batches so the new size applies cleanly.
        for p in 0..self.open.len() {
            self.seal(p, now);
        }
        self.batch_size = batch_size;
        self.linger = linger;
    }

    /// Adds a message to `partition`'s open batch.
    ///
    /// # Errors
    ///
    /// Hands the message back when the accumulator is at capacity
    /// (`buffer.memory` exhausted).
    pub fn push(&mut self, message: Message, partition: u32, now: SimTime) -> Result<(), Message> {
        if self.buffered >= self.capacity {
            self.overflowed += 1;
            return Err(message);
        }
        let batch_size = self.batch_size;
        let pool = &mut self.pool;
        let slot = &mut self.open[partition as usize];
        if slot.is_none() {
            *slot = Some(OpenBatch {
                messages: pool.pop().unwrap_or_else(|| Vec::with_capacity(batch_size)),
                opened_at: now,
            });
        }
        let open = slot.as_mut().expect("slot was just filled");
        self.earliest_deadline = self.earliest_deadline.min(message.deadline);
        open.messages.push(message);
        self.buffered += 1;
        if open.messages.len() >= self.batch_size {
            self.seal(partition as usize, now);
        }
        Ok(())
    }

    fn seal(&mut self, partition: usize, _now: SimTime) {
        if let Some(open) = self.open[partition].take() {
            if open.messages.is_empty() {
                self.pool_buf(open.messages);
                return;
            }
            let id = self.next_batch_id;
            self.next_batch_id += 1;
            let batch = PendingBatch {
                id,
                partition: partition as u32,
                messages: open.messages,
                attempts: 0,
            };
            let deadline = batch.deadline();
            self.ready_in_order &= self.ready_deadlines.back().is_none_or(|&d| d <= deadline);
            self.ready_deadlines.push_back(deadline);
            self.ready.push_back(batch);
        }
    }

    /// Seals open batches that have lingered past their deadline.
    pub fn flush_due(&mut self, now: SimTime) {
        for p in 0..self.open.len() {
            let due = self.open[p]
                .as_ref()
                .is_some_and(|o| now.saturating_since(o.opened_at) >= self.linger);
            if due {
                self.seal(p, now);
            }
        }
    }

    /// The earliest instant at which an open batch lingers out, if any.
    #[must_use]
    pub fn next_linger_deadline(&self) -> Option<SimTime> {
        self.open
            .iter()
            .flatten()
            .map(|o| o.opened_at + self.linger)
            .min()
    }

    /// Takes the next ready batch, discarding expired messages from it.
    ///
    /// Expired messages are returned via `expired`; empty husks are skipped.
    pub fn pop_ready_with_expiry(
        &mut self,
        now: SimTime,
        expired: &mut Vec<Message>,
    ) -> Option<PendingBatch> {
        while let Some(mut batch) = self.ready.pop_front() {
            self.ready_deadlines.pop_front();
            self.ready_in_order |= self.ready.is_empty();
            let before = expired.len();
            batch.drop_expired_into(now, expired);
            self.buffered -= expired.len() - before;
            if batch.messages.is_empty() {
                self.pool_buf(batch.messages);
                continue;
            }
            self.buffered -= batch.messages.len();
            return Some(batch);
        }
        None
    }

    /// Convenience wrapper over [`Accumulator::pop_ready_with_expiry`] that
    /// drops the expired list (tests, examples).
    pub fn pop_ready(&mut self, now: SimTime) -> Option<PendingBatch> {
        let mut sink = Vec::new();
        self.pop_ready_with_expiry(now, &mut sink)
    }

    /// Removes every expired message anywhere in the accumulator.
    ///
    /// Returns the expired messages; used by housekeeping so that `T_o`
    /// fires even when the sender is blocked.
    pub fn expire_all(&mut self, now: SimTime) -> Vec<Message> {
        if now < self.earliest_deadline {
            // Every buffered message's deadline is at or past the
            // watermark, so nothing can have expired yet.
            return Vec::new();
        }
        let mut expired = Vec::new();
        let mut emptied: Vec<Vec<Message>> = Vec::new();
        // Recompute the watermark exactly from the survivors as we sweep.
        let mut min_left = SimTime::MAX;
        for slot in &mut self.open {
            if let Some(open) = slot {
                let before = expired.len();
                open.messages.retain(|m| {
                    if m.is_expired(now) {
                        expired.push(*m);
                        false
                    } else {
                        min_left = min_left.min(m.deadline);
                        true
                    }
                });
                self.buffered -= expired.len() - before;
                if open.messages.is_empty() {
                    if let Some(open) = slot.take() {
                        emptied.push(open.messages);
                    }
                }
            }
        }
        // Ready batches whose earliest deadline is still ahead hold nothing
        // expired and are left untouched; while the deadlines are in order,
        // so is everything behind the first such batch, and the sweep ends
        // there. Survivors keep their relative order; emptied husks are
        // compacted out of the swept prefix.
        let (mut kept, mut scanned) = (0, 0);
        let mut in_order = true;
        let mut last = SimTime::ZERO;
        while scanned < self.ready.len() {
            let mut deadline = self.ready_deadlines[scanned];
            let batch = &mut self.ready[scanned];
            if now < deadline {
                if self.ready_in_order {
                    break;
                }
            } else {
                let before = expired.len();
                deadline = SimTime::MAX;
                batch.messages.retain(|m| {
                    if m.is_expired(now) {
                        expired.push(*m);
                        false
                    } else {
                        deadline = deadline.min(m.deadline);
                        true
                    }
                });
                self.buffered -= expired.len() - before;
            }
            if batch.messages.is_empty() {
                emptied.push(std::mem::take(&mut batch.messages));
            } else {
                in_order &= last <= deadline;
                last = deadline;
                min_left = min_left.min(deadline);
                self.ready.swap(kept, scanned);
                self.ready_deadlines[kept] = deadline;
                kept += 1;
            }
            scanned += 1;
        }
        if let Some(&next) = self.ready_deadlines.get(scanned) {
            // Stopped early: the unswept suffix is in order and starts here.
            in_order &= last <= next;
            min_left = min_left.min(next);
        }
        self.ready.drain(kept..scanned);
        self.ready_deadlines.drain(kept..scanned);
        self.ready_in_order = in_order;
        self.earliest_deadline = min_left;
        for buf in emptied {
            self.pool_buf(buf);
        }
        expired
    }
}

/// Producer-side per-message accounting.
///
/// The ledger records the producer's *view* (creation time, attempts, loss
/// reasons); the final report combines it with the ground truth found in
/// the broker logs.
///
/// Stored struct-of-arrays: three dense columns indexed by message key, so
/// the audit's counting pass streams sequentially over exactly the bytes it
/// needs (one `u32` + one `u8` per message) instead of striding over padded
/// per-message structs, and the loss column packs `Option<LossReason>` into
/// a single byte (0 = not lost, else [`LossReason::tag`]). The run knows its
/// message count at set-up, so the columns are sized once
/// ([`Ledger::with_capacity`]) rather than grown by doubling.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    created: Vec<SimTime>,
    attempts: Vec<u32>,
    lost: Vec<u8>,
}

impl Ledger {
    /// An empty ledger with room for `n` messages.
    #[must_use]
    pub fn with_capacity(n: usize) -> Self {
        Ledger {
            created: Vec::with_capacity(n),
            attempts: Vec::with_capacity(n),
            lost: Vec::with_capacity(n),
        }
    }

    /// Registers a freshly created message; keys must arrive in order.
    pub fn register(&mut self, key: MessageKey, created_at: SimTime) {
        debug_assert_eq!(key.0 as usize, self.created.len(), "keys must be dense");
        self.created.push(created_at);
        self.attempts.push(0);
        self.lost.push(0);
    }

    /// Notes one more send attempt for `key`.
    pub fn note_attempt(&mut self, key: MessageKey) {
        if let Some(a) = self.attempts.get_mut(key.0 as usize) {
            *a += 1;
        }
    }

    /// Marks `key` lost for `reason` (first reason wins).
    pub fn mark_lost(&mut self, key: MessageKey, reason: LossReason) {
        if let Some(t) = self.lost.get_mut(key.0 as usize) {
            if *t == 0 {
                *t = reason.tag();
            }
        }
    }

    /// Creation timestamps in key order.
    #[must_use]
    pub fn created_col(&self) -> &[SimTime] {
        &self.created
    }

    /// Send-attempt counts in key order.
    #[must_use]
    pub fn attempts_col(&self) -> &[u32] {
        &self.attempts
    }

    /// Loss tags in key order (0 = not lost, else [`LossReason::tag`]).
    #[must_use]
    pub fn lost_col(&self) -> &[u8] {
        &self.lost
    }

    /// Number of registered messages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.created.len()
    }

    /// `true` when no messages were registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.created.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn msg(key: u64, created_ms: u64, timeout_ms: u64) -> Message {
        Message::new(
            MessageKey(key),
            100,
            SimTime::from_millis(created_ms),
            SimDuration::from_millis(timeout_ms),
        )
    }

    #[test]
    fn batches_fill_by_count() {
        let mut acc = Accumulator::new(3, SimDuration::from_secs(1), 100, 2);
        for k in 0..6 {
            acc.push(msg(k, 0, 10_000), (k % 2) as u32, SimTime::ZERO)
                .unwrap();
        }
        let a = acc.pop_ready(SimTime::ZERO).unwrap();
        let b = acc.pop_ready(SimTime::ZERO).unwrap();
        assert_eq!(a.messages.len(), 3);
        assert_eq!(b.messages.len(), 3);
        assert_ne!(a.partition, b.partition);
        assert!(acc.is_empty());
    }

    #[test]
    fn linger_flushes_partial_batches() {
        let mut acc = Accumulator::new(10, SimDuration::from_millis(5), 100, 1);
        acc.push(msg(0, 0, 10_000), 0, SimTime::ZERO).unwrap();
        assert!(acc.pop_ready(SimTime::ZERO).is_none());
        assert_eq!(acc.next_linger_deadline(), Some(SimTime::from_millis(5)));
        acc.flush_due(SimTime::from_millis(5));
        let batch = acc.pop_ready(SimTime::from_millis(5)).unwrap();
        assert_eq!(batch.messages.len(), 1);
        assert_eq!(acc.next_linger_deadline(), None);
    }

    #[test]
    fn capacity_overflow_rejects() {
        let mut acc = Accumulator::new(1, SimDuration::ZERO, 2, 1);
        acc.push(msg(0, 0, 10_000), 0, SimTime::ZERO).unwrap();
        acc.push(msg(1, 0, 10_000), 0, SimTime::ZERO).unwrap();
        let err = acc.push(msg(2, 0, 10_000), 0, SimTime::ZERO);
        assert!(err.is_err());
        assert_eq!(acc.overflowed(), 1);
    }

    #[test]
    fn pop_ready_drops_expired_messages() {
        let mut acc = Accumulator::new(2, SimDuration::ZERO, 100, 1);
        acc.push(msg(0, 0, 100), 0, SimTime::ZERO).unwrap();
        acc.push(msg(1, 0, 10_000), 0, SimTime::ZERO).unwrap();
        let mut expired = Vec::new();
        let batch = acc
            .pop_ready_with_expiry(SimTime::from_millis(200), &mut expired)
            .unwrap();
        assert_eq!(batch.messages.len(), 1);
        assert_eq!(batch.messages[0].key, MessageKey(1));
        assert_eq!(expired.len(), 1);
        assert!(acc.is_empty());
    }

    #[test]
    fn expire_all_sweeps_open_and_ready() {
        let mut acc = Accumulator::new(2, SimDuration::from_secs(10), 100, 2);
        acc.push(msg(0, 0, 100), 0, SimTime::ZERO).unwrap(); // open, p0
        acc.push(msg(1, 0, 100), 1, SimTime::ZERO).unwrap(); // open, p1
        acc.push(msg(2, 0, 100), 1, SimTime::ZERO).unwrap(); // seals p1
        let expired = acc.expire_all(SimTime::from_millis(500));
        assert_eq!(expired.len(), 3);
        assert!(acc.is_empty());
        assert!(acc.pop_ready(SimTime::from_millis(500)).is_none());
    }

    /// A sweep whose partial expiry leaves the queue out of order clears
    /// the order flag, so the next sweep walks past a batch with nothing
    /// expired to the expired one behind it.
    #[test]
    fn a_sweep_that_reorders_the_queue_clears_the_order_flag() {
        let mut acc = Accumulator::new(2, SimDuration::from_secs(10), 100, 1);
        acc.push(msg(0, 0, 100), 0, SimTime::ZERO).unwrap();
        acc.push(msg(1, 0, 10_000), 0, SimTime::ZERO).unwrap();
        acc.push(msg(2, 1, 300), 0, SimTime::from_millis(1))
            .unwrap();
        acc.push(msg(3, 1, 300), 0, SimTime::from_millis(1))
            .unwrap();
        assert!(acc.ready_in_order, "deadlines 100 and 301 ms");
        let keys = |expired: Vec<Message>| expired.iter().map(|m| m.key.0).collect::<Vec<_>>();
        assert_eq!(keys(acc.expire_all(SimTime::from_millis(150))), [0]);
        assert!(!acc.ready_in_order, "deadlines 10 000 and 301 ms");
        assert_eq!(keys(acc.expire_all(SimTime::from_millis(400))), [2, 3]);
        assert_eq!(acc.len(), 1);
    }

    /// A ready queue drained by pops is trivially in order, so the flag is
    /// set again: the next sweep may stop at the first batch with nothing
    /// expired instead of walking the whole queue.
    #[test]
    fn an_emptied_ready_queue_sets_the_order_flag_again() {
        let mut acc = Accumulator::new(1, SimDuration::from_secs(10), 100, 1);
        acc.push(msg(0, 0, 10_000), 0, SimTime::ZERO).unwrap();
        acc.push(msg(1, 0, 100), 0, SimTime::ZERO).unwrap();
        assert!(!acc.ready_in_order, "deadlines 10 000 and 100 ms");
        assert!(acc.pop_ready(SimTime::ZERO).is_some());
        assert!(acc.pop_ready(SimTime::ZERO).is_some());
        assert!(acc.ready_in_order, "an empty queue is in order");
    }

    impl Accumulator {
        /// Every buffered message in sweep order: open slots by partition,
        /// then ready batches front to back.
        fn buffered_in_order(&self) -> Vec<Message> {
            let open = self.open.iter().flatten().flat_map(|o| &o.messages);
            let ready = self.ready.iter().flat_map(|b| &b.messages);
            open.chain(ready).copied().collect()
        }

        fn assert_ready_bookkeeping(&self) {
            let deadlines: Vec<SimTime> = self.ready.iter().map(PendingBatch::deadline).collect();
            assert_eq!(Vec::from(self.ready_deadlines.clone()), deadlines);
            if self.ready_in_order {
                assert!(deadlines.windows(2).all(|w| w[0] <= w[1]), "{deadlines:?}");
            }
            assert_eq!(self.len(), self.buffered_in_order().len());
        }
    }

    proptest::proptest! {
        /// `expire_all` returns exactly the expired messages of a full scan,
        /// in scan order, and leaves the rest in place — whether the ready
        /// queue's deadlines are in order (prefix sweep) or were scrambled
        /// by mixed timeouts, seals across partitions and partial expiries.
        #[test]
        fn expire_all_equals_a_full_scan(seed in 0u64..u64::MAX, batch_size in 1usize..5) {
            let mut rng = desim::SimRng::seed_from_u64(seed);
            let mut acc = Accumulator::new(batch_size, SimDuration::from_millis(40), 10_000, 3);
            let mut now_ms = 0u64;
            // Half the programs use one timeout, so only partitions sealing
            // out of age order and partial expiries disturb the deadline
            // order.
            let mixed = seed % 2 == 0;
            for key in 0..400u64 {
                now_ms += rng.next_u64() % 8;
                let now = SimTime::from_millis(now_ms);
                let timeout = if mixed && rng.next_f64() < 0.2 { 50 + rng.next_u64() % 600 } else { 300 };
                acc.push(msg(key, now_ms, timeout), (rng.next_u64() % 3) as u32, now).unwrap();
                match rng.next_u64() % 8 {
                    0 => acc.flush_due(now),
                    1 | 2 => drop(acc.pop_ready(now)),
                    4 | 5 => {
                        let before = acc.buffered_in_order();
                        let sweeps = now >= acc.earliest_deadline;
                        let expired = acc.expire_all(now);
                        let (want, left): (Vec<Message>, Vec<Message>) =
                            before.into_iter().partition(|m| m.is_expired(now));
                        proptest::prop_assert_eq!(expired, want);
                        proptest::prop_assert_eq!(acc.buffered_in_order(), left);
                        // A sweep leaves the watermark exact, as the full scan did.
                        let floor = acc.buffered_in_order().iter().map(|m| m.deadline).min();
                        if sweeps {
                            proptest::prop_assert_eq!(acc.earliest_deadline, floor.unwrap_or(SimTime::MAX));
                        }
                    }
                    _ => {}
                }
                acc.assert_ready_bookkeeping();
            }
        }
    }

    #[test]
    fn reconfigure_seals_and_applies_new_size() {
        let mut acc = Accumulator::new(5, SimDuration::from_secs(10), 100, 1);
        acc.push(msg(0, 0, 10_000), 0, SimTime::ZERO).unwrap();
        acc.reconfigure(1, SimDuration::ZERO, SimTime::from_millis(1));
        // The old partial batch was sealed.
        let sealed = acc.pop_ready(SimTime::from_millis(1)).unwrap();
        assert_eq!(sealed.messages.len(), 1);
        // New messages use the new batch size of 1.
        acc.push(msg(1, 1, 10_000), 0, SimTime::from_millis(1))
            .unwrap();
        assert!(acc.pop_ready(SimTime::from_millis(1)).is_some());
    }

    #[test]
    fn batch_deadline_is_earliest_message() {
        let batch = PendingBatch {
            id: 0,
            partition: 0,
            messages: vec![msg(0, 0, 500), msg(1, 0, 100), msg(2, 0, 900)],
            attempts: 0,
        };
        assert_eq!(batch.deadline(), SimTime::from_millis(100));
        assert_eq!(batch.payload_bytes(), 300);
    }

    #[test]
    fn ledger_accumulates_attempts_and_first_loss() {
        let mut ledger = Ledger::with_capacity(1);
        ledger.register(MessageKey(0), SimTime::from_millis(4));
        ledger.note_attempt(MessageKey(0));
        ledger.note_attempt(MessageKey(0));
        ledger.mark_lost(MessageKey(0), LossReason::RetriesExhausted);
        ledger.mark_lost(MessageKey(0), LossReason::ConnectionReset);
        assert_eq!(ledger.created_col(), &[SimTime::from_millis(4)]);
        assert_eq!(ledger.attempts_col(), &[2]);
        assert_eq!(ledger.lost_col(), &[LossReason::RetriesExhausted.tag()]);
    }
}
