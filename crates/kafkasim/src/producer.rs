//! Producer-side bookkeeping: the record accumulator, batches, the
//! in-flight request table and the message ledger.
//!
//! These types are pure state machines (no events, no I/O) so their
//! behaviour — batching by count `B`, linger flushes, `T_o` expiry, retry
//! accounting — can be unit-tested in isolation; [`crate::runtime`] drives
//! them from the event loop.

use std::collections::VecDeque;

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::audit::LossReason;
use crate::broker::ProduceRecord;
use crate::message::{Message, MessageKey};
use desim::fasthash::FastMap;

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

    /// Drops expired messages, returning them.
    pub fn drop_expired(&mut self, now: SimTime) -> Vec<Message> {
        let mut expired = Vec::new();
        self.drop_expired_into(now, &mut expired);
        expired
    }

    /// Drops expired messages in place, appending them to `expired`.
    ///
    /// The allocation-free form of [`PendingBatch::drop_expired`]: survivors
    /// keep their order and the expired messages are appended to `expired`
    /// in their original order.
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

    /// The records a broker stores for this batch.
    #[must_use]
    pub fn to_records(&self) -> Vec<ProduceRecord> {
        let mut records = Vec::new();
        self.to_records_into(&mut records);
        records
    }

    /// Writes the batch's broker records into `out` (cleared first), so a
    /// caller can reuse one buffer across requests.
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
    /// batches seal oldest first and retries requeue older ones in front),
    /// so [`Accumulator::expire_all`] may stop at the first batch with
    /// nothing expired. Cleared by an out-of-order `seal`/`requeue_front`;
    /// re-derived by every sweep and set when the queue empties.
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

    /// Ready (full or lingered-out) batches waiting for the sender.
    #[must_use]
    pub fn ready_len(&self) -> usize {
        self.ready.len()
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

    /// Requeues a batch at the front (retry path).
    pub fn requeue_front(&mut self, batch: PendingBatch) {
        let deadline = batch.deadline();
        self.earliest_deadline = self.earliest_deadline.min(deadline);
        self.buffered += batch.messages.len();
        self.ready_in_order &= self.ready_deadlines.front().is_none_or(|&d| deadline <= d);
        self.ready_deadlines.push_front(deadline);
        self.ready.push_front(batch);
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

/// An in-flight produce request awaiting its broker response (`acks=1`).
#[derive(Debug, Clone)]
pub struct InFlightRequest {
    /// The batch the request carries.
    pub batch: PendingBatch,
    /// Connection index it was sent on.
    pub conn: usize,
    /// When it was written to the socket.
    pub sent_at: SimTime,
    /// When the response timeout fires.
    pub timeout_at: SimTime,
}

/// Table of in-flight requests keyed by request id.
///
/// Timeouts are not indexed here: each request's `RequestTimeout` event
/// sits in the engine's agenda, which is the only place they are read.
#[derive(Debug, Clone, Default)]
pub struct InFlightTable {
    requests: FastMap<u64, InFlightRequest>,
    /// Requests in flight per connection index (connections are dense
    /// `0..n`; the vector grows to the highest index seen).
    per_conn: Vec<usize>,
}

impl InFlightTable {
    /// An empty table.
    #[must_use]
    pub fn new() -> Self {
        InFlightTable::default()
    }

    /// Number of requests in flight on `conn`.
    #[must_use]
    pub fn count(&self, conn: usize) -> usize {
        self.per_conn.get(conn).copied().unwrap_or(0)
    }

    /// Total requests in flight.
    #[must_use]
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when nothing is in flight.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }

    /// Inserts a request.
    ///
    /// # Panics
    ///
    /// Panics if the id is already present.
    pub fn insert(&mut self, id: u64, request: InFlightRequest) {
        if request.conn >= self.per_conn.len() {
            self.per_conn.resize(request.conn + 1, 0);
        }
        self.per_conn[request.conn] += 1;
        let prev = self.requests.insert(id, request);
        assert!(prev.is_none(), "duplicate request id");
    }

    /// Completes (acknowledges) a request, removing it.
    pub fn complete(&mut self, id: u64) -> Option<InFlightRequest> {
        let request = self.requests.remove(&id)?;
        self.per_conn[request.conn] -= 1;
        Some(request)
    }

    /// Removes every request on `conn` (connection failure path).
    ///
    /// Requests come back ordered by id (send order), so retry scheduling
    /// is deterministic.
    pub fn take_conn(&mut self, conn: usize) -> Vec<(u64, InFlightRequest)> {
        let mut ids: Vec<u64> = self
            .requests
            .iter()
            .filter(|(_, r)| r.conn == conn)
            .map(|(id, _)| *id)
            .collect();
        ids.sort_unstable();
        ids.into_iter()
            .map(|id| {
                let r = self.complete(id).expect("listed id");
                (id, r)
            })
            .collect()
    }

    /// Whether `id` is still in flight.
    #[must_use]
    pub fn contains(&self, id: u64) -> bool {
        self.requests.contains_key(&id)
    }

    /// The connection `id` is in flight on, if any.
    #[must_use]
    pub fn conn_of(&self, id: u64) -> Option<usize> {
        self.requests.get(&id).map(|r| r.conn)
    }
}

/// Producer-side per-message accounting.
///
/// The ledger records the producer's *view* (attempts, loss reasons); the
/// final report combines it with the ground truth found in the broker logs.
///
/// Stored struct-of-arrays: three dense columns indexed by message key, so
/// the audit's counting pass streams sequentially over exactly the bytes it
/// needs (one `u32` + one `u8` per message) instead of striding over padded
/// per-message structs, and the loss column packs `Option<LossReason>` into
/// a single byte (0 = not lost, else [`LossReason::tag`]).
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    created: Vec<SimTime>,
    attempts: Vec<u32>,
    lost: Vec<u8>,
}

/// One message's producer-side record (a row view over the ledger columns).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LedgerEntry {
    /// When the message entered the producer.
    pub created_at: SimTime,
    /// Kafka-level send attempts that included this message.
    pub attempts: u32,
    /// Loss reason, when the producer gave up on the message.
    pub lost: Option<LossReason>,
}

impl Ledger {
    /// An empty ledger.
    #[must_use]
    pub fn new() -> Self {
        Ledger::default()
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

    /// The entry for `key`, materialised from the columns.
    #[must_use]
    pub fn get(&self, key: MessageKey) -> Option<LedgerEntry> {
        let i = key.0 as usize;
        Some(LedgerEntry {
            created_at: *self.created.get(i)?,
            attempts: self.attempts[i],
            lost: LossReason::from_tag(self.lost[i]),
        })
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
        /// by mixed timeouts, held-back retries and partial expiries.
        #[test]
        fn expire_all_equals_a_full_scan(seed in 0u64..u64::MAX, batch_size in 1usize..5) {
            let mut rng = desim::SimRng::seed_from_u64(seed);
            let mut acc = Accumulator::new(batch_size, SimDuration::from_millis(40), 10_000, 3);
            let mut now_ms = 0u64;
            let mut held: Vec<PendingBatch> = Vec::new();
            // Half the programs use one timeout, so only held-back retries
            // and partial expiries disturb the deadline order.
            let mixed = seed % 2 == 0;
            for key in 0..400u64 {
                now_ms += rng.next_u64() % 8;
                let now = SimTime::from_millis(now_ms);
                let timeout = if mixed && rng.next_f64() < 0.2 { 50 + rng.next_u64() % 600 } else { 300 };
                acc.push(msg(key, now_ms, timeout), (rng.next_u64() % 3) as u32, now).unwrap();
                match rng.next_u64() % 8 {
                    0 => acc.flush_due(now),
                    1 | 2 => held.extend(acc.pop_ready(now)),
                    3 => {
                        if let Some(batch) = held.pop() {
                            acc.requeue_front(batch);
                        }
                    }
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
    fn requeue_front_preserves_priority() {
        let mut acc = Accumulator::new(1, SimDuration::ZERO, 100, 1);
        acc.push(msg(0, 0, 10_000), 0, SimTime::ZERO).unwrap();
        acc.push(msg(1, 0, 10_000), 0, SimTime::ZERO).unwrap();
        let first = acc.pop_ready(SimTime::ZERO).unwrap();
        acc.requeue_front(first);
        let again = acc.pop_ready(SimTime::ZERO).unwrap();
        assert_eq!(again.messages[0].key, MessageKey(0));
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
    fn in_flight_table_tracks_counts_and_timeouts() {
        let mut t = InFlightTable::new();
        let batch = PendingBatch {
            id: 0,
            partition: 0,
            messages: vec![msg(0, 0, 1000)],
            attempts: 1,
        };
        t.insert(
            10,
            InFlightRequest {
                batch: batch.clone(),
                conn: 0,
                sent_at: SimTime::ZERO,
                timeout_at: SimTime::from_millis(100),
            },
        );
        t.insert(
            11,
            InFlightRequest {
                batch,
                conn: 0,
                sent_at: SimTime::ZERO,
                timeout_at: SimTime::from_millis(50),
            },
        );
        assert_eq!((t.count(0), t.count(1), t.count(7)), (2, 0, 0));
        let done = t.complete(11).unwrap();
        assert_eq!(done.timeout_at, SimTime::from_millis(50));
        assert_eq!(t.count(0), 1);
        assert!(t.complete(11).is_none(), "double completion is None");
        assert_eq!(t.count(0), 1, "a refused completion counts nothing");
        assert_eq!(
            t.complete(10).unwrap().timeout_at,
            SimTime::from_millis(100)
        );
        assert_eq!((t.count(0), t.len()), (0, 0));
    }

    #[test]
    fn take_conn_clears_only_that_connection() {
        let mut t = InFlightTable::new();
        let batch = PendingBatch {
            id: 0,
            partition: 0,
            messages: vec![msg(0, 0, 1000)],
            attempts: 1,
        };
        for (id, conn) in [(1u64, 0usize), (2, 1), (3, 0)] {
            t.insert(
                id,
                InFlightRequest {
                    batch: batch.clone(),
                    conn,
                    sent_at: SimTime::ZERO,
                    timeout_at: SimTime::from_millis(id),
                },
            );
        }
        let taken = t.take_conn(0);
        assert_eq!(taken.len(), 2);
        assert_eq!(t.len(), 1);
        assert!(t.contains(2));
    }

    #[test]
    fn ledger_accumulates_attempts_and_first_loss() {
        let mut ledger = Ledger::new();
        ledger.register(MessageKey(0), SimTime::ZERO);
        ledger.note_attempt(MessageKey(0));
        ledger.note_attempt(MessageKey(0));
        ledger.mark_lost(MessageKey(0), LossReason::RetriesExhausted);
        ledger.mark_lost(MessageKey(0), LossReason::ConnectionReset);
        let e = ledger.get(MessageKey(0)).unwrap();
        assert_eq!(e.attempts, 2);
        assert_eq!(e.lost, Some(LossReason::RetriesExhausted));
    }
}
