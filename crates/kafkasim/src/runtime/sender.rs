//! The producer seam: source polling, the sender (serialisation CPU) that
//! forms batches, the linger wake, handing a batch to its partition
//! leader's connection, and housekeeping's expiry sweep.

use std::collections::VecDeque;

use desim::{SimDuration, SimTime};
use obs::TraceEvent;

use super::conn::{amo_stall_check, try_send};
use super::{Ctx, Event, World, HOUSEKEEP_INTERVAL};
use crate::audit::LossReason;
use crate::message::{Message, MessageKey};
use crate::producer::PendingBatch;

/// The producer's own state: how far the source is read, where the sticky
/// partitioner is, and when the sender CPU is free.
#[derive(Default)]
pub(super) struct Sender {
    next_key: u64,
    next_partition: u32,
    sticky_count: usize,
    busy_until: SimTime,
    /// Batches being serialised, oldest first: one `Dispatch` event is
    /// pending for each, and each event takes the front one. Dispatch
    /// instants never decrease in schedule order (a batch is picked only
    /// once the CPU is free, at or after the previous one's `busy_until`)
    /// and ties pop in schedule order, so the queue's order is the events'.
    serialising: VecDeque<PendingBatch>,
    /// A `SenderKick` is pending at `busy_until`.
    kick_scheduled: bool,
    /// When the pending `LingerWake` fires, if one is.
    linger_wake_at: Option<SimTime>,
    done_polling: bool,
}

pub(super) fn poll_source(w: &mut World, ctx: &mut Ctx) {
    if w.sender.next_key >= w.source.n_messages {
        w.sender.done_polling = true;
        return;
    }
    // Coalescing loop: after handling the poll this event was scheduled
    // for, keep polling *inline* as long as the next poll instant `t` is
    // strictly earlier than every pending event and within the run
    // horizon. The engine would have popped that poll next anyway, so the
    // inline execution is order-identical — same RNG draw sequence, same
    // trace order, same state evolution, same tie-breaks (ties with a
    // pending event at exactly `t` fall out of the loop, and the
    // re-scheduled poll gets a later seq than the pending event, exactly
    // as in the uncoalesced engine). Only `events_fired` differs.
    let mut now = ctx.now();
    loop {
        let payload = w.source.size.sample(&mut w.rng);
        let key = MessageKey(w.sender.next_key);
        w.sender.next_key += 1;
        let message = Message::new(key, payload, now, w.cfg.message_timeout);
        w.ledger.register(key, now);
        w.last_activity = now;
        // Sticky partitioning (the modern Kafka default for keyless
        // records): fill one partition's batch before moving to the next,
        // so the configured batch size B is actually reached at any
        // arrival rate.
        let partition = w.sender.next_partition;
        w.sender.sticky_count += 1;
        if w.sender.sticky_count >= w.cfg.batch_size {
            w.sender.sticky_count = 0;
            w.sender.next_partition = (partition + 1) % w.cluster.partitions();
        }
        if w.trace_on {
            w.trace.record(TraceEvent::Enqueued {
                at: now,
                key: key.0,
                partition,
                deadline: message.deadline,
            });
        }
        if let Err(rejected) = w.accumulator.push(message, partition, now) {
            let reason = LossReason::BufferOverflow;
            w.lose(now, std::iter::once(rejected.key), reason, None);
        }
        kick_sender(w, ctx, now);
        let gap = w.source.poll_gap(now, payload, &w.cfg.host);
        let t = now + gap;
        // The final poll (which flips `done_polling`) must stay a real
        // event: flipping it inline would let an earlier housekeeping
        // pass observe it too soon.
        if w.sender.next_key >= w.source.n_messages
            || t > w.hard_deadline
            || ctx.next_deadline().is_some_and(|d| t >= d)
        {
            ctx.schedule_at(t, Event::PollSource);
            return;
        }
        now = t;
    }
}

/// The sender CPU became free: look for work.
pub(super) fn on_sender_kick(w: &mut World, ctx: &mut Ctx) {
    w.sender.kick_scheduled = false;
    let now = ctx.now();
    kick_sender(w, ctx, now);
}

/// An open batch lingered out: look for work.
pub(super) fn on_linger_wake(w: &mut World, ctx: &mut Ctx) {
    w.sender.linger_wake_at = None;
    let now = ctx.now();
    kick_sender(w, ctx, now);
}

/// Picks the next ready batch, if the sender CPU is free, and starts
/// serialising it; otherwise makes sure a wake is pending.
pub(super) fn kick_sender(w: &mut World, ctx: &mut Ctx, now: SimTime) {
    if now < w.sender.busy_until {
        if !w.sender.kick_scheduled {
            w.sender.kick_scheduled = true;
            ctx.schedule_at(w.sender.busy_until, Event::SenderKick);
        }
        return;
    }
    w.accumulator.flush_due(now);
    loop {
        let mut expired = std::mem::take(&mut w.msg_scratch);
        expired.clear();
        let picked = w.accumulator.pop_ready_with_expiry(now, &mut expired);
        let reason = LossReason::ExpiredInBuffer;
        w.lose(now, expired.iter().map(|m| m.key), reason, None);
        w.stats.expired += expired.len() as u64;
        w.msg_scratch = expired;
        let Some(mut batch) = picked else {
            schedule_linger_wake(w, ctx, now);
            return;
        };
        let mean = w
            .cfg
            .host
            .service_time(batch.messages.len(), batch.payload_bytes());
        let service = if w.cfg.host.jittered_service && !mean.is_zero() {
            let secs = w.rng.exponential(1.0 / mean.as_secs_f64());
            SimDuration::from_secs_f64(secs)
        } else {
            mean
        };
        // The sender checks delivery.timeout when it *picks* the batch:
        // messages that would expire before serialisation is expected to
        // complete are dropped now, so no CPU is wasted on doomed work.
        // The lookahead uses the *mean* service time — the actual duration
        // is not known in advance — and once picked, the batch is
        // committed.
        w.stats.expired += w.expire(&mut batch, now + mean, now, reason, None);
        if batch.messages.is_empty() {
            w.accumulator.recycle(batch);
            continue;
        }
        if w.trace_on {
            w.trace.record(TraceEvent::BatchFormed {
                at: now,
                batch: batch.id,
                partition: batch.partition,
                keys: batch.messages.iter().map(|m| m.key.0).collect(),
                bytes: batch.payload_bytes(),
            });
        }
        w.sender.busy_until = now + service;
        w.sender.serialising.push_back(batch);
        ctx.schedule_at(now + service, Event::Dispatch);
        return;
    }
}

fn schedule_linger_wake(w: &mut World, ctx: &mut Ctx, now: SimTime) {
    if let Some(deadline) = w.accumulator.next_linger_deadline() {
        let due = deadline.max(now);
        if w.sender.linger_wake_at.is_none_or(|t| due < t) {
            w.sender.linger_wake_at = Some(due);
            ctx.schedule_at(due, Event::LingerWake);
        }
    }
}

/// Serialisation of the oldest batch in the sender finished: it goes to
/// the connection of its partition's current leader, or waits in that
/// connection's blocked queue, and the sender looks for its next batch.
pub(super) fn dispatch_batch(w: &mut World, ctx: &mut Ctx) {
    let batch = (w.sender.serialising.pop_front())
        .expect("every Dispatch event has its batch in the queue");
    let ci = w.cluster.leader_of(batch.partition).0 as usize;
    if let Err(batch) = try_send(w, ctx, ci, batch) {
        w.stats.backpressured_batches += 1;
        w.conns[ci].blocked.push_back(batch);
    }
    let now = ctx.now();
    kick_sender(w, ctx, now);
}

/// The periodic sweep: expires buffered and blocked messages past their
/// deadline, checks each `acks=0` connection for a stall, and ends the run
/// once nothing is left to do.
pub(super) fn housekeeping(w: &mut World, ctx: &mut Ctx) {
    let now = ctx.now();
    let expired = w.accumulator.expire_all(now);
    let reason = LossReason::ExpiredInBuffer;
    w.lose(now, expired.iter().map(|m| m.key), reason, None);
    w.stats.expired += expired.len() as u64;
    // Blocked batches also age out: each queue is filtered in place, its
    // survivors pushed back in their order.
    for ci in 0..w.conns.len() {
        for _ in 0..w.conns[ci].blocked.len() {
            let Some(mut batch) = w.conns[ci].blocked.pop_front() else {
                break;
            };
            let reason = if batch.attempts == 0 {
                LossReason::ExpiredInBuffer
            } else {
                LossReason::RetriesExhausted
            };
            let id = Some(batch.id);
            w.stats.expired += w.expire(&mut batch, now, now, reason, id);
            if batch.messages.is_empty() {
                w.accumulator.recycle(batch);
            } else {
                w.conns[ci].blocked.push_back(batch);
            }
        }
        amo_stall_check(w, ctx, ci);
    }
    w.accumulator.flush_due(now);
    if !w.accumulator.is_empty() {
        kick_sender(w, ctx, now);
    }
    let idle = w.sender.done_polling
        && w.accumulator.is_empty()
        && w.conns
            .iter()
            .all(|c| c.in_flight.is_empty() && c.blocked.is_empty());
    if idle {
        w.finished = true;
        return; // stop rescheduling: the event queue will drain
    }
    ctx.schedule_in(HOUSEKEEP_INTERVAL, Event::Housekeeping);
}
