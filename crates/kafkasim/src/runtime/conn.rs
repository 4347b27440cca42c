//! The connection seam: one producer→broker socket per broker, its
//! send-ordered queue of in-flight requests, backpressure, the transport
//! pump, responses, and the one teardown that settles every request.

use std::collections::VecDeque;

use desim::SimTime;
use netsim::channel::SendRecordError;
use netsim::{ChannelEvent, DuplexChannel, Endpoint};
use obs::TraceEvent;

use super::brokers::on_arrival;
use super::{broker_of, Ctx, Event, World};
use crate::audit::LossReason;
use crate::config::DeliverySemantics;
use crate::producer::PendingBatch;

/// The producer's connection to one broker: `conns[ci]` to `broker_of(ci)`.
pub(super) struct Conn {
    pub(super) channel: DuplexChannel,
    /// Every request written to this socket and not yet settled, at any
    /// acks level, in send order (Kafka's per-node in-flight deque).
    pub(super) in_flight: VecDeque<InFlightRequest>,
    /// Batches waiting for this connection: backpressured, requeued for a
    /// retry, or held while the broker is down.
    pub(super) blocked: VecDeque<PendingBatch>,
    /// Responses the broker could not write yet (its send buffer was full).
    resp_queue: VecDeque<u64>,
    /// When the pending `ConnWake` fires, if one is.
    wake_at: Option<SimTime>,
}

impl Conn {
    pub(super) fn new(channel: DuplexChannel) -> Self {
        Conn {
            channel,
            in_flight: VecDeque::new(),
            blocked: VecDeque::new(),
            resp_queue: VecDeque::new(),
            wake_at: None,
        }
    }

    /// Where request `id` sits in the queue: a short scan, the hit in front.
    pub(super) fn position(&self, id: u64) -> Option<usize> {
        self.in_flight.iter().position(|r| r.id == id)
    }

    /// Takes request `id` out of the queue: it is settled.
    fn settle(&mut self, id: u64) -> Option<InFlightRequest> {
        self.in_flight.remove(self.position(id)?)
    }
}

/// A produce request written to a socket and not yet settled: acknowledged
/// (`acks ≥ 1`), arrived at the broker (`acks=0`), or torn down with its
/// connection. A retry is a new request: a request never changes connection.
pub(super) struct InFlightRequest {
    id: u64,
    pub(super) batch: PendingBatch,
    sent_at: SimTime,
    /// Whether it was sent awaiting a response (`acks ≥ 1`); a teardown
    /// settles it by this, not by the producer's current acks level.
    pub(super) wants_ack: bool,
}

/// Attempts to put `batch` on the wire; hands it back when backpressured.
pub(super) fn try_send(
    w: &mut World,
    ctx: &mut Ctx,
    ci: usize,
    mut batch: PendingBatch,
) -> Result<(), PendingBatch> {
    let now = ctx.now();
    // First-attempt batches were committed when the sender picked them (the
    // expiry check happened at pop, with service lookahead) - they go out
    // even if serialisation ran long. Retry batches re-check the deadline:
    // delivery.timeout covers the whole retry loop.
    if batch.attempts > 0 {
        let id = Some(batch.id);
        w.stats.expired += w.expire(&mut batch, now, now, LossReason::RetriesExhausted, id);
    }
    if batch.messages.is_empty() {
        w.accumulator.recycle(batch);
        return Ok(());
    }
    if w.cluster.is_down(broker_of(ci), now) {
        return Err(batch); // broker down: wait (or fail over)
    }
    let wants_ack = w.cfg.semantics != DeliverySemantics::AtMostOnce;
    let in_flight = &w.conns[ci].in_flight;
    if wants_ack && in_flight.iter().filter(|r| r.wants_ack).count() >= w.cfg.max_in_flight {
        return Err(batch);
    }
    let bytes = w
        .wire
        .request_bytes(batch.messages.iter().map(|m| m.payload_bytes));
    let req_id = w.next_request_id;
    match w.conns[ci]
        .channel
        .send_record(Endpoint::A, req_id, bytes, now)
    {
        Ok(()) => {
            w.next_request_id += 1;
            batch.attempts += 1;
            for m in &batch.messages {
                w.ledger.note_attempt(m.key);
            }
            w.stats.requests_sent += 1;
            if batch.attempts > 1 {
                w.stats.retries += 1;
            }
            if w.trace_on {
                let epoch = w.conns[ci].channel.resets() as u32;
                w.trace.record(TraceEvent::RequestSent {
                    at: now,
                    batch: batch.id,
                    request: req_id,
                    conn: ci as u32,
                    epoch,
                    attempt: batch.attempts,
                    records: batch.messages.len() as u64,
                    bytes,
                });
                if batch.attempts > 1 {
                    w.trace.record(TraceEvent::Retry {
                        at: now,
                        batch: batch.id,
                        request: req_id,
                        conn: ci as u32,
                        epoch,
                        attempt: batch.attempts,
                    });
                }
            }
            w.conns[ci].in_flight.push_back(InFlightRequest {
                id: req_id,
                batch,
                sent_at: now,
                wants_ack,
            });
            if wants_ack {
                let timeout_at = now + w.cfg.request_timeout;
                ctx.schedule_at(timeout_at, Event::RequestTimeout { ci, req_id });
            }
            sched_conn_wake(w, ctx, ci);
            Ok(())
        }
        Err(SendRecordError::BufferFull { .. }) => Err(batch),
        Err(SendRecordError::Reconnecting { until }) => {
            ctx.schedule_at(until, Event::DrainBlocked { ci });
            Err(batch)
        }
    }
}

pub(super) fn drain_blocked(w: &mut World, ctx: &mut Ctx, ci: usize) {
    while let Some(batch) = w.conns[ci].blocked.pop_front() {
        match try_send(w, ctx, ci, batch) {
            Ok(()) => {}
            Err(batch) => {
                w.conns[ci].blocked.push_front(batch);
                break;
            }
        }
    }
}

fn sched_conn_wake(w: &mut World, ctx: &mut Ctx, ci: usize) {
    if let Some(t) = w.conns[ci].channel.next_wakeup() {
        let t = t.max(ctx.now());
        if w.conns[ci].wake_at.is_none_or(|s| t < s) {
            w.conns[ci].wake_at = Some(t);
            ctx.schedule_at(t, Event::ConnWake { ci });
        }
    }
}

/// Connection `ci`'s transport has work due: clears the wake it was
/// scheduled for, then pumps the channel.
pub(super) fn on_conn_wake(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    if w.conns[ci].wake_at.is_some_and(|s| s <= now) {
        w.conns[ci].wake_at = None;
    }
    let mut events = std::mem::take(&mut w.chan_events);
    events.clear();
    w.conns[ci].channel.advance_into(now, &mut events);
    let mut drain = false;
    for &ev in &events {
        match ev {
            ChannelEvent::RecordDelivered {
                to: Endpoint::B,
                id,
                ..
            } => on_arrival(w, ctx, ci, id, false),
            ChannelEvent::RecordDelivered {
                to: Endpoint::A,
                id,
                ..
            } => {
                if let Some(req) = w.conns[ci].settle(id) {
                    w.stats.acks_received += 1;
                    w.last_activity = now;
                    if w.trace_on {
                        w.trace.record(TraceEvent::AckReceived {
                            at: now,
                            batch: req.batch.id,
                            request: id,
                            conn: ci as u32,
                            epoch: w.conns[ci].channel.resets() as u32,
                            rtt: now.saturating_since(req.sent_at),
                        });
                    }
                    w.accumulator.recycle(req.batch);
                    drain = true;
                }
            }
            ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::A,
                ..
            } => drain = true,
            ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::B,
                ..
            } => flush_responses(w, ctx, ci),
        }
    }
    w.chan_events = events;
    if drain {
        drain_blocked(w, ctx, ci);
    }
    amo_stall_check(w, ctx, ci);
    sched_conn_wake(w, ctx, ci);
}

/// The broker answers request `id` on connection `ci`, or queues the answer
/// behind a full socket.
pub(super) fn send_response(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64) {
    let now = ctx.now();
    let bytes = w.wire.response_bytes;
    match w.conns[ci].channel.send_record(Endpoint::B, id, bytes, now) {
        Ok(()) => sched_conn_wake(w, ctx, ci),
        Err(_) => w.conns[ci].resp_queue.push_back(id),
    }
}

fn flush_responses(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    while let Some(&id) = w.conns[ci].resp_queue.front() {
        let bytes = w.wire.response_bytes;
        match w.conns[ci].channel.send_record(Endpoint::B, id, bytes, now) {
            Ok(()) => {
                w.conns[ci].resp_queue.pop_front();
            }
            Err(_) => break,
        }
    }
    sched_conn_wake(w, ctx, ci);
}

pub(super) fn on_request_timeout(w: &mut World, ctx: &mut Ctx, ci: usize, req_id: u64) {
    if w.conns[ci].position(req_id).is_none() {
        return; // answered in time
    }
    // An unanswered request fails the whole connection (as in a real
    // client): tear it down and settle everything that was in flight on it.
    tear_down(w, ctx, ci);
}

pub(super) fn amo_stall_check(w: &mut World, ctx: &mut Ctx, ci: usize) {
    if w.cfg.semantics != DeliverySemantics::AtMostOnce {
        return;
    }
    // With acks=0 a batch "completes" at the socket write, so nothing
    // producer-side expires it afterwards; the only thing that kills
    // in-socket data is the transport stalling hard enough (consecutive
    // RTO backoffs with no progress) that the client recycles the
    // connection — exactly the silent-loss mode of a real fire-and-forget
    // producer.
    let now = ctx.now();
    let channel = &w.conns[ci].channel;
    if channel.bytes_unacked(Endpoint::A) == 0 {
        return;
    }
    let backed_off = channel.backoffs(Endpoint::A) >= w.cfg.stall_backoffs;
    let timed_out = channel.is_stalled(Endpoint::A, now, w.cfg.stall_patience);
    if backed_off || timed_out {
        tear_down(w, ctx, ci);
    }
}

/// Tears connection `ci` down (a request timeout, an `acks=0` stall or a
/// broker crash) and settles every request in its queue, in send order, by
/// the acks level it was sent under:
///
/// * a response already on the wire completes its request;
/// * a request whose bytes reach the broker during teardown is appended
///   there, unanswered: an `acks=0` one is then done, an acked one stays in
///   flight and its retry makes the Case 5 duplicate;
/// * an `acks=0` request still in the socket is silently lost, attributable
///   only through the `ConnectionReset` trace event;
/// * an acked request is requeued, or given up once its retries or its
///   deadline are spent.
pub(super) fn tear_down(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    // The trace epoch counts the channel's resets, and only this resets it.
    let epoch = w.conns[ci].channel.resets() as u32;
    let mut report = std::mem::take(&mut w.reset_report);
    w.conns[ci].channel.reset_into(now, &mut report);
    w.stats.connection_resets += 1;
    for &id in report.delivered_to(Endpoint::A) {
        if let Some(req) = w.conns[ci].settle(id) {
            w.accumulator.recycle(req.batch);
        }
    }
    for &id in report.delivered_to(Endpoint::B) {
        on_arrival(w, ctx, ci, id, true);
    }
    w.reset_report = report;
    w.conns[ci].resp_queue.clear();
    // Settled in place, so the queue keeps its capacity across resets: one
    // pass in send order loses the `acks=0` requests and rotates the acked
    // ones to the back, leaving only those, still in send order.
    let mut lost_keys = Vec::new();
    for _ in 0..w.conns[ci].in_flight.len() {
        let Some(req) = w.conns[ci].in_flight.pop_front() else {
            break;
        };
        if req.wants_ack {
            w.conns[ci].in_flight.push_back(req);
            continue;
        }
        for m in &req.batch.messages {
            w.ledger.mark_lost(m.key, LossReason::ConnectionReset);
            if w.trace_on {
                lost_keys.push(m.key.0);
            }
        }
        w.stats.reset_losses += req.batch.messages.len() as u64;
        w.accumulator.recycle(req.batch);
    }
    if w.trace_on {
        w.trace.record(TraceEvent::ConnectionReset {
            at: now,
            conn: ci as u32,
            epoch,
            lost_keys,
        });
    }
    // Requeue newest-first with push_front so the oldest batch (closest to
    // its deadline) ends up at the head of the retry queue.
    while let Some(req) = w.conns[ci].in_flight.pop_back() {
        let mut batch = req.batch;
        // Retries spent: all of it goes; otherwise what passed its deadline.
        let spent = batch.attempts > w.cfg.max_retries;
        let cutoff = if spent { SimTime::MAX } else { now };
        let id = Some(batch.id);
        // Not added to `ProducerStats.expired`, unlike the same drop in
        // `try_send` and housekeeping: counting it moves the benchmark's
        // pinned digests, so it waits for a change that re-pins them.
        w.expire(&mut batch, cutoff, now, LossReason::RetriesExhausted, id);
        if batch.messages.is_empty() {
            w.accumulator.recycle(batch);
        } else {
            w.conns[ci].blocked.push_front(batch);
        }
    }
    let reopen = w.conns[ci].channel.open_at();
    ctx.schedule_at(reopen, Event::DrainBlocked { ci });
    sched_conn_wake(w, ctx, ci);
}
