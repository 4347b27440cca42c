//! The broker seam: a request's arrival becomes a [`RequestInfo`] and,
//! after the broker's processing delay, an append; `acks=all` responses are
//! held for the ISR; follower fetch rounds; broker outages, restarts and
//! the failover that moves leadership off a crashed broker.

use desim::fasthash::{FastMap, FastSet};
use desim::SimTime;
use obs::TraceEvent;

use super::conn::{drain_blocked, send_response, tear_down};
use super::{broker_of, BrokerStats, Ctx, Event, World};
use crate::audit::LossReason;
use crate::broker::ProduceRecord;
use crate::config::DeliverySemantics;
use crate::message::MessageKey;
use crate::producer::PendingBatch;

/// The brokers' request handling: payloads inside their processing delay,
/// held `acks=all` responses and the cluster-side counters.
#[derive(Default)]
pub(super) struct BrokerSide {
    /// Requests whose broker-side processing delay is elapsing: the payload
    /// of a scheduled `Event::Append`, parked here so the event itself
    /// stays a few words (the queue memcpys every entry it sifts).
    append_info: FastMap<u64, RequestInfo>,
    pending_acks: Vec<PendingAck>,
    pub(super) stats: BrokerStats,
    /// Retired record buffers for [`RequestInfo::records`] reuse.
    rec_pool: Vec<Vec<ProduceRecord>>,
    /// Keys appended so far, kept only while tracing, to flag duplicates.
    appended_keys: FastSet<u64>,
}

impl BrokerSide {
    /// Returns a request's record buffer to the pool.
    fn recycle_records(&mut self, mut records: Vec<ProduceRecord>) {
        if self.rec_pool.len() < 256 {
            records.clear();
            self.rec_pool.push(records);
        }
    }
}

/// A request's broker-side payload, built by [`on_arrival`].
struct RequestInfo {
    partition: u32,
    records: Vec<ProduceRecord>,
    wants_ack: bool,
    batch_id: u64,
}

/// An `acks=all` acknowledgement the leader is withholding until every
/// in-sync replica has fetched the request's records.
struct PendingAck {
    conn: usize,
    req_id: u64,
    /// The leader log-end offset the ISR must reach.
    required: u64,
}

/// Request `id`'s bytes reached broker `ci`, in order or — `via_teardown` —
/// while its connection was being torn down: builds the records the broker
/// stores from the queued batch and schedules the append after the
/// broker's processing delay. An `acks=0` request is settled here, its
/// bytes out of reset risk; an acked one stays in flight until its ack. The
/// request is still queued: an ack needs its bytes here first, and a
/// teardown schedules what arrived during it before taking the queue.
pub(super) fn on_arrival(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64, via_teardown: bool) {
    let mut records = w.brokers.rec_pool.pop().unwrap_or_default();
    let conn = &mut w.conns[ci];
    // The channel delivers only records written to it, and a request leaves
    // the queue only once its bytes have arrived (`acks=0`, below), its ack
    // has, or a teardown took the queue after scheduling what arrived.
    let i = conn.position(id).expect("bytes arrive while queued");
    let req = &conn.in_flight[i];
    req.batch.to_records_into(&mut records);
    let info = RequestInfo {
        partition: req.batch.partition,
        records,
        wants_ack: req.wants_ack,
        batch_id: req.batch.id,
    };
    if !info.wants_ack {
        // `i` was found in this queue just above.
        let req = conn.in_flight.remove(i).expect("position is in the queue");
        w.accumulator.recycle(req.batch);
    }
    // Connections are built one per broker, so `ci` names a broker.
    let broker = w.cluster.broker(broker_of(ci)).expect("broker exists");
    let proc = broker.processing_time(info.records.len());
    w.brokers.append_info.insert(id, info);
    ctx.schedule_in(
        proc,
        Event::Append {
            ci,
            id,
            via_teardown,
        },
    );
}

/// Broker-side append of a request whose processing delay elapsed. For a
/// regular arrival (`via_teardown == false`) the broker then answers (or
/// holds the answer under `acks=all`); a teardown append persists the
/// records but can never respond — its connection is gone.
///
/// A failover can move the partition off this broker while the request is
/// inside its processing delay (the broker crashed, and the election came
/// first). The broker then refuses the append. An acked request gets no
/// response: the crash's teardown already requeued it, and its retry goes
/// to the new leader. An `acks=0` request's messages are lost to the
/// failover.
pub(super) fn do_append(w: &mut World, ctx: &mut Ctx, ci: usize, id: u64, via_teardown: bool) {
    // `on_arrival` parks the payload under `id` and schedules this
    // event once; nothing else takes it out.
    let parked = w.brokers.append_info.remove(&id);
    let info = parked.expect("append payload parked");
    let now = ctx.now();
    // Connections are built one per broker, so `ci` names a broker.
    let broker = w.cluster.broker_mut(broker_of(ci)).expect("broker exists");
    let Ok(base) = broker.append(info.partition, &info.records, now) else {
        if !info.wants_ack {
            let keys = info.records.iter().map(|r| r.key);
            w.lose(now, keys, LossReason::LeaderFailover, Some(info.batch_id));
        }
        w.brokers.recycle_records(info.records);
        return;
    };
    w.last_activity = now;
    if w.trace_on {
        // One `BrokerAppend` per record, tagging the keys already in a
        // partition log: those appends are the moments Case 5 duplicates
        // come into being.
        for (i, r) in info.records.iter().enumerate() {
            let duplicate = !w.brokers.appended_keys.insert(r.key.0);
            w.trace.record(TraceEvent::BrokerAppend {
                at: now,
                batch: info.batch_id,
                request: id,
                broker: broker_of(ci).0,
                partition: info.partition,
                key: r.key.0,
                offset: base + i as u64,
                latency: now.saturating_since(r.created_at),
                duplicate,
                via_teardown,
            });
        }
    }
    if !via_teardown && info.wants_ack {
        let required = base + info.records.len() as u64;
        if w.cfg.semantics == DeliverySemantics::All && !w.cluster.isr_has(info.partition, required)
        {
            // acks=all: hold the response until every in-sync replica
            // has fetched up to this batch's last offset. The next
            // replication tick (or an ISR shrink) releases it.
            w.brokers.stats.acks_held += 1;
            w.brokers.pending_acks.push(PendingAck {
                conn: ci,
                req_id: id,
                required,
            });
        } else {
            send_response(w, ctx, ci, id);
        }
    }
    w.brokers.recycle_records(info.records);
}

/// A broker crashes: the connection dies exactly like a stall-reset, but
/// nothing can be resent to this broker until it returns (or leadership
/// moves).
pub(super) fn on_outage_start(w: &mut World, ctx: &mut Ctx, ci: usize, until: SimTime) {
    w.cluster.crash(broker_of(ci), until);
    if w.trace_on {
        w.trace.record(TraceEvent::BrokerDown {
            at: ctx.now(),
            broker: broker_of(ci).0,
        });
    }
    tear_down(w, ctx, ci);
}

/// The broker's outage window ends: the connection is usable again and the
/// broker's replicas start catching up (rejoining ISRs via fetch rounds).
pub(super) fn on_broker_up(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    if w.cluster.is_down(broker_of(ci), now) {
        return; // a later outage window is still in force
    }
    if w.trace_on {
        w.trace.record(TraceEvent::BrokerUp {
            at: now,
            broker: broker_of(ci).0,
        });
    }
    drain_blocked(w, ctx, ci);
}

/// The controller detects the dead broker and elects a new leader for each
/// partition it led: from the ISR when possible (clean — no acknowledged
/// record can be lost), from the least-lagging live replica when unclean
/// election is enabled (truncating everything the winner had not fetched),
/// or — when the partition has no replica to elect (`factor == 1`) — via
/// the legacy fresh-log transfer to the first alive broker. The producer
/// re-routes its backlog to the new leaders.
pub(super) fn on_failover(w: &mut World, ctx: &mut Ctx, ci: usize) {
    let now = ctx.now();
    if !w.cluster.is_down(broker_of(ci), now) {
        return; // back already
    }
    for partition in 0..w.cluster.partitions() {
        if w.cluster.leader_of(partition) != broker_of(ci) {
            continue;
        }
        let candidate = w.cluster.election_candidate(partition, now);
        let (leader, clean, truncated_keys, lost_keys) = if let Some((candidate, _)) = candidate {
            let outcome = w.cluster.elect_leader(partition, candidate, now);
            let stats = &mut w.brokers.stats;
            if outcome.clean {
                stats.clean_elections += 1;
            } else {
                stats.unclean_elections += 1;
            }
            stats.records_truncated += outcome.truncated.len() as u64;
            let mut truncated_keys: Vec<u64> = outcome.truncated.iter().map(|r| r.key.0).collect();
            truncated_keys.sort_unstable();
            // A truncated key with no surviving copy in the new leader's
            // log is broker-caused loss. The mark is pessimistic on
            // purpose: an unacknowledged copy may still be retried to the
            // new leader, and the audit trusts the final log over the mark.
            let surviving: FastSet<u64> = w
                .cluster
                .broker(outcome.leader)
                .and_then(|b| b.log(partition))
                .map(|log| log.keys().iter().map(|k| k.0).collect())
                .unwrap_or_default();
            let mut lost_keys = truncated_keys.clone();
            lost_keys.dedup();
            lost_keys.retain(|k| !surviving.contains(k));
            for &k in &lost_keys {
                w.ledger
                    .mark_lost(MessageKey(k), LossReason::LeaderFailover);
            }
            w.brokers.stats.lost_to_failover += lost_keys.len() as u64;
            (outcome.leader, outcome.clean, truncated_keys, lost_keys)
        } else {
            let target = (0..w.conns.len())
                .map(broker_of)
                .find(|&b| b != broker_of(ci) && !w.cluster.is_down(b, now));
            let Some(to) = target else {
                continue; // nowhere to go
            };
            w.cluster.transfer_leadership(partition, to);
            (to, false, Vec::new(), Vec::new())
        };
        w.brokers.stats.failovers += 1;
        if w.trace_on {
            w.trace.record(TraceEvent::LeaderElected {
                at: now,
                partition,
                leader: leader.0,
                clean,
                truncated_keys,
                lost_keys,
            });
        }
    }
    // Re-route the backlog to the new leaders' connections.
    let backlog: Vec<PendingBatch> = w.conns[ci].blocked.drain(..).collect();
    for batch in backlog {
        let new_ci = w.cluster.leader_of(batch.partition).0 as usize;
        w.conns[new_ci].blocked.push_back(batch);
    }
    for c in 0..w.conns.len() {
        drain_blocked(w, ctx, c);
    }
    // The election may have shrunk an ISR past a held ack's requirement.
    release_pending_acks(w, ctx);
}

/// One follower-fetch round: followers pull from their leaders, the ISR is
/// re-evaluated against `replica.lag.time.max`, and held `acks=all`
/// responses whose offsets are now fully in-sync are released.
///
/// Deliberately leaves `last_activity` alone — replication traffic on its
/// own never keeps a run alive.
pub(super) fn replication_tick(w: &mut World, ctx: &mut Ctx) {
    let now = ctx.now();
    for event in w.cluster.replicate(now) {
        let stats = &mut w.brokers.stats;
        match event {
            TraceEvent::ReplicaFetch { .. } => stats.replica_fetches += 1,
            TraceEvent::IsrShrink { .. } => stats.isr_shrinks += 1,
            TraceEvent::IsrExpand { .. } => stats.isr_expands += 1,
            _ => {} // `replicate` reports nothing else
        }
        if w.trace_on {
            w.trace.record(event);
        }
    }
    release_pending_acks(w, ctx);
    if !w.finished {
        let interval = w.cluster.spec().replication.fetch_interval;
        ctx.schedule_in(interval, Event::ReplicationTick);
    }
}

/// Sends every held `acks=all` response whose required offset the ISR now
/// has, and drops entries whose request is no longer in flight (the
/// connection reset underneath them and the batch went back to the retry
/// queue).
fn release_pending_acks(w: &mut World, ctx: &mut Ctx) {
    let pending = std::mem::take(&mut w.brokers.pending_acks);
    for ack in pending {
        let conn = &w.conns[ack.conn];
        let Some(i) = conn.position(ack.req_id) else {
            continue; // reset underneath us: the batch will be retried
        };
        if w.cluster
            .isr_has(conn.in_flight[i].batch.partition, ack.required)
        {
            send_response(w, ctx, ack.conn, ack.req_id);
        } else {
            w.brokers.pending_acks.push(ack);
        }
    }
}
