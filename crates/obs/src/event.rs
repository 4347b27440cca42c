//! The trace-event taxonomy: one variant per hop of a message's life.
//!
//! Every event is stamped with the simulated time it happened and with the
//! identifiers needed to join it back to the rest of the story: the message
//! key, the producer batch id, and the connection *epoch* (how many times
//! that connection had been torn down and re-established when the event
//! fired — two events with the same `conn` but different `epoch` happened
//! on different TCP incarnations).

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Why the producer gave up on a message.
///
/// One enum for the trace and the audit: `kafkasim` re-exports it as
/// `LossReason`, so the per-message attribution the reconstructor produces
/// is compared with the end-of-run audit's histogram directly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LossCause {
    /// Expired in the accumulator before (or between) send attempts
    /// (`T_o` elapsed).
    ExpiredInBuffer,
    /// The accumulator was full when the message arrived
    /// (`buffer.memory` exhausted).
    BufferOverflow,
    /// Retries `τ_r` (or the message deadline) were exhausted
    /// (at-least-once).
    RetriesExhausted,
    /// Discarded with a torn-down connection's socket buffer
    /// (at-most-once's silent loss).
    ConnectionReset,
    /// Still unresolved when the run's hard horizon ended.
    UnsentAtEnd,
    /// Truncated from a partition log when leadership moved to a replica
    /// that had not yet fetched the record — the broker-caused loss of an
    /// unclean leader election (or of a failover under `acks < all`),
    /// distinct from every network-caused cause above.
    LeaderFailover,
}

impl LossCause {
    /// Every cause, in declaration (= `Ord`) order.
    pub const ALL: [LossCause; 6] = [
        LossCause::ExpiredInBuffer,
        LossCause::BufferOverflow,
        LossCause::RetriesExhausted,
        LossCause::ConnectionReset,
        LossCause::UnsentAtEnd,
        LossCause::LeaderFailover,
    ];

    /// Non-zero tag for packed `Option`-free columns (0 means "not lost").
    #[must_use]
    pub const fn tag(self) -> u8 {
        self as u8 + 1
    }

    /// Inverse of [`LossCause::tag`]; `None` for 0 or out of range.
    #[must_use]
    pub fn from_tag(tag: u8) -> Option<LossCause> {
        (tag as usize)
            .checked_sub(1)
            .and_then(|i| LossCause::ALL.get(i).copied())
    }
}

impl core::fmt::Display for LossCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            LossCause::ExpiredInBuffer => "expired-in-buffer",
            LossCause::BufferOverflow => "buffer-overflow",
            LossCause::RetriesExhausted => "retries-exhausted",
            LossCause::ConnectionReset => "connection-reset",
            LossCause::UnsentAtEnd => "unsent-at-end",
            LossCause::LeaderFailover => "leader-failover",
        };
        write!(f, "{s}")
    }
}

/// One structured observation on the message path.
///
/// The variants follow the paper's message state machine (Fig. 2): a
/// message is *enqueued*, batched, sent as a produce request, appended by
/// the broker and finally read back by the consumer — or it drops out of
/// the pipeline through one of the loss modes (`Expired`,
/// `ConnectionReset`). `Retry` and the `duplicate` flag on `BrokerAppend`
/// mark the path that produces the paper's Case 5 duplicates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum TraceEvent {
    /// A source message entered the producer (and its ledger).
    Enqueued {
        /// When it arrived.
        at: SimTime,
        /// Its unique key.
        key: u64,
        /// The partition the sticky partitioner chose.
        partition: u32,
        /// Its hard delivery deadline (`created_at + T_o`).
        deadline: SimTime,
    },
    /// The producer gave up on a message: the generalised expiry event
    /// covering every producer-side loss mode except the in-socket loss of
    /// a reset connection (see [`TraceEvent::ConnectionReset`]).
    Expired {
        /// When the producer dropped it.
        at: SimTime,
        /// The dropped message.
        key: u64,
        /// Which loss mode fired.
        cause: LossCause,
        /// The batch it was riding in, when it had one.
        batch: Option<u64>,
    },
    /// The sender picked a sealed batch for serialisation.
    BatchFormed {
        /// When the sender picked it.
        at: SimTime,
        /// Batch id (unique per run).
        batch: u64,
        /// Destination partition.
        partition: u32,
        /// Keys of the batched messages.
        keys: Vec<u64>,
        /// Total payload bytes.
        bytes: u64,
    },
    /// A produce request was written to a connection's socket.
    RequestSent {
        /// Socket-write instant.
        at: SimTime,
        /// The batch being carried.
        batch: u64,
        /// Wire-level request id.
        request: u64,
        /// Connection index (one per broker).
        conn: u32,
        /// Connection epoch at send time.
        epoch: u32,
        /// Kafka-level attempt number (1 = first try).
        attempt: u32,
        /// Records in the request.
        records: u64,
        /// Request size on the wire.
        bytes: u64,
    },
    /// The producer received the broker's acknowledgement (`acks=1` only).
    AckReceived {
        /// When the ack arrived.
        at: SimTime,
        /// The acknowledged batch.
        batch: u64,
        /// The acknowledged request.
        request: u64,
        /// Connection index.
        conn: u32,
        /// Connection epoch.
        epoch: u32,
        /// Request round-trip time (send to ack).
        rtt: SimDuration,
    },
    /// A batch went out again after an earlier attempt failed.
    Retry {
        /// Socket-write instant of the retry.
        at: SimTime,
        /// The retried batch.
        batch: u64,
        /// The new request id.
        request: u64,
        /// Connection index.
        conn: u32,
        /// Connection epoch.
        epoch: u32,
        /// Attempt number of this send (≥ 2).
        attempt: u32,
    },
    /// The producer tore a connection down (request timeout, transport
    /// stall, or broker outage). Under `acks=0` the messages still in the
    /// socket die with it: their keys are listed here — this is the only
    /// trace of at-most-once's silent loss.
    ConnectionReset {
        /// Reset instant.
        at: SimTime,
        /// Connection index.
        conn: u32,
        /// The epoch that just ended (events carrying this epoch happened
        /// on the incarnation being torn down).
        epoch: u32,
        /// Keys silently lost in the dead socket (`acks=0` only; empty
        /// under `acks=1`, where the in-flight batches are retried and
        /// their fate shows up as `Retry`/`Expired` events instead).
        lost_keys: Vec<u64>,
    },
    /// The broker appended one record to a partition log.
    BrokerAppend {
        /// Append instant (after broker processing time).
        at: SimTime,
        /// The batch the record came from.
        batch: u64,
        /// The carrying request.
        request: u64,
        /// The appending broker.
        broker: u32,
        /// Partition log.
        partition: u32,
        /// Record key.
        key: u64,
        /// Offset assigned in the partition log.
        offset: u64,
        /// Producer-enqueue → broker-append latency of this copy: the
        /// end-to-end delivery latency when `duplicate` is `false`.
        latency: SimDuration,
        /// `true` when this key was already in some partition log — the
        /// append that *creates* a paper Case 5 duplicate.
        duplicate: bool,
        /// `true` when the request arrived while its connection was being
        /// torn down, so no response could ever reach the producer (the
        /// classic ack-lost path to duplicates).
        via_teardown: bool,
    },
    /// The end-of-run consumer read one record back.
    ConsumerRead {
        /// Read instant (the audit replay time).
        at: SimTime,
        /// Record key.
        key: u64,
        /// Partition it was stored in.
        partition: u32,
        /// Offset within the partition.
        offset: u64,
        /// Producer-to-broker latency of this copy.
        latency: SimDuration,
    },
    /// A follower replica fetched records from its partition leader.
    ReplicaFetch {
        /// Fetch instant (one replication tick).
        at: SimTime,
        /// Partition being replicated.
        partition: u32,
        /// The leader being fetched from.
        leader: u32,
        /// The fetching follower.
        follower: u32,
        /// The follower's log-end offset before the fetch.
        from_offset: u64,
        /// Records copied in this fetch.
        records: u64,
    },
    /// A replica fell further behind than `replica.lag.time.max` and was
    /// evicted from the in-sync replica set.
    IsrShrink {
        /// Eviction instant.
        at: SimTime,
        /// Partition whose ISR shrank.
        partition: u32,
        /// The evicted replica's broker.
        broker: u32,
        /// The ISR after the shrink (broker ids).
        isr: Vec<u32>,
    },
    /// A lagging replica caught back up to the leader's log end and
    /// rejoined the in-sync replica set.
    IsrExpand {
        /// Rejoin instant.
        at: SimTime,
        /// Partition whose ISR grew.
        partition: u32,
        /// The rejoining replica's broker.
        broker: u32,
        /// The ISR after the expansion (broker ids).
        isr: Vec<u32>,
    },
    /// A partition elected a new leader after its old leader went down.
    ///
    /// `clean` elections promote an in-sync replica; unclean elections
    /// promote a lagging one, truncating the log to the new leader's
    /// fetched offset — `truncated_keys` lists every destroyed record copy
    /// and `lost_keys` the keys with *no* surviving copy (broker-caused
    /// loss, attributed to [`LossCause::LeaderFailover`]).
    LeaderElected {
        /// Election instant.
        at: SimTime,
        /// The partition changing leaders.
        partition: u32,
        /// The newly elected leader's broker.
        leader: u32,
        /// `true` when the new leader came from the ISR.
        clean: bool,
        /// Keys of record copies truncated off the log (with multiplicity:
        /// a key appended twice and truncated twice appears twice).
        truncated_keys: Vec<u64>,
        /// Truncated keys that now have zero surviving copies anywhere.
        lost_keys: Vec<u64>,
    },
    /// A broker crashed (fault injection) and stopped serving.
    BrokerDown {
        /// Crash instant.
        at: SimTime,
        /// The crashed broker.
        broker: u32,
    },
    /// A crashed broker restarted and rejoined (as a lagging follower for
    /// partitions it used to lead).
    BrokerUp {
        /// Restart instant.
        at: SimTime,
        /// The restarted broker.
        broker: u32,
    },
    /// A consumer joined its group (fleet runs): the join that triggers a
    /// generation bump and a partition rebalance.
    ConsumerJoined {
        /// Join instant.
        at: SimTime,
        /// The joining member's id.
        member: u32,
        /// The group generation *after* the join's rebalance.
        generation: u64,
    },
    /// A consumer left its group (fleet runs), orphaning its partitions
    /// until the rebalance reassigns them.
    ConsumerLeft {
        /// Leave instant.
        at: SimTime,
        /// The departing member's id.
        member: u32,
        /// The group generation *after* the leave's rebalance.
        generation: u64,
    },
    /// One member's partition assignment after a group rebalance (fleet
    /// runs emit one of these per surviving member per rebalance).
    PartitionsAssigned {
        /// Assignment instant.
        at: SimTime,
        /// The member receiving the assignment.
        member: u32,
        /// The group generation this assignment belongs to.
        generation: u64,
        /// The partitions the member now owns.
        partitions: Vec<u32>,
        /// How many of those partitions changed owner in this rebalance
        /// (the "storm" size; moved partitions pause consumption and
        /// re-read under at-least-once, producing duplicates).
        moved: u64,
    },
    /// A periodic sample of a named cumulative counter from a non-trace
    /// source (the planner cache, the online controller), interleaved
    /// into the event stream so windowed recorders can difference it
    /// per window. `value` is the counter's cumulative total at `at`.
    CounterSample {
        /// Sampling instant.
        at: SimTime,
        /// Counter name (e.g. `"planner-cache-hit"`).
        name: String,
        /// Cumulative counter value at `at`.
        value: u64,
    },
    /// The control plane's drift detector flagged that recent prediction
    /// error has moved away from its baseline; a refit follows.
    PolicyDrift {
        /// Detection instant (the online-controller tick that saw it).
        at: SimTime,
        /// Mean |predicted − observed| loss-probability error over the
        /// recent window that tripped the detector.
        error: f64,
        /// The baseline mean error the detector compares against.
        baseline: f64,
        /// The detector's window length in samples.
        window: u64,
    },
    /// The control plane refit its model online and bumped the model
    /// generation, invalidating every cached prediction from earlier
    /// generations.
    PolicyRefit {
        /// Refit instant.
        at: SimTime,
        /// The model generation *after* the refit.
        generation: u64,
        /// How many replay-buffer samples the refit trained on.
        samples: u64,
    },
}

impl TraceEvent {
    /// The simulated instant the event fired.
    #[must_use]
    pub fn at(&self) -> SimTime {
        match self {
            TraceEvent::Enqueued { at, .. }
            | TraceEvent::Expired { at, .. }
            | TraceEvent::BatchFormed { at, .. }
            | TraceEvent::RequestSent { at, .. }
            | TraceEvent::AckReceived { at, .. }
            | TraceEvent::Retry { at, .. }
            | TraceEvent::ConnectionReset { at, .. }
            | TraceEvent::BrokerAppend { at, .. }
            | TraceEvent::ConsumerRead { at, .. }
            | TraceEvent::ReplicaFetch { at, .. }
            | TraceEvent::IsrShrink { at, .. }
            | TraceEvent::IsrExpand { at, .. }
            | TraceEvent::LeaderElected { at, .. }
            | TraceEvent::BrokerDown { at, .. }
            | TraceEvent::BrokerUp { at, .. }
            | TraceEvent::ConsumerJoined { at, .. }
            | TraceEvent::ConsumerLeft { at, .. }
            | TraceEvent::PartitionsAssigned { at, .. }
            | TraceEvent::CounterSample { at, .. }
            | TraceEvent::PolicyDrift { at, .. }
            | TraceEvent::PolicyRefit { at, .. } => *at,
        }
    }

    /// A short stable name for the event kind (metric/counter label).
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::Enqueued { .. } => "enqueued",
            TraceEvent::Expired { .. } => "expired",
            TraceEvent::BatchFormed { .. } => "batch-formed",
            TraceEvent::RequestSent { .. } => "request-sent",
            TraceEvent::AckReceived { .. } => "ack-received",
            TraceEvent::Retry { .. } => "retry",
            TraceEvent::ConnectionReset { .. } => "connection-reset",
            TraceEvent::BrokerAppend { .. } => "broker-append",
            TraceEvent::ConsumerRead { .. } => "consumer-read",
            TraceEvent::ReplicaFetch { .. } => "replica-fetch",
            TraceEvent::IsrShrink { .. } => "isr-shrink",
            TraceEvent::IsrExpand { .. } => "isr-expand",
            TraceEvent::LeaderElected { .. } => "leader-elected",
            TraceEvent::BrokerDown { .. } => "broker-down",
            TraceEvent::BrokerUp { .. } => "broker-up",
            TraceEvent::ConsumerJoined { .. } => "consumer-joined",
            TraceEvent::ConsumerLeft { .. } => "consumer-left",
            TraceEvent::PartitionsAssigned { .. } => "partitions-assigned",
            TraceEvent::CounterSample { .. } => "counter-sample",
            TraceEvent::PolicyDrift { .. } => "policy-drift",
            TraceEvent::PolicyRefit { .. } => "policy-refit",
        }
    }

    /// The message key the event is directly about, when it names one.
    #[must_use]
    pub fn key(&self) -> Option<u64> {
        match self {
            TraceEvent::Enqueued { key, .. }
            | TraceEvent::Expired { key, .. }
            | TraceEvent::BrokerAppend { key, .. }
            | TraceEvent::ConsumerRead { key, .. } => Some(*key),
            _ => None,
        }
    }

    /// The batch id the event carries, when it has one.
    #[must_use]
    pub fn batch(&self) -> Option<u64> {
        match self {
            TraceEvent::Expired { batch, .. } => *batch,
            TraceEvent::BatchFormed { batch, .. }
            | TraceEvent::RequestSent { batch, .. }
            | TraceEvent::AckReceived { batch, .. }
            | TraceEvent::Retry { batch, .. }
            | TraceEvent::BrokerAppend { batch, .. } => Some(*batch),
            _ => None,
        }
    }
}

impl core::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let t = self.at();
        match self {
            TraceEvent::Enqueued {
                key,
                partition,
                deadline,
                ..
            } => write!(
                f,
                "{t} msg#{key} enqueued for partition {partition} (deadline {deadline})"
            ),
            TraceEvent::Expired {
                key, cause, batch, ..
            } => match batch {
                Some(b) => write!(f, "{t} msg#{key} dropped in batch {b}: {cause}"),
                None => write!(f, "{t} msg#{key} dropped: {cause}"),
            },
            TraceEvent::BatchFormed {
                batch,
                partition,
                keys,
                bytes,
                ..
            } => write!(
                f,
                "{t} batch {batch} formed for partition {partition}: {} records, {bytes} B",
                keys.len()
            ),
            TraceEvent::RequestSent {
                batch,
                request,
                conn,
                epoch,
                attempt,
                records,
                ..
            } => {
                write!(
                    f,
                    "{t} request {request} (batch {batch}, attempt {attempt}, {records} records) \
                     sent on conn {conn}/e{epoch}"
                )
            }
            TraceEvent::AckReceived {
                batch,
                request,
                conn,
                epoch,
                rtt,
                ..
            } => write!(
                f,
                "{t} ack for request {request} (batch {batch}) on conn {conn}/e{epoch}, rtt {rtt}"
            ),
            TraceEvent::Retry {
                batch,
                request,
                conn,
                epoch,
                attempt,
                ..
            } => write!(
                f,
                "{t} retry of batch {batch} as request {request} (attempt {attempt}) \
                 on conn {conn}/e{epoch}"
            ),
            TraceEvent::ConnectionReset {
                conn,
                epoch,
                lost_keys,
                ..
            } => {
                if lost_keys.is_empty() {
                    write!(f, "{t} conn {conn}/e{epoch} reset")
                } else {
                    write!(
                        f,
                        "{t} conn {conn}/e{epoch} reset, {} messages died in the socket",
                        lost_keys.len()
                    )
                }
            }
            TraceEvent::BrokerAppend {
                key,
                batch,
                broker,
                partition,
                offset,
                duplicate,
                via_teardown,
                ..
            } => {
                let dup = if *duplicate { " DUPLICATE" } else { "" };
                let tear = if *via_teardown {
                    " (during teardown, no ack possible)"
                } else {
                    ""
                };
                write!(
                    f,
                    "{t} broker {broker} appended msg#{key} (batch {batch}) \
                     at partition {partition} offset {offset}{dup}{tear}"
                )
            }
            TraceEvent::ConsumerRead {
                key,
                partition,
                offset,
                latency,
                ..
            } => write!(
                f,
                "{t} consumer read msg#{key} from partition {partition} offset {offset} \
                 (latency {latency})"
            ),
            TraceEvent::ReplicaFetch {
                partition,
                leader,
                follower,
                from_offset,
                records,
                ..
            } => write!(
                f,
                "{t} follower {follower} fetched {records} records of partition {partition} \
                 from leader {leader} (offset {from_offset})"
            ),
            TraceEvent::IsrShrink {
                partition,
                broker,
                isr,
                ..
            } => write!(
                f,
                "{t} broker {broker} evicted from ISR of partition {partition} (ISR now {isr:?})"
            ),
            TraceEvent::IsrExpand {
                partition,
                broker,
                isr,
                ..
            } => write!(
                f,
                "{t} broker {broker} rejoined ISR of partition {partition} (ISR now {isr:?})"
            ),
            TraceEvent::LeaderElected {
                partition,
                leader,
                clean,
                truncated_keys,
                lost_keys,
                ..
            } => {
                let mode = if *clean { "clean" } else { "UNCLEAN" };
                write!(
                    f,
                    "{t} {mode} election: broker {leader} now leads partition {partition} \
                     ({} copies truncated, {} messages lost)",
                    truncated_keys.len(),
                    lost_keys.len()
                )
            }
            TraceEvent::BrokerDown { broker, .. } => write!(f, "{t} broker {broker} crashed"),
            TraceEvent::BrokerUp { broker, .. } => write!(f, "{t} broker {broker} restarted"),
            TraceEvent::ConsumerJoined {
                member, generation, ..
            } => write!(f, "{t} consumer {member} joined (generation {generation})"),
            TraceEvent::ConsumerLeft {
                member, generation, ..
            } => write!(f, "{t} consumer {member} left (generation {generation})"),
            TraceEvent::PartitionsAssigned {
                member,
                generation,
                partitions,
                moved,
                ..
            } => write!(
                f,
                "{t} consumer {member} assigned {} partitions in generation {generation} \
                 ({moved} moved)",
                partitions.len()
            ),
            TraceEvent::CounterSample { name, value, .. } => {
                write!(f, "{t} counter {name} = {value}")
            }
            TraceEvent::PolicyDrift {
                error,
                baseline,
                window,
                ..
            } => write!(
                f,
                "{t} policy drift: mean error {error:.4} vs baseline {baseline:.4} \
                 over {window} windows"
            ),
            TraceEvent::PolicyRefit {
                generation,
                samples,
                ..
            } => write!(
                f,
                "{t} policy refit: model generation {generation} ({samples} samples)"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_cover_every_variant() {
        let ev = TraceEvent::Enqueued {
            at: SimTime::from_millis(5),
            key: 3,
            partition: 0,
            deadline: SimTime::from_millis(505),
        };
        assert_eq!(ev.at(), SimTime::from_millis(5));
        assert_eq!(ev.kind(), "enqueued");
        assert_eq!(ev.key(), Some(3));
        assert_eq!(ev.batch(), None);

        let ev = TraceEvent::BrokerAppend {
            at: SimTime::from_millis(9),
            batch: 7,
            request: 11,
            broker: 0,
            partition: 2,
            key: 3,
            offset: 0,
            latency: SimDuration::from_millis(6),
            duplicate: true,
            via_teardown: false,
        };
        assert_eq!(ev.key(), Some(3));
        assert_eq!(ev.batch(), Some(7));
        assert!(ev.to_string().contains("DUPLICATE"));
    }

    #[test]
    fn loss_cause_displays_kebab_case() {
        assert_eq!(LossCause::ExpiredInBuffer.to_string(), "expired-in-buffer");
        assert_eq!(LossCause::ConnectionReset.to_string(), "connection-reset");
        assert_eq!(LossCause::LeaderFailover.to_string(), "leader-failover");
        assert_eq!(LossCause::ALL.len(), 6);
        for cause in LossCause::ALL {
            assert_eq!(LossCause::from_tag(cause.tag()), Some(cause));
        }
        assert_eq!(LossCause::from_tag(0), None);
        assert_eq!(LossCause::from_tag(7), None);
    }

    #[test]
    fn broker_fault_events_have_kinds_and_narration() {
        let ev = TraceEvent::LeaderElected {
            at: SimTime::from_millis(40),
            partition: 1,
            leader: 2,
            clean: false,
            truncated_keys: vec![7, 8, 8],
            lost_keys: vec![7],
        };
        assert_eq!(ev.kind(), "leader-elected");
        assert_eq!(ev.key(), None);
        assert_eq!(ev.batch(), None);
        assert!(ev.to_string().contains("UNCLEAN"));
        assert!(ev.to_string().contains("3 copies truncated"));

        let ev = TraceEvent::ReplicaFetch {
            at: SimTime::from_millis(41),
            partition: 0,
            leader: 0,
            follower: 1,
            from_offset: 5,
            records: 3,
        };
        assert_eq!(ev.kind(), "replica-fetch");
        assert!(ev.to_string().contains("fetched 3 records"));

        for ev in [
            TraceEvent::IsrShrink {
                at: SimTime::from_millis(42),
                partition: 0,
                broker: 1,
                isr: vec![0],
            },
            TraceEvent::IsrExpand {
                at: SimTime::from_millis(43),
                partition: 0,
                broker: 1,
                isr: vec![0, 1],
            },
            TraceEvent::BrokerDown {
                at: SimTime::from_millis(44),
                broker: 0,
            },
            TraceEvent::BrokerUp {
                at: SimTime::from_millis(45),
                broker: 0,
            },
        ] {
            assert!(!ev.kind().is_empty());
            assert!(!ev.to_string().is_empty());
        }
    }

    #[test]
    fn group_events_have_kinds_and_narration() {
        let joined = TraceEvent::ConsumerJoined {
            at: SimTime::from_millis(50),
            member: 8,
            generation: 2,
        };
        assert_eq!(joined.kind(), "consumer-joined");
        assert_eq!(joined.key(), None);
        assert!(joined.to_string().contains("consumer 8 joined"));

        let left = TraceEvent::ConsumerLeft {
            at: SimTime::from_millis(60),
            member: 2,
            generation: 3,
        };
        assert_eq!(left.kind(), "consumer-left");
        assert!(left.to_string().contains("generation 3"));

        let assigned = TraceEvent::PartitionsAssigned {
            at: SimTime::from_millis(60),
            member: 0,
            generation: 3,
            partitions: vec![0, 1, 2, 3],
            moved: 2,
        };
        assert_eq!(assigned.kind(), "partitions-assigned");
        assert_eq!(assigned.batch(), None);
        assert!(assigned.to_string().contains("assigned 4 partitions"));
        assert!(assigned.to_string().contains("2 moved"));
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            TraceEvent::Expired {
                at: SimTime::from_millis(1),
                key: 0,
                cause: LossCause::BufferOverflow,
                batch: None,
            },
            TraceEvent::ConnectionReset {
                at: SimTime::from_millis(2),
                conn: 1,
                epoch: 0,
                lost_keys: vec![4, 5],
            },
            TraceEvent::LeaderElected {
                at: SimTime::from_millis(3),
                partition: 2,
                leader: 1,
                clean: true,
                truncated_keys: vec![],
                lost_keys: vec![],
            },
            TraceEvent::IsrShrink {
                at: SimTime::from_millis(4),
                partition: 2,
                broker: 0,
                isr: vec![1, 2],
            },
            TraceEvent::BrokerDown {
                at: SimTime::from_millis(5),
                broker: 0,
            },
        ];
        for ev in &events {
            let line = serde_json::to_string(ev).unwrap();
            let back: TraceEvent = serde_json::from_str(&line).unwrap();
            assert_eq!(&back, ev);
        }
    }

    /// One instance of every variant, with every `Option` and `Vec`
    /// field exercised in both empty and populated forms where cheap.
    fn one_of_each_variant() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Enqueued {
                at: SimTime::from_millis(1),
                key: 10,
                partition: 0,
                deadline: SimTime::from_millis(501),
            },
            TraceEvent::Expired {
                at: SimTime::from_millis(2),
                key: 11,
                cause: LossCause::RetriesExhausted,
                batch: Some(3),
            },
            TraceEvent::BatchFormed {
                at: SimTime::from_millis(3),
                batch: 3,
                partition: 1,
                keys: vec![10, 11],
                bytes: 400,
            },
            TraceEvent::RequestSent {
                at: SimTime::from_millis(4),
                batch: 3,
                request: 7,
                conn: 1,
                epoch: 2,
                attempt: 1,
                records: 2,
                bytes: 400,
            },
            TraceEvent::AckReceived {
                at: SimTime::from_millis(5),
                batch: 3,
                request: 7,
                conn: 1,
                epoch: 2,
                rtt: SimDuration::from_millis(80),
            },
            TraceEvent::Retry {
                at: SimTime::from_millis(6),
                batch: 3,
                request: 8,
                conn: 1,
                epoch: 2,
                attempt: 2,
            },
            TraceEvent::ConnectionReset {
                at: SimTime::from_millis(7),
                conn: 1,
                epoch: 2,
                lost_keys: vec![12, 13],
            },
            TraceEvent::BrokerAppend {
                at: SimTime::from_millis(8),
                batch: 3,
                request: 7,
                broker: 0,
                partition: 1,
                key: 10,
                offset: 42,
                latency: SimDuration::from_millis(90),
                duplicate: false,
                via_teardown: true,
            },
            TraceEvent::ConsumerRead {
                at: SimTime::from_millis(9),
                key: 10,
                partition: 1,
                offset: 42,
                latency: SimDuration::from_millis(95),
            },
            TraceEvent::ReplicaFetch {
                at: SimTime::from_millis(10),
                partition: 1,
                leader: 0,
                follower: 2,
                from_offset: 40,
                records: 3,
            },
            TraceEvent::IsrShrink {
                at: SimTime::from_millis(11),
                partition: 1,
                broker: 2,
                isr: vec![0, 1],
            },
            TraceEvent::IsrExpand {
                at: SimTime::from_millis(12),
                partition: 1,
                broker: 2,
                isr: vec![0, 1, 2],
            },
            TraceEvent::LeaderElected {
                at: SimTime::from_millis(13),
                partition: 1,
                leader: 1,
                clean: false,
                truncated_keys: vec![14, 14, 15],
                lost_keys: vec![14],
            },
            TraceEvent::BrokerDown {
                at: SimTime::from_millis(14),
                broker: 0,
            },
            TraceEvent::BrokerUp {
                at: SimTime::from_millis(15),
                broker: 0,
            },
            TraceEvent::ConsumerJoined {
                at: SimTime::from_millis(17),
                member: 3,
                generation: 2,
            },
            TraceEvent::ConsumerLeft {
                at: SimTime::from_millis(18),
                member: 1,
                generation: 3,
            },
            TraceEvent::PartitionsAssigned {
                at: SimTime::from_millis(19),
                member: 3,
                generation: 3,
                partitions: vec![0, 1, 4],
                moved: 2,
            },
            TraceEvent::CounterSample {
                at: SimTime::from_millis(16),
                name: "planner-cache-hit".to_string(),
                value: 37,
            },
            TraceEvent::PolicyDrift {
                at: SimTime::from_millis(20),
                error: 0.042,
                baseline: 0.011,
                window: 8,
            },
            TraceEvent::PolicyRefit {
                at: SimTime::from_millis(21),
                generation: 1,
                samples: 64,
            },
        ]
    }

    #[test]
    fn every_variant_round_trips_through_parse_jsonl() {
        let events = one_of_each_variant();
        // One distinct variant per entry: this test must grow with the
        // enum, so a missing variant fails loudly here.
        let kinds: std::collections::BTreeSet<&str> = events.iter().map(TraceEvent::kind).collect();
        assert_eq!(
            kinds.len(),
            21,
            "update one_of_each_variant() for new TraceEvent variants"
        );

        let mut jsonl = String::new();
        for ev in &events {
            jsonl.push_str(&serde_json::to_string(ev).unwrap());
            jsonl.push('\n');
        }
        let back = crate::sink::parse_jsonl(&jsonl).expect("all variants parse back");
        assert_eq!(back, events);

        // Option fields must also survive in their `None` form.
        let none_batch = TraceEvent::Expired {
            at: SimTime::from_millis(2),
            key: 11,
            cause: LossCause::ExpiredInBuffer,
            batch: None,
        };
        let line = serde_json::to_string(&none_batch).unwrap();
        assert_eq!(
            crate::sink::parse_jsonl(&line).expect("None batch parses"),
            vec![none_batch]
        );
    }
}
