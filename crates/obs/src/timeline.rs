//! Per-message timeline reconstruction: replay a recorded trace and
//! explain the fate of every message.
//!
//! [`TimelineReport::reconstruct`] groups a sink's events by message key
//! and classifies each key as delivered once, duplicated, or lost — with
//! the *traced cause*: the `Expired` event (with its [`LossCause`]), the
//! `ConnectionReset` that swallowed it, or the retry / teardown re-append
//! that produced the extra copy. The aggregate counts are designed to be
//! cross-checked against the end-of-run audit (`kafkasim` provides the
//! comparison): every `P_l` and `P_d` count should be attributable here.

use std::collections::{BTreeMap, HashMap};

use serde::{Deserialize, Serialize};

use crate::event::{LossCause, TraceEvent};

/// How a duplicated message got its extra copies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DupCause {
    /// A request was appended during connection teardown, so its ack never
    /// reached the producer, which then retried — the classic ack-lost
    /// duplication (the paper's Case 5).
    TeardownReappend,
    /// A retry re-appended a batch whose earlier attempt had already been
    /// persisted (late or lost ack).
    RetryReappend,
}

impl core::fmt::Display for DupCause {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            DupCause::TeardownReappend => "teardown-reappend",
            DupCause::RetryReappend => "retry-reappend",
        };
        write!(f, "{s}")
    }
}

/// The reconstructed fate of one message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum MessageFate {
    /// Exactly one copy reached a partition log.
    DeliveredOnce,
    /// More than one copy reached the logs.
    Duplicated {
        /// Total copies found.
        copies: u64,
        /// Appends that were flagged `duplicate` as they happened. A fully
        /// explained duplicate has `duplicate_appends == copies - 1`.
        duplicate_appends: u64,
        /// The traced mechanism, when one is visible in the events.
        cause: Option<DupCause>,
    },
    /// No copy reached the logs.
    Lost {
        /// The traced loss mode, when one is visible in the events.
        cause: Option<LossCause>,
    },
}

/// One message's reconstructed story: its fate plus every event that
/// mentions it (directly, or through its batch or connection).
#[derive(Debug, Clone)]
pub struct MessageTimeline {
    /// The message key.
    pub key: u64,
    /// The reconstructed fate.
    pub fate: MessageFate,
    /// Events touching this message, in trace order.
    pub events: Vec<TraceEvent>,
}

impl MessageTimeline {
    /// A human-readable, line-per-event narration of the message's life.
    #[must_use]
    pub fn narrate(&self) -> String {
        let mut out = format!("msg#{}: {:?}\n", self.key, self.fate);
        for ev in &self.events {
            out.push_str("  ");
            out.push_str(&ev.to_string());
            out.push('\n');
        }
        out
    }
}

/// The reconstruction of a whole trace, keyed by message.
#[derive(Debug, Clone, Default)]
pub struct TimelineReport {
    timelines: BTreeMap<u64, MessageTimeline>,
}

impl TimelineReport {
    /// Replays `events` (in recorded order) into per-message timelines.
    #[must_use]
    pub fn reconstruct(events: &[TraceEvent]) -> Self {
        // Batch membership: batch id → keys riding in it.
        let mut batch_keys: HashMap<u64, Vec<u64>> = HashMap::new();
        for ev in events {
            if let TraceEvent::BatchFormed { batch, keys, .. } = ev {
                batch_keys.insert(*batch, keys.clone());
            }
        }

        // Attach every event to the keys it concerns, preserving order.
        let mut per_key: BTreeMap<u64, Vec<TraceEvent>> = BTreeMap::new();
        let mut attach = |key: u64, ev: &TraceEvent| {
            per_key.entry(key).or_default().push(ev.clone());
        };
        for ev in events {
            match ev {
                TraceEvent::Enqueued { key, .. }
                | TraceEvent::Expired { key, .. }
                | TraceEvent::BrokerAppend { key, .. }
                | TraceEvent::ConsumerRead { key, .. } => attach(*key, ev),
                TraceEvent::BatchFormed { keys, .. } => {
                    for k in keys {
                        attach(*k, ev);
                    }
                }
                TraceEvent::RequestSent { batch, .. }
                | TraceEvent::AckReceived { batch, .. }
                | TraceEvent::Retry { batch, .. } => {
                    if let Some(keys) = batch_keys.get(batch) {
                        for k in keys {
                            attach(*k, ev);
                        }
                    }
                }
                TraceEvent::ConnectionReset { lost_keys, .. } => {
                    for k in lost_keys {
                        attach(*k, ev);
                    }
                }
                TraceEvent::LeaderElected { truncated_keys, .. } => {
                    // Attach once per distinct key: classify() re-counts the
                    // truncation multiplicity from the event itself.
                    let mut seen: Vec<u64> = truncated_keys.clone();
                    seen.sort_unstable();
                    seen.dedup();
                    for k in seen {
                        attach(k, ev);
                    }
                }
                // Cluster- and group-level events with no per-message story.
                TraceEvent::ReplicaFetch { .. }
                | TraceEvent::IsrShrink { .. }
                | TraceEvent::IsrExpand { .. }
                | TraceEvent::BrokerDown { .. }
                | TraceEvent::BrokerUp { .. }
                | TraceEvent::ConsumerJoined { .. }
                | TraceEvent::ConsumerLeft { .. }
                | TraceEvent::PartitionsAssigned { .. }
                | TraceEvent::CounterSample { .. }
                | TraceEvent::PolicyDrift { .. }
                | TraceEvent::PolicyRefit { .. } => {}
            }
        }

        let timelines = per_key
            .into_iter()
            .map(|(key, events)| {
                let fate = classify(key, &events);
                (key, MessageTimeline { key, fate, events })
            })
            .collect();
        TimelineReport { timelines }
    }

    /// The timeline of one key, when the trace mentions it.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn timeline(&self, key: u64) -> Option<&MessageTimeline> {
        self.timelines.get(&key)
    }

    /// All timelines, in key order.
    pub fn timelines(&self) -> impl Iterator<Item = &MessageTimeline> {
        self.timelines.values()
    }

    /// Messages the trace mentions.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn n_messages(&self) -> u64 {
        self.timelines.len() as u64
    }

    /// Messages reconstructed as lost.
    #[must_use]
    pub fn n_lost(&self) -> u64 {
        self.count(|f| matches!(f, MessageFate::Lost { .. }))
    }

    /// Messages reconstructed as duplicated.
    #[must_use]
    pub fn n_duplicated(&self) -> u64 {
        self.count(|f| matches!(f, MessageFate::Duplicated { .. }))
    }

    fn count(&self, pred: impl Fn(&MessageFate) -> bool) -> u64 {
        self.timelines.values().filter(|t| pred(&t.fate)).count() as u64
    }

    /// Lost messages grouped by their traced cause (unattributed losses
    /// are not included — see [`TimelineReport::unattributed_lost`]).
    #[must_use]
    pub fn lost_by_cause(&self) -> BTreeMap<LossCause, u64> {
        let mut out = BTreeMap::new();
        for t in self.timelines.values() {
            if let MessageFate::Lost { cause: Some(c) } = t.fate {
                *out.entry(c).or_insert(0) += 1;
            }
        }
        out
    }

    /// Keys reconstructed as lost without any traced cause.
    #[must_use]
    pub fn unattributed_lost(&self) -> Vec<u64> {
        self.timelines
            .values()
            .filter(|t| matches!(t.fate, MessageFate::Lost { cause: None }))
            .map(|t| t.key)
            .collect()
    }

    /// Keys whose extra copies are not fully covered by duplicate-flagged
    /// appends with a visible mechanism.
    #[must_use]
    pub fn unattributed_duplicates(&self) -> Vec<u64> {
        self.timelines
            .values()
            .filter(|t| {
                matches!(
                    t.fate,
                    MessageFate::Duplicated {
                        copies,
                        duplicate_appends,
                        cause,
                    } if duplicate_appends + 1 < copies || cause.is_none()
                )
            })
            .map(|t| t.key)
            .collect()
    }

    /// `true` when every lost and every duplicated message has a traced
    /// cause.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn fully_attributed(&self) -> bool {
        self.unattributed_lost().is_empty() && self.unattributed_duplicates().is_empty()
    }
}

fn classify(key: u64, events: &[TraceEvent]) -> MessageFate {
    let mut appends = 0u64;
    let mut truncated = 0u64;
    let mut reads = 0u64;
    let mut duplicate_appends = 0u64;
    let mut via_teardown = false;
    let mut retried = false;
    let mut first_loss: Option<LossCause> = None;
    for ev in events {
        match ev {
            TraceEvent::BrokerAppend {
                key: k,
                duplicate,
                via_teardown: tear,
                ..
            } if *k == key => {
                appends += 1;
                if *duplicate {
                    duplicate_appends += 1;
                }
                if *tear {
                    via_teardown = true;
                }
            }
            TraceEvent::ConsumerRead { key: k, .. } if *k == key => reads += 1,
            TraceEvent::Expired { key: k, cause, .. } if *k == key => {
                first_loss.get_or_insert(*cause);
            }
            TraceEvent::ConnectionReset { lost_keys, .. } if lost_keys.contains(&key) => {
                first_loss.get_or_insert(LossCause::ConnectionReset);
            }
            TraceEvent::LeaderElected {
                truncated_keys,
                lost_keys,
                ..
            } => {
                truncated += truncated_keys.iter().filter(|&&k| k == key).count() as u64;
                if lost_keys.contains(&key) {
                    first_loss.get_or_insert(LossCause::LeaderFailover);
                }
            }
            TraceEvent::Retry { .. } => retried = true,
            TraceEvent::RequestSent { attempt, .. } if *attempt > 1 => retried = true,
            _ => {}
        }
    }
    // The consumer replay is the ground truth (it mirrors the audit);
    // surviving appends (appends minus leader-election truncations)
    // corroborate it when both are present.
    let copies = reads.max(appends.saturating_sub(truncated));
    match copies {
        0 => MessageFate::Lost { cause: first_loss },
        1 => MessageFate::DeliveredOnce,
        _ => MessageFate::Duplicated {
            copies,
            duplicate_appends,
            cause: if via_teardown {
                Some(DupCause::TeardownReappend)
            } else if retried {
                Some(DupCause::RetryReappend)
            } else {
                None
            },
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::{SimDuration, SimTime};

    fn enq(key: u64, at_ms: u64) -> TraceEvent {
        TraceEvent::Enqueued {
            at: SimTime::from_millis(at_ms),
            key,
            partition: 0,
            deadline: SimTime::from_millis(at_ms + 500),
        }
    }

    fn append(key: u64, batch: u64, at_ms: u64, duplicate: bool, tear: bool) -> TraceEvent {
        TraceEvent::BrokerAppend {
            at: SimTime::from_millis(at_ms),
            batch,
            request: batch,
            broker: 0,
            partition: 0,
            key,
            offset: 0,
            latency: SimDuration::from_millis(8),
            duplicate,
            via_teardown: tear,
        }
    }

    fn read(key: u64, at_ms: u64) -> TraceEvent {
        TraceEvent::ConsumerRead {
            at: SimTime::from_millis(at_ms),
            key,
            partition: 0,
            offset: 0,
            latency: SimDuration::from_millis(10),
        }
    }

    #[test]
    fn classifies_delivery_loss_and_duplication() {
        let events = vec![
            enq(0, 0),
            enq(1, 1),
            enq(2, 2),
            TraceEvent::BatchFormed {
                at: SimTime::from_millis(3),
                batch: 0,
                partition: 0,
                keys: vec![0, 2],
                bytes: 400,
            },
            TraceEvent::Expired {
                at: SimTime::from_millis(600),
                key: 1,
                cause: LossCause::ExpiredInBuffer,
                batch: None,
            },
            append(0, 0, 10, false, false),
            append(2, 0, 10, false, true),
            TraceEvent::Retry {
                at: SimTime::from_millis(400),
                batch: 0,
                request: 1,
                conn: 0,
                epoch: 1,
                attempt: 2,
            },
            append(0, 0, 410, true, false),
            append(2, 0, 410, true, false),
            read(0, 1000),
            read(0, 1000),
            read(2, 1000),
            read(2, 1000),
        ];
        let report = TimelineReport::reconstruct(&events);
        assert_eq!(report.n_messages(), 3);
        assert_eq!(report.n_lost(), 1);
        assert_eq!(report.n_duplicated(), 2);
        assert_eq!(report.count(|f| matches!(f, MessageFate::DeliveredOnce)), 0);
        assert_eq!(
            report.timeline(1).unwrap().fate,
            MessageFate::Lost {
                cause: Some(LossCause::ExpiredInBuffer)
            }
        );
        // Key 2 rode a teardown append; key 0 a plain retry re-append.
        assert_eq!(
            report.timeline(2).unwrap().fate,
            MessageFate::Duplicated {
                copies: 2,
                duplicate_appends: 1,
                cause: Some(DupCause::TeardownReappend)
            }
        );
        assert_eq!(
            report.timeline(0).unwrap().fate,
            MessageFate::Duplicated {
                copies: 2,
                duplicate_appends: 1,
                cause: Some(DupCause::RetryReappend)
            }
        );
        assert!(report.fully_attributed());
        assert_eq!(
            report.lost_by_cause().get(&LossCause::ExpiredInBuffer),
            Some(&1)
        );
        assert!(report.timeline(0).unwrap().narrate().contains("msg#0"));
    }

    #[test]
    fn amo_reset_attributes_socket_losses() {
        let events = vec![
            enq(5, 0),
            TraceEvent::ConnectionReset {
                at: SimTime::from_millis(80),
                conn: 0,
                epoch: 0,
                lost_keys: vec![5],
            },
        ];
        let report = TimelineReport::reconstruct(&events);
        assert_eq!(
            report.timeline(5).unwrap().fate,
            MessageFate::Lost {
                cause: Some(LossCause::ConnectionReset)
            }
        );
        assert!(report.fully_attributed());
    }

    #[test]
    fn unclean_election_truncation_attributes_broker_loss() {
        // Key 20: appended once, then truncated away entirely → lost to
        // the leader failover. Key 21: appended twice (one duplicate), one
        // copy truncated → net one copy, delivered once.
        let events = vec![
            enq(20, 0),
            enq(21, 1),
            append(20, 0, 10, false, false),
            append(21, 0, 11, false, false),
            append(21, 1, 12, true, false),
            TraceEvent::LeaderElected {
                at: SimTime::from_millis(300),
                partition: 0,
                leader: 1,
                clean: false,
                truncated_keys: vec![20, 21],
                lost_keys: vec![20],
            },
            read(21, 1000),
        ];
        let report = TimelineReport::reconstruct(&events);
        assert_eq!(
            report.timeline(20).unwrap().fate,
            MessageFate::Lost {
                cause: Some(LossCause::LeaderFailover)
            }
        );
        assert_eq!(
            report.timeline(21).unwrap().fate,
            MessageFate::DeliveredOnce
        );
        assert!(report.fully_attributed());
        assert_eq!(
            report.lost_by_cause().get(&LossCause::LeaderFailover),
            Some(&1)
        );
    }

    #[test]
    fn untraced_loss_is_flagged_not_invented() {
        let events = vec![enq(9, 0)];
        let report = TimelineReport::reconstruct(&events);
        assert_eq!(report.n_lost(), 1);
        assert!(!report.fully_attributed());
        assert_eq!(report.unattributed_lost(), vec![9]);
    }
}
