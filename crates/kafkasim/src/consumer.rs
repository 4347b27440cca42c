//! The consumer: reads every partition back after an experiment.
//!
//! The paper's methodology (§III-E): "when the producer finishes, we stop
//! the fault injection and start a consumer container to consume all
//! messages in this topic. Finally, we analyze the results by comparing the
//! unique keys from source data and the messages received by the consumer."

use desim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::cluster::Cluster;
use crate::message::MessageKey;

/// One message copy as read back by the consumer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ConsumedRecord {
    /// The unique key.
    pub key: MessageKey,
    /// Partition it was stored in.
    pub partition: u32,
    /// Offset within that partition.
    pub offset: u64,
    /// Producer-to-broker latency of this copy.
    pub latency: SimDuration,
}

/// Everything the consumer saw, aggregated per key.
///
/// Message keys are the dense sequence numbers the source hands out, so
/// the per-key aggregates live in plain vectors indexed by key — the audit
/// does a couple of lookups per message and a hash map would dominate its
/// cost. A key with `copies_per_key[k] == 0` was never consumed and its
/// `first_latency[k]` slot is meaningless.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConsumedTopic {
    records: Vec<ConsumedRecord>,
    copies_per_key: Vec<u64>,
    first_latency: Vec<SimDuration>,
}

impl ConsumedTopic {
    /// Reads the whole topic from a cluster.
    #[must_use]
    pub fn read_all(cluster: &Cluster) -> Self {
        let brokers = cluster.brokers();
        let total: usize = brokers.iter().flat_map(|b| b.logs()).map(|l| l.len()).sum();
        let mut topic = ConsumedTopic::default();
        topic.records.reserve_exact(total);
        for broker in brokers {
            for log in broker.logs() {
                // Stream the log's columns directly (key + the two
                // timestamps); the offset is the column index.
                let partition = log.partition();
                let keys = log.keys();
                let created = log.created_col();
                let appended = log.appended_col();
                for (i, &key) in keys.iter().enumerate() {
                    let consumed = ConsumedRecord {
                        key,
                        partition,
                        offset: i as u64,
                        latency: appended[i].saturating_since(created[i]),
                    };
                    let k = key.0 as usize;
                    if k >= topic.copies_per_key.len() {
                        topic.copies_per_key.resize(k + 1, 0);
                        topic.first_latency.resize(k + 1, SimDuration::ZERO);
                    }
                    if topic.copies_per_key[k] == 0 {
                        topic.first_latency[k] = consumed.latency;
                    } else {
                        topic.first_latency[k] = topic.first_latency[k].min(consumed.latency);
                    }
                    topic.copies_per_key[k] += 1;
                    topic.records.push(consumed);
                }
            }
        }
        topic
    }

    /// Total record copies read (including duplicates).
    #[must_use]
    pub fn total_records(&self) -> usize {
        self.records.len()
    }

    /// Number of copies stored for `key` (0 = lost).
    #[must_use]
    pub fn copies(&self, key: MessageKey) -> u64 {
        self.copies_per_key
            .get(key.0 as usize)
            .copied()
            .unwrap_or(0)
    }

    /// The earliest-copy latency for `key`, if delivered.
    #[must_use]
    pub fn first_latency(&self, key: MessageKey) -> Option<SimDuration> {
        let k = key.0 as usize;
        if self.copies_per_key.get(k).copied().unwrap_or(0) == 0 {
            None
        } else {
            Some(self.first_latency[k])
        }
    }

    /// All records read, in partition/offset order per partition.
    #[must_use]
    pub fn records(&self) -> &[ConsumedRecord] {
        &self.records
    }

    /// Distinct keys observed.
    #[must_use]
    pub fn distinct_keys(&self) -> usize {
        self.copies_per_key.iter().filter(|&&c| c > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ProduceRecord;
    use crate::cluster::ClusterSpec;
    use desim::SimTime;

    fn cluster_with_records(appends: &[(u32, u64)]) -> Cluster {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        for &(partition, key) in appends {
            let leader = cluster.leader_of(partition);
            cluster
                .broker_mut(leader)
                .unwrap()
                .append(
                    partition,
                    &[ProduceRecord {
                        key: MessageKey(key),
                        payload_bytes: 100,
                        created_at: SimTime::ZERO,
                    }],
                    SimTime::from_millis(5),
                )
                .unwrap();
        }
        cluster
    }

    #[test]
    fn reads_across_partitions() {
        let cluster = cluster_with_records(&[(0, 1), (1, 2), (2, 3)]);
        let topic = ConsumedTopic::read_all(&cluster);
        assert_eq!(topic.total_records(), 3);
        assert_eq!(topic.distinct_keys(), 3);
        for k in 1..=3 {
            assert_eq!(topic.copies(MessageKey(k)), 1);
        }
        assert_eq!(topic.copies(MessageKey(99)), 0);
    }

    #[test]
    fn duplicates_counted_per_key() {
        let cluster = cluster_with_records(&[(0, 7), (0, 7), (1, 7)]);
        let topic = ConsumedTopic::read_all(&cluster);
        assert_eq!(topic.copies(MessageKey(7)), 3);
        assert_eq!(topic.distinct_keys(), 1);
    }

    #[test]
    fn first_latency_is_minimum_over_copies() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let rec = ProduceRecord {
            key: MessageKey(1),
            payload_bytes: 10,
            created_at: SimTime::ZERO,
        };
        let leader = cluster.leader_of(0);
        let b = cluster.broker_mut(leader).unwrap();
        b.append(0, &[rec], SimTime::from_millis(30)).unwrap();
        b.append(0, &[rec], SimTime::from_millis(10)).unwrap();
        let topic = ConsumedTopic::read_all(&cluster);
        assert_eq!(
            topic.first_latency(MessageKey(1)),
            Some(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn empty_cluster_reads_empty() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let topic = ConsumedTopic::read_all(&cluster);
        assert_eq!(topic.total_records(), 0);
        assert_eq!(topic.first_latency(MessageKey(0)), None);
    }
}
