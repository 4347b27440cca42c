//! The consumer: reads every partition back after an experiment.
//!
//! The paper's methodology (§III-E): "when the producer finishes, we stop
//! the fault injection and start a consumer container to consume all
//! messages in this topic. Finally, we analyze the results by comparing the
//! unique keys from source data and the messages received by the consumer."
//!
//! The read-back is one pass over the stored copies in broker → log →
//! offset order ([`for_each_copy`]). A copy's latency is its append time
//! minus the ledger's creation time for its key: the log stores no creation
//! time of its own, and the ledger stamps the same poll instant the
//! produce record carried.

use desim::SimDuration;

use crate::cluster::Cluster;
use crate::message::MessageKey;
use crate::producer::Ledger;

/// Visits every stored copy in broker → log → offset order with its
/// partition, offset, key and producer-to-broker latency.
///
/// Every stored key was registered in the ledger before its batch could be
/// sent, so the ledger knows every key a run's logs hold; a key it does not
/// know has no creation time and is skipped, as the audit (which counts
/// ledger keys only) would ignore it anyway.
pub fn for_each_copy(
    cluster: &Cluster,
    ledger: &Ledger,
    mut visit: impl FnMut(u32, u64, MessageKey, SimDuration),
) {
    let created = ledger.created_col();
    for log in cluster.brokers().iter().flat_map(|b| b.logs()) {
        let partition = log.partition();
        for (offset, (&key, &appended)) in log.keys().iter().zip(log.appended_col()).enumerate() {
            if let Some(&created) = created.get(key.0 as usize) {
                visit(
                    partition,
                    offset as u64,
                    key,
                    appended.saturating_since(created),
                );
            }
        }
    }
}

/// Everything the consumer saw, folded per key.
///
/// Message keys are the dense sequence numbers the source hands out, so
/// the per-key aggregates are two columns indexed by key and sized once
/// from the ledger — the audit does a couple of lookups per message and a
/// hash map would dominate its cost. A key with `copies[k] == 0` was never
/// consumed and its `first_latency[k]` slot is meaningless.
#[derive(Debug, Clone, PartialEq)]
pub struct ConsumedTopic {
    copies: Vec<u32>,
    first_latency: Vec<SimDuration>,
}

impl ConsumedTopic {
    /// Reads the whole topic from a cluster, one slot per ledger key.
    #[must_use]
    pub fn read_all(cluster: &Cluster, ledger: &Ledger) -> Self {
        let mut copies = vec![0u32; ledger.len()];
        let mut first_latency = vec![SimDuration::MAX; ledger.len()];
        // `for_each_copy` visits only keys the ledger holds, so `k` indexes
        // both columns.
        for_each_copy(cluster, ledger, |_, _, key, latency| {
            let k = key.0 as usize;
            copies[k] += 1;
            first_latency[k] = first_latency[k].min(latency);
        });
        ConsumedTopic {
            copies,
            first_latency,
        }
    }

    /// Number of copies stored for `key` (0 = lost).
    #[must_use]
    pub fn copies(&self, key: MessageKey) -> u64 {
        self.copies.get(key.0 as usize).map_or(0, |&c| u64::from(c))
    }

    /// The earliest-copy latency for `key`, if delivered.
    #[must_use]
    pub fn first_latency(&self, key: MessageKey) -> Option<SimDuration> {
        let k = key.0 as usize;
        if self.copies(key) == 0 {
            None
        } else {
            Some(self.first_latency[k])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ProduceRecord;
    use crate::cluster::ClusterSpec;
    use desim::SimTime;

    fn append(cluster: &mut Cluster, partition: u32, key: u64, at: SimTime) {
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
                at,
            )
            .unwrap();
    }

    fn ledger_of(n: u64) -> Ledger {
        let mut ledger = Ledger::with_capacity(n as usize);
        for k in 0..n {
            ledger.register(MessageKey(k), SimTime::ZERO);
        }
        ledger
    }

    fn cluster_with_records(appends: &[(u32, u64)]) -> Cluster {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        for &(partition, key) in appends {
            append(&mut cluster, partition, key, SimTime::from_millis(5));
        }
        cluster
    }

    #[test]
    fn reads_across_partitions() {
        let cluster = cluster_with_records(&[(0, 1), (1, 2), (2, 3)]);
        let topic = ConsumedTopic::read_all(&cluster, &ledger_of(100));
        for k in 1..=3 {
            assert_eq!(topic.copies(MessageKey(k)), 1);
        }
        assert_eq!(topic.copies(MessageKey(99)), 0);
        let mut visited = Vec::new();
        for_each_copy(&cluster, &ledger_of(100), |p, o, k, _| {
            visited.push((p, o, k.0));
        });
        assert_eq!(visited, vec![(0, 0, 1), (1, 0, 2), (2, 0, 3)]);
    }

    #[test]
    fn duplicates_counted_per_key() {
        let cluster = cluster_with_records(&[(0, 7), (0, 7), (1, 7)]);
        let topic = ConsumedTopic::read_all(&cluster, &ledger_of(8));
        assert_eq!(topic.copies(MessageKey(7)), 3);
        assert_eq!(topic.copies(MessageKey(6)), 0);
    }

    #[test]
    fn first_latency_is_minimum_over_copies() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        append(&mut cluster, 0, 1, SimTime::from_millis(30));
        append(&mut cluster, 0, 1, SimTime::from_millis(10));
        let topic = ConsumedTopic::read_all(&cluster, &ledger_of(2));
        assert_eq!(
            topic.first_latency(MessageKey(1)),
            Some(SimDuration::from_millis(10))
        );
    }

    #[test]
    fn latency_is_append_minus_create() {
        let mut cluster = Cluster::new(ClusterSpec::default()).unwrap();
        append(&mut cluster, 0, 0, SimTime::from_millis(25));
        let mut ledger = Ledger::with_capacity(1);
        ledger.register(MessageKey(0), SimTime::from_millis(5));
        let topic = ConsumedTopic::read_all(&cluster, &ledger);
        assert_eq!(
            topic.first_latency(MessageKey(0)),
            Some(SimDuration::from_millis(20))
        );
    }

    #[test]
    fn empty_cluster_reads_empty() {
        let cluster = Cluster::new(ClusterSpec::default()).unwrap();
        let topic = ConsumedTopic::read_all(&cluster, &ledger_of(1));
        assert_eq!(topic.copies(MessageKey(0)), 0);
        assert_eq!(topic.first_latency(MessageKey(0)), None);
    }
}
