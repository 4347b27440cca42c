//! Append-only partition logs.
//!
//! Messages under one topic are physically stored in multiple partitions;
//! each partition is an ordered, offset-addressed, append-only log. Without
//! idempotent producers (the paper studies plain at-most-once and
//! at-least-once), a retried batch whose original was already persisted is
//! appended *again* — that is exactly how duplicates (Case 5) materialise.
//!
//! The log is stored struct-of-arrays and holds only what is read back:
//! each record's key and the time the broker appended it, with the offset
//! implicit in the index. Payload size and creation time travel with the
//! produce request but are not stored — the audit takes a copy's creation
//! time from the producer's ledger, which stamps it at the same poll
//! instant. A produce request's records append as one bulk column extension
//! ([`PartitionLog::append_batch`]) rather than `n` scalar pushes.

use desim::SimTime;
use serde::{Deserialize, Serialize};

use crate::broker::ProduceRecord;
use crate::message::MessageKey;

/// One record removed from a partition (a row view over the log columns).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StoredRecord {
    /// Offset within the partition.
    pub offset: u64,
    /// The producer-assigned unique key.
    pub key: MessageKey,
    /// When the broker appended it.
    pub appended_at: SimTime,
}

/// An append-only partition log.
///
/// # Example
///
/// ```
/// use kafkasim::log::PartitionLog;
/// use kafkasim::message::MessageKey;
/// use desim::SimTime;
///
/// let mut log = PartitionLog::new(0);
/// let offset = log.append(MessageKey(9), SimTime::from_millis(3));
/// assert_eq!(offset, 0);
/// assert_eq!(log.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartitionLog {
    partition: u32,
    keys: Vec<MessageKey>,
    appended_at: Vec<SimTime>,
}

impl PartitionLog {
    /// Creates an empty log for partition `partition`.
    #[must_use]
    pub fn new(partition: u32) -> Self {
        PartitionLog {
            partition,
            keys: Vec::new(),
            appended_at: Vec::new(),
        }
    }

    /// The partition id.
    #[must_use]
    pub fn partition(&self) -> u32 {
        self.partition
    }

    /// Appends a record, returning its offset.
    pub fn append(&mut self, key: MessageKey, appended_at: SimTime) -> u64 {
        let offset = self.keys.len() as u64;
        self.keys.push(key);
        self.appended_at.push(appended_at);
        offset
    }

    /// Appends every record of a produce request in one bulk column
    /// extension, returning the batch's base offset.
    ///
    /// Equivalent to `n` calls to [`PartitionLog::append`] in request order
    /// (`accept(n) ≡ n × accept(1)`, pinned by tests): same stored rows,
    /// same offsets — two `extend`s instead of `2n` pushes.
    pub fn append_batch(&mut self, records: &[ProduceRecord], appended_at: SimTime) -> u64 {
        let base = self.keys.len() as u64;
        self.keys.extend(records.iter().map(|r| r.key));
        self.appended_at
            .extend(std::iter::repeat_n(appended_at, records.len()));
        base
    }

    /// Number of records (the log-end offset).
    #[must_use]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// `true` when no records are stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Record keys in offset order.
    #[must_use]
    pub fn keys(&self) -> &[MessageKey] {
        &self.keys
    }

    /// Broker append timestamps in offset order.
    #[must_use]
    pub fn appended_col(&self) -> &[SimTime] {
        &self.appended_at
    }

    /// Truncates the log to `offset` records (an unclean leader election
    /// rewinding to the new leader's log-end offset), returning the removed
    /// suffix in offset order.
    pub fn truncate_to(&mut self, offset: u64) -> Vec<StoredRecord> {
        let start = offset as usize;
        if start >= self.keys.len() {
            return Vec::new();
        }
        let removed = self.keys[start..]
            .iter()
            .zip(&self.appended_at[start..])
            .zip(offset..)
            .map(|((&key, &appended_at), offset)| StoredRecord {
                offset,
                key,
                appended_at,
            })
            .collect();
        self.keys.truncate(start);
        self.appended_at.truncate(start);
        removed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offsets_are_dense_and_ordered() {
        let mut log = PartitionLog::new(3);
        for i in 0..10 {
            let off = log.append(MessageKey(i), SimTime::from_millis(i));
            assert_eq!(off, i);
        }
        assert_eq!(log.partition(), 3);
        assert_eq!(log.len(), 10);
        let keys: Vec<u64> = log.keys().iter().map(|k| k.0).collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
        assert_eq!(log.appended_col()[7], SimTime::from_millis(7));
    }

    #[test]
    fn duplicate_keys_are_appended_not_deduplicated() {
        let mut log = PartitionLog::new(0);
        log.append(MessageKey(7), SimTime::from_millis(1));
        log.append(MessageKey(7), SimTime::from_millis(2));
        assert_eq!(log.len(), 2, "no idempotence: the duplicate is stored");
    }

    #[test]
    fn append_batch_equals_scalar_appends() {
        let records: Vec<ProduceRecord> = (0..7)
            .map(|i| ProduceRecord {
                key: MessageKey(i),
                payload_bytes: 10 * i,
                created_at: SimTime::from_millis(i),
            })
            .collect();
        let now = SimTime::from_millis(40);
        let mut bulk = PartitionLog::new(2);
        let mut scalar = PartitionLog::new(2);
        // Pre-populate so base offsets are non-trivial.
        bulk.append(MessageKey(99), SimTime::ZERO);
        scalar.append(MessageKey(99), SimTime::ZERO);
        let base = bulk.append_batch(&records, now);
        let mut scalar_base = None;
        for r in &records {
            let off = scalar.append(r.key, now);
            scalar_base.get_or_insert(off);
        }
        assert_eq!(Some(base), scalar_base);
        assert_eq!(bulk, scalar, "accept(n) must equal n × accept(1)");
        assert_eq!(bulk.append_batch(&[], now), 8, "empty batch is a no-op");
        assert_eq!(bulk.len(), 8);
    }

    #[test]
    fn truncate_returns_the_removed_suffix() {
        let mut log = PartitionLog::new(0);
        for i in 0..5 {
            log.append(MessageKey(i), SimTime::from_millis(10 * i));
        }
        let removed = log.truncate_to(3);
        assert_eq!(log.len(), 3);
        assert_eq!(
            removed,
            vec![
                StoredRecord {
                    offset: 3,
                    key: MessageKey(3),
                    appended_at: SimTime::from_millis(30),
                },
                StoredRecord {
                    offset: 4,
                    key: MessageKey(4),
                    appended_at: SimTime::from_millis(40),
                },
            ]
        );
        assert!(log.truncate_to(10).is_empty(), "no-op past the end");
        assert_eq!(log.len(), 3);
    }
}
