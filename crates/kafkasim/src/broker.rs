//! Broker nodes: they persist produce requests and (under `acks=1`)
//! acknowledge them.

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::log::PartitionLog;
use crate::message::MessageKey;

/// Identifier of a broker within a cluster.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct BrokerId(pub u32);

/// Broker cost model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BrokerModel {
    /// Fixed processing time per produce request (request parsing, page
    /// cache append, response build).
    pub process_per_request: SimDuration,
    /// Additional processing time per record in the request.
    pub process_per_record: SimDuration,
}

impl Default for BrokerModel {
    fn default() -> Self {
        BrokerModel {
            process_per_request: SimDuration::from_micros(250),
            process_per_record: SimDuration::from_micros(20),
        }
    }
}

impl BrokerModel {
    /// Processing time for a request carrying `records` records.
    #[must_use]
    pub(crate) fn processing_time(&self, records: usize) -> SimDuration {
        self.process_per_request + self.process_per_record * records as u64
    }
}

/// One record inside a produce request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProduceRecord {
    /// The message's unique key.
    pub key: MessageKey,
    /// Payload size in bytes.
    pub payload_bytes: u64,
    /// Creation time at the producer (the trace's append latency). The
    /// log does not store it: the audit reads creation times from the
    /// producer's ledger.
    pub created_at: SimTime,
}

/// A broker with the partition logs it leads.
///
/// # Example
///
/// ```
/// use kafkasim::broker::{Broker, BrokerId, ProduceRecord};
/// use kafkasim::message::MessageKey;
/// use desim::SimTime;
///
/// let mut broker = Broker::new(BrokerId(0), vec![0, 1]);
/// broker.append(0, &[ProduceRecord {
///     key: MessageKey(1), payload_bytes: 100, created_at: SimTime::ZERO,
/// }], SimTime::from_millis(2)).unwrap();
/// assert_eq!(broker.log(0).unwrap().len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct Broker {
    id: BrokerId,
    logs: Vec<PartitionLog>,
    model: BrokerModel,
    records_appended: u64,
}

/// Error returned when a request targets a partition this broker does not
/// lead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NotLeader {
    /// The broker that received the request.
    pub broker: BrokerId,
    /// The partition it does not lead.
    pub partition: u32,
}

impl core::fmt::Display for NotLeader {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "broker {} is not the leader of partition {}",
            self.broker.0, self.partition
        )
    }
}

impl std::error::Error for NotLeader {}

impl Broker {
    /// Creates a broker leading the given partitions.
    #[must_use]
    pub fn new(id: BrokerId, partitions: Vec<u32>) -> Self {
        Broker {
            id,
            logs: partitions.into_iter().map(PartitionLog::new).collect(),
            model: BrokerModel::default(),
            records_appended: 0,
        }
    }

    /// Creates a broker with a custom cost model.
    #[must_use]
    pub(crate) fn with_model(id: BrokerId, partitions: Vec<u32>, model: BrokerModel) -> Self {
        Broker {
            model,
            ..Broker::new(id, partitions)
        }
    }

    /// The partitions this broker leads.
    #[cfg(test)]
    pub(crate) fn partitions(&self) -> impl Iterator<Item = u32> + '_ {
        self.logs.iter().map(|l| l.partition())
    }

    /// Starts leading `partition` with a fresh log (leader failover).
    ///
    /// No-op if this broker already has a log for the partition.
    pub(crate) fn add_partition(&mut self, partition: u32) {
        if self.log(partition).is_none() {
            self.logs.push(PartitionLog::new(partition));
        }
    }

    /// Processing time for a request of `records` records.
    #[must_use]
    pub(crate) fn processing_time(&self, records: usize) -> SimDuration {
        self.model.processing_time(records)
    }

    /// Appends a produce request's records to a partition log.
    ///
    /// Returns the base offset of the appended batch.
    ///
    /// # Errors
    ///
    /// [`NotLeader`] when this broker does not lead `partition`.
    pub fn append(
        &mut self,
        partition: u32,
        records: &[ProduceRecord],
        now: SimTime,
    ) -> Result<u64, NotLeader> {
        let log = self
            .logs
            .iter_mut()
            .find(|l| l.partition() == partition)
            .ok_or(NotLeader {
                broker: self.id,
                partition,
            })?;
        let base = log.append_batch(records, now);
        self.records_appended += records.len() as u64;
        Ok(base)
    }

    /// Removes and returns this broker's log for `partition` (the physical
    /// log handed to a newly elected leader — see
    /// [`Broker::install_log`]).
    pub(crate) fn take_log(&mut self, partition: u32) -> Option<PartitionLog> {
        let idx = self.logs.iter().position(|l| l.partition() == partition)?;
        Some(self.logs.remove(idx))
    }

    /// Installs a partition log on this broker (leadership arriving with
    /// the replicated data), replacing any log it already had for that
    /// partition.
    pub(crate) fn install_log(&mut self, log: PartitionLog) {
        if let Some(existing) = self
            .logs
            .iter_mut()
            .find(|l| l.partition() == log.partition())
        {
            *existing = log;
        } else {
            self.logs.push(log);
        }
    }

    /// Read access to one partition log.
    #[must_use]
    pub fn log(&self, partition: u32) -> Option<&PartitionLog> {
        self.logs.iter().find(|l| l.partition() == partition)
    }

    /// All logs on this broker.
    #[must_use]
    pub(crate) fn logs(&self) -> &[PartitionLog] {
        &self.logs
    }

    /// Records appended so far.
    #[must_use]
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(key: u64) -> ProduceRecord {
        ProduceRecord {
            key: MessageKey(key),
            payload_bytes: 100,
            created_at: SimTime::ZERO,
        }
    }

    #[test]
    fn append_to_led_partition() {
        let mut b = Broker::new(BrokerId(1), vec![0, 2]);
        let base = b
            .append(2, &[rec(1), rec(2)], SimTime::from_millis(1))
            .unwrap();
        assert_eq!(base, 0);
        let base2 = b.append(2, &[rec(3)], SimTime::from_millis(2)).unwrap();
        assert_eq!(base2, 2);
        assert_eq!(b.records_appended(), 3);
    }

    #[test]
    fn rejects_foreign_partition() {
        let mut b = Broker::new(BrokerId(1), vec![0]);
        let err = b.append(5, &[rec(1)], SimTime::ZERO).unwrap_err();
        assert_eq!(err.partition, 5);
        assert_eq!(err.broker, BrokerId(1));
    }

    #[test]
    fn processing_time_scales_with_records() {
        let b = Broker::new(BrokerId(0), vec![0]);
        assert!(b.processing_time(10) > b.processing_time(1));
    }

    #[test]
    fn logs_move_between_brokers_on_election() {
        let mut old = Broker::new(BrokerId(0), vec![0]);
        let mut new = Broker::new(BrokerId(1), vec![]);
        old.append(0, &[rec(1), rec(2)], SimTime::ZERO).unwrap();
        let log = old.take_log(0).unwrap();
        assert_eq!(log.len(), 2);
        assert!(old.log(0).is_none());
        new.install_log(log);
        assert_eq!(new.log(0).unwrap().len(), 2);
    }

    #[test]
    fn partitions_listed() {
        let b = Broker::new(BrokerId(0), vec![4, 7]);
        let parts: Vec<u32> = b.partitions().collect();
        assert_eq!(parts, vec![4, 7]);
    }
}
