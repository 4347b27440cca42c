//! The Kafka cluster: brokers, a topic, the partition→leader mapping, and
//! intra-cluster replication.
//!
//! The paper's testbed runs three broker containers and one topic whose
//! partitions are distributed across them (§III-A/E); the producer
//! round-robins messages over partitions. This module reproduces that
//! layout and extends it beyond the paper with Kafka's replication
//! protocol: each partition has `replication.factor` replicas, followers
//! fetch from the leader in periodic pull rounds, and an in-sync replica
//! (ISR) set is maintained by `replica.lag.time.max`-style eviction. On a
//! leader crash a new leader is elected from the ISR (clean) or — when
//! allowed — from a lagging replica (unclean), truncating the log to the
//! new leader's fetched offset.

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::broker::{Broker, BrokerId, BrokerModel};
use crate::log::StoredRecord;

/// Replication settings for the topic (beyond-the-paper dimension).
///
/// The defaults reproduce the paper's unreplicated topic exactly:
/// `factor = 1` means every partition has only its leader, follower
/// fetching never happens, and `acks=all` degenerates to `acks=1`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ReplicationSpec {
    /// Replicas per partition, leader included (Kafka's
    /// `replication.factor`; 1 = unreplicated, the paper's setup).
    pub factor: u32,
    /// How often followers poll the leader for new records (the
    /// `replica.fetch.wait.max.ms`-style fetch cadence).
    pub fetch_interval: SimDuration,
    /// Most records a follower copies per fetch round — the lag model: a
    /// burst of appends takes several rounds to replicate.
    pub max_fetch_records: u64,
    /// How long a replica may stay behind the leader's log end before it
    /// is evicted from the ISR (Kafka's `replica.lag.time.max.ms`).
    pub lag_time_max: SimDuration,
    /// Permit electing a non-ISR replica when no in-sync candidate is
    /// alive (Kafka's `unclean.leader.election.enable`) — trades
    /// availability for broker-caused message loss.
    pub allow_unclean: bool,
}

impl Default for ReplicationSpec {
    fn default() -> Self {
        ReplicationSpec {
            factor: 1,
            fetch_interval: SimDuration::from_millis(50),
            max_fetch_records: 500,
            lag_time_max: SimDuration::from_secs(10),
            allow_unclean: false,
        }
    }
}

impl ReplicationSpec {
    /// Validates the spec (factor checked against the broker count by
    /// [`ClusterSpec::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.factor == 0 {
            return Err("replication factor must be at least 1".into());
        }
        if self.fetch_interval <= SimDuration::ZERO {
            return Err("replica fetch interval must be positive".into());
        }
        if self.max_fetch_records == 0 {
            return Err("replica fetch size must be at least 1 record".into());
        }
        if self.lag_time_max <= SimDuration::ZERO {
            return Err("replica.lag.time.max must be positive".into());
        }
        Ok(())
    }
}

/// Static description of a cluster.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Number of broker nodes (the paper uses 3).
    pub brokers: u32,
    /// Number of partitions in the topic.
    pub partitions: u32,
    /// Broker cost model.
    pub broker_model: BrokerModel,
    /// Replication settings (factor 1 = the paper's unreplicated topic).
    pub replication: ReplicationSpec,
}

impl Default for ClusterSpec {
    fn default() -> Self {
        ClusterSpec {
            brokers: 3,
            partitions: 3,
            broker_model: BrokerModel::default(),
            replication: ReplicationSpec::default(),
        }
    }
}

impl ClusterSpec {
    /// Validates the spec.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.brokers == 0 {
            return Err("cluster needs at least one broker".into());
        }
        if self.partitions == 0 {
            return Err("topic needs at least one partition".into());
        }
        self.replication.validate()?;
        if self.replication.factor > self.brokers {
            return Err(format!(
                "cluster.replication.factor must not exceed cluster.brokers, got {} > {}",
                self.replication.factor, self.brokers
            ));
        }
        Ok(())
    }
}

/// One replica's view of a partition, as the leader tracks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Replica {
    /// The broker hosting the replica.
    pub broker: BrokerId,
    /// The replica's log-end offset: how many records it has fetched.
    /// Followers track offsets only — the single physical log lives with
    /// the leader, so the end-of-run consumer never double-reads.
    pub leo: u64,
    /// When the replica was first observed behind the leader's log end
    /// (`None` = caught up); drives `replica.lag.time.max` eviction.
    pub lag_since: Option<SimTime>,
    /// Whether the replica is currently in the in-sync set.
    pub in_isr: bool,
}

/// What one replication round did — the runtime turns these into trace
/// events and counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationDelta {
    /// A follower copied records from its leader.
    Fetch {
        /// The partition replicated.
        partition: u32,
        /// The leader fetched from.
        leader: BrokerId,
        /// The fetching follower.
        follower: BrokerId,
        /// The follower's log-end offset before the fetch.
        from_offset: u64,
        /// Records copied.
        records: u64,
    },
    /// A replica fell out of the ISR (lagged past `replica.lag.time.max`).
    Shrink {
        /// The partition whose ISR shrank.
        partition: u32,
        /// The evicted replica.
        broker: BrokerId,
        /// The ISR after the shrink.
        isr: Vec<u32>,
    },
    /// A replica caught back up and rejoined the ISR.
    Expand {
        /// The partition whose ISR grew.
        partition: u32,
        /// The rejoining replica.
        broker: BrokerId,
        /// The ISR after the expansion.
        isr: Vec<u32>,
    },
}

/// The result of a leader election.
#[derive(Debug, Clone)]
pub struct ElectionOutcome {
    /// The elected broker.
    pub leader: BrokerId,
    /// `true` when the winner was in the ISR (no acknowledged data can be
    /// lost); `false` for an unclean election from a lagging replica.
    pub clean: bool,
    /// Records truncated off the log because the new leader had not
    /// fetched them (empty for a fully caught-up winner).
    pub truncated: Vec<StoredRecord>,
    /// The partition's ISR after the election.
    pub isr: Vec<u32>,
}

/// A running cluster: brokers with their partition logs.
///
/// Partition `p` is led by broker `p % brokers`, mirroring Kafka's
/// round-robin leader spread for a fresh topic.
///
/// # Example
///
/// ```
/// use kafkasim::cluster::{Cluster, ClusterSpec};
///
/// let cluster = Cluster::new(ClusterSpec { brokers: 3, partitions: 6, ..ClusterSpec::default() }).unwrap();
/// assert_eq!(cluster.leader_of(4).0, 1);
/// assert_eq!(cluster.brokers().len(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct Cluster {
    spec: ClusterSpec,
    brokers: Vec<Broker>,
    leaders: Vec<BrokerId>,
    /// Per partition: the assigned replicas (leader first at creation).
    /// Empty inner vectors never occur; `factor = 1` leaves only the
    /// leader, so replication is a no-op.
    replicas: Vec<Vec<Replica>>,
}

impl Cluster {
    /// Builds the cluster described by `spec`.
    ///
    /// # Errors
    ///
    /// Returns the spec's validation error.
    pub fn new(spec: ClusterSpec) -> Result<Self, String> {
        spec.validate()?;
        let mut assignments: Vec<Vec<u32>> = vec![Vec::new(); spec.brokers as usize];
        for p in 0..spec.partitions {
            assignments[(p % spec.brokers) as usize].push(p);
        }
        let brokers = assignments
            .into_iter()
            .enumerate()
            .map(|(i, parts)| Broker::with_model(BrokerId(i as u32), parts, spec.broker_model))
            .collect();
        let leaders: Vec<BrokerId> = (0..spec.partitions)
            .map(|p| BrokerId(p % spec.brokers))
            .collect();
        // Kafka's rack-unaware assignment: partition p's replicas are the
        // `factor` consecutive brokers starting at its leader.
        let replicas = (0..spec.partitions)
            .map(|p| {
                (0..spec.replication.factor)
                    .map(|i| Replica {
                        broker: BrokerId((p + i) % spec.brokers),
                        leo: 0,
                        lag_since: None,
                        in_isr: true,
                    })
                    .collect()
            })
            .collect();
        Ok(Cluster {
            spec,
            brokers,
            leaders,
            replicas,
        })
    }

    /// The cluster's spec.
    #[must_use]
    pub fn spec(&self) -> &ClusterSpec {
        &self.spec
    }

    /// The broker leading `partition`.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is outside the topic.
    #[must_use]
    pub fn leader_of(&self, partition: u32) -> BrokerId {
        assert!(partition < self.spec.partitions, "unknown partition");
        self.leaders[partition as usize]
    }

    /// Moves leadership of `partition` to `to` (failover). The new leader
    /// starts a fresh log for the partition; the old replica's log is kept
    /// for consumers.
    ///
    /// # Panics
    ///
    /// Panics on an unknown partition or broker.
    pub fn transfer_leadership(&mut self, partition: u32, to: BrokerId) {
        assert!(partition < self.spec.partitions, "unknown partition");
        assert!((to.0 as usize) < self.brokers.len(), "unknown broker");
        self.brokers[to.0 as usize].add_partition(partition);
        self.leaders[partition as usize] = to;
    }

    /// All brokers.
    #[must_use]
    pub fn brokers(&self) -> &[Broker] {
        &self.brokers
    }

    /// Mutable access to one broker.
    #[must_use]
    pub fn broker_mut(&mut self, id: BrokerId) -> Option<&mut Broker> {
        self.brokers.get_mut(id.0 as usize)
    }

    /// Read access to one broker.
    #[must_use]
    pub fn broker(&self, id: BrokerId) -> Option<&Broker> {
        self.brokers.get(id.0 as usize)
    }

    /// Number of partitions in the topic.
    #[must_use]
    pub fn partitions(&self) -> u32 {
        self.spec.partitions
    }

    /// Total records stored across all partitions.
    #[must_use]
    pub fn total_records(&self) -> u64 {
        self.brokers
            .iter()
            .flat_map(|b| b.logs())
            .map(|l| l.len() as u64)
            .sum()
    }

    /// The replicas of `partition` (leader included), with their fetched
    /// offsets and ISR membership.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is outside the topic.
    #[must_use]
    pub fn replicas_of(&self, partition: u32) -> &[Replica] {
        assert!(partition < self.spec.partitions, "unknown partition");
        &self.replicas[partition as usize]
    }

    /// The current in-sync replica set of `partition`, as broker ids.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is outside the topic.
    #[must_use]
    pub fn isr_of(&self, partition: u32) -> Vec<u32> {
        self.replicas_of(partition)
            .iter()
            .filter(|r| r.in_isr)
            .map(|r| r.broker.0)
            .collect()
    }

    /// The leader's log-end offset for `partition` (0 when the leader has
    /// no log yet).
    fn leader_leo(&self, partition: u32) -> u64 {
        let leader = self.leaders[partition as usize];
        self.brokers[leader.0 as usize]
            .log(partition)
            .map_or(0, |l| l.len() as u64)
    }

    /// `true` when every in-sync replica of `partition` has fetched at
    /// least `offset` records — the `acks=all` release condition. The
    /// leader itself trivially satisfies it, so with `factor = 1` (or an
    /// ISR shrunk to the leader alone) this is always `true` once the
    /// leader appended.
    ///
    /// # Panics
    ///
    /// Panics if `partition` is outside the topic.
    #[must_use]
    pub fn isr_has(&self, partition: u32, offset: u64) -> bool {
        let leader = self.leaders[partition as usize];
        self.replicas_of(partition)
            .iter()
            .filter(|r| r.in_isr && r.broker != leader)
            .all(|r| r.leo >= offset)
    }

    /// Runs one replication round at simulated time `now`: each alive
    /// follower fetches up to `max_fetch_records` from its partition
    /// leader, catches up or accrues lag, and the ISR shrinks/expands per
    /// `replica.lag.time.max`. `down[b]` marks broker `b` as crashed
    /// (crashed followers fetch nothing; a crashed leader freezes its
    /// partition until an election).
    ///
    /// Returns what happened, for tracing.
    pub fn replicate(&mut self, now: SimTime, down: &[bool]) -> Vec<ReplicationDelta> {
        let mut deltas = Vec::new();
        let lag_max = self.spec.replication.lag_time_max;
        let max_fetch = self.spec.replication.max_fetch_records;
        for p in 0..self.spec.partitions {
            let leader = self.leaders[p as usize];
            let leader_down = down.get(leader.0 as usize).copied().unwrap_or(false);
            let leader_leo = self.leader_leo(p);
            let mut shrunk: Vec<BrokerId> = Vec::new();
            let mut expanded: Vec<BrokerId> = Vec::new();
            for r in self.replicas[p as usize].iter_mut() {
                if r.broker == leader {
                    r.leo = leader_leo;
                    r.lag_since = None;
                    continue;
                }
                let follower_down = down.get(r.broker.0 as usize).copied().unwrap_or(false);
                if !follower_down && !leader_down && r.leo < leader_leo {
                    let n = max_fetch.min(leader_leo - r.leo);
                    deltas.push(ReplicationDelta::Fetch {
                        partition: p,
                        leader,
                        follower: r.broker,
                        from_offset: r.leo,
                        records: n,
                    });
                    r.leo += n;
                }
                if r.leo >= leader_leo {
                    r.lag_since = None;
                    if !r.in_isr && !follower_down {
                        r.in_isr = true;
                        expanded.push(r.broker);
                    }
                } else {
                    let since = *r.lag_since.get_or_insert(now);
                    if r.in_isr && now.saturating_since(since) > lag_max {
                        r.in_isr = false;
                        shrunk.push(r.broker);
                    }
                }
            }
            for b in shrunk {
                let isr = self.isr_of(p);
                deltas.push(ReplicationDelta::Shrink {
                    partition: p,
                    broker: b,
                    isr,
                });
            }
            for b in expanded {
                let isr = self.isr_of(p);
                deltas.push(ReplicationDelta::Expand {
                    partition: p,
                    broker: b,
                    isr,
                });
            }
        }
        deltas
    }

    /// Picks an election candidate for `partition` among its alive
    /// replicas, excluding the current (crashed) leader: the in-sync
    /// replica with the highest fetched offset when one is alive (clean),
    /// otherwise — only if the spec allows unclean elections — the alive
    /// replica with the highest offset (`clean = false`).
    ///
    /// `None` when no electable replica is alive (with `factor = 1` there
    /// is never one — the caller falls back to the paper's fresh-log
    /// failover).
    ///
    /// # Panics
    ///
    /// Panics if `partition` is outside the topic.
    #[must_use]
    pub fn election_candidate(&self, partition: u32, down: &[bool]) -> Option<(BrokerId, bool)> {
        let leader = self.leaders[partition as usize];
        let alive = |r: &&Replica| {
            r.broker != leader && !down.get(r.broker.0 as usize).copied().unwrap_or(false)
        };
        let best_isr = self
            .replicas_of(partition)
            .iter()
            .filter(alive)
            .filter(|r| r.in_isr)
            .max_by_key(|r| r.leo);
        if let Some(r) = best_isr {
            return Some((r.broker, true));
        }
        if !self.spec.replication.allow_unclean {
            return None;
        }
        self.replicas_of(partition)
            .iter()
            .filter(alive)
            .max_by_key(|r| r.leo)
            .map(|r| (r.broker, false))
    }

    /// Elects `to` as the new leader of `partition`: the physical log
    /// moves from the old leader to `to`, truncated to `to`'s fetched
    /// offset (records the new leader never saw are destroyed — the
    /// broker-caused loss of an unclean election). The old leader leaves
    /// the ISR; after an unclean election the ISR collapses to the new
    /// leader alone.
    ///
    /// # Panics
    ///
    /// Panics on an unknown partition, or when `to` is not a replica of
    /// `partition`.
    pub fn elect_leader(&mut self, partition: u32, to: BrokerId, now: SimTime) -> ElectionOutcome {
        assert!(partition < self.spec.partitions, "unknown partition");
        let old = self.leaders[partition as usize];
        assert!(
            self.replicas[partition as usize]
                .iter()
                .any(|r| r.broker == to),
            "broker {} is not a replica of partition {partition}",
            to.0
        );
        let clean = self.replicas[partition as usize]
            .iter()
            .any(|r| r.broker == to && r.in_isr);
        let new_leo = self.replicas[partition as usize]
            .iter()
            .find(|r| r.broker == to)
            .map_or(0, |r| r.leo);
        let truncated = if to == old {
            Vec::new()
        } else {
            let mut log = self.brokers[old.0 as usize]
                .take_log(partition)
                .unwrap_or_else(|| crate::log::PartitionLog::new(partition));
            let removed = log.truncate_to(new_leo);
            self.brokers[to.0 as usize].install_log(log);
            removed
        };
        self.leaders[partition as usize] = to;
        for r in self.replicas[partition as usize].iter_mut() {
            r.leo = r.leo.min(new_leo);
            if r.broker == to {
                r.in_isr = true;
                r.lag_since = None;
            } else if r.broker == old {
                // The crashed leader is out of sync by definition; when it
                // restarts it refetches from the truncated log end.
                r.in_isr = false;
                r.lag_since = Some(now);
            } else if !clean {
                // Unclean election: the ISR collapses to the winner.
                r.in_isr = false;
                r.lag_since = Some(now);
            }
        }
        ElectionOutcome {
            leader: to,
            clean,
            truncated,
            isr: self.isr_of(partition),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ProduceRecord;
    use crate::message::MessageKey;
    use desim::SimTime;

    #[test]
    fn partitions_spread_round_robin() {
        let c = Cluster::new(ClusterSpec {
            brokers: 3,
            partitions: 7,
            ..ClusterSpec::default()
        })
        .unwrap();
        assert_eq!(c.leader_of(0), BrokerId(0));
        assert_eq!(c.leader_of(1), BrokerId(1));
        assert_eq!(c.leader_of(2), BrokerId(2));
        assert_eq!(c.leader_of(3), BrokerId(0));
        let parts0: Vec<u32> = c.broker(BrokerId(0)).unwrap().partitions().collect();
        assert_eq!(parts0, vec![0, 3, 6]);
    }

    #[test]
    fn invalid_specs_rejected() {
        assert!(Cluster::new(ClusterSpec {
            brokers: 0,
            ..ClusterSpec::default()
        })
        .is_err());
        assert!(Cluster::new(ClusterSpec {
            partitions: 0,
            ..ClusterSpec::default()
        })
        .is_err());
    }

    #[test]
    fn total_records_counts_across_brokers() {
        let mut c = Cluster::new(ClusterSpec::default()).unwrap();
        for p in 0..3 {
            let leader = c.leader_of(p);
            c.broker_mut(leader)
                .unwrap()
                .append(
                    p,
                    &[ProduceRecord {
                        key: MessageKey(p as u64),
                        payload_bytes: 10,
                        created_at: SimTime::ZERO,
                    }],
                    SimTime::ZERO,
                )
                .unwrap();
        }
        assert_eq!(c.total_records(), 3);
    }

    #[test]
    #[should_panic(expected = "unknown partition")]
    fn leader_of_unknown_partition_panics() {
        let c = Cluster::new(ClusterSpec::default()).unwrap();
        let _ = c.leader_of(99);
    }

    fn replicated_cluster(factor: u32) -> Cluster {
        Cluster::new(ClusterSpec {
            brokers: 3,
            partitions: 1,
            replication: ReplicationSpec {
                factor,
                max_fetch_records: 2,
                lag_time_max: SimDuration::from_millis(100),
                allow_unclean: false,
                ..ReplicationSpec::default()
            },
            ..ClusterSpec::default()
        })
        .unwrap()
    }

    fn append_keys(c: &mut Cluster, partition: u32, keys: core::ops::Range<u64>) {
        let leader = c.leader_of(partition);
        let records: Vec<ProduceRecord> = keys
            .map(|k| ProduceRecord {
                key: MessageKey(k),
                payload_bytes: 10,
                created_at: SimTime::ZERO,
            })
            .collect();
        c.broker_mut(leader)
            .unwrap()
            .append(partition, &records, SimTime::ZERO)
            .unwrap();
    }

    #[test]
    fn rejects_factor_beyond_brokers() {
        let err = Cluster::new(ClusterSpec {
            brokers: 2,
            replication: ReplicationSpec {
                factor: 3,
                ..ReplicationSpec::default()
            },
            ..ClusterSpec::default()
        })
        .unwrap_err();
        assert!(err.contains("cluster.replication.factor"), "{err}");
    }

    #[test]
    fn followers_fetch_in_bounded_rounds() {
        let mut c = replicated_cluster(3);
        append_keys(&mut c, 0, 0..5);
        let down = [false; 3];
        let deltas = c.replicate(SimTime::from_millis(50), &down);
        // Two followers each fetched max_fetch_records = 2.
        let fetches = deltas
            .iter()
            .filter(|d| matches!(d, ReplicationDelta::Fetch { records: 2, .. }))
            .count();
        assert_eq!(fetches, 2);
        assert!(!c.isr_has(0, 5), "followers still 3 records behind");
        c.replicate(SimTime::from_millis(100), &down);
        c.replicate(SimTime::from_millis(150), &down);
        assert!(c.isr_has(0, 5), "three rounds replicate all five records");
        assert_eq!(c.isr_of(0), vec![0, 1, 2]);
    }

    #[test]
    fn laggards_leave_and_rejoin_the_isr() {
        let mut c = replicated_cluster(2);
        append_keys(&mut c, 0, 0..4);
        // Broker 1 (the only follower) is down: it accrues lag and is
        // evicted once past lag_time_max (100 ms).
        let down = [false, true, false];
        c.replicate(SimTime::from_millis(50), &down);
        assert_eq!(c.isr_of(0), vec![0, 1], "lag clock started, not expired");
        let deltas = c.replicate(SimTime::from_millis(200), &down);
        assert!(deltas.iter().any(|d| matches!(
            d,
            ReplicationDelta::Shrink {
                broker: BrokerId(1),
                ..
            }
        )));
        assert_eq!(c.isr_of(0), vec![0]);
        assert!(c.isr_has(0, 4), "ISR = leader alone: trivially caught up");
        // Broker 1 restarts, refetches, rejoins.
        let down = [false; 3];
        c.replicate(SimTime::from_millis(250), &down);
        let deltas = c.replicate(SimTime::from_millis(300), &down);
        assert!(deltas.iter().any(|d| matches!(
            d,
            ReplicationDelta::Expand {
                broker: BrokerId(1),
                ..
            }
        )));
        assert_eq!(c.isr_of(0), vec![0, 1]);
    }

    #[test]
    fn clean_election_keeps_every_replicated_record() {
        let mut c = replicated_cluster(2);
        append_keys(&mut c, 0, 0..4);
        let down = [false; 3];
        c.replicate(SimTime::from_millis(50), &down);
        c.replicate(SimTime::from_millis(100), &down);
        assert!(c.isr_has(0, 4));
        // Leader 0 crashes; broker 1 is in the ISR with everything.
        let down = [true, false, false];
        let (cand, clean) = c.election_candidate(0, &down).unwrap();
        assert_eq!(cand, BrokerId(1));
        assert!(clean);
        let outcome = c.elect_leader(0, cand, SimTime::from_millis(150));
        assert!(outcome.clean);
        assert!(outcome.truncated.is_empty());
        assert_eq!(c.leader_of(0), BrokerId(1));
        assert_eq!(c.broker(BrokerId(1)).unwrap().log(0).unwrap().len(), 4);
        assert!(c.broker(BrokerId(0)).unwrap().log(0).is_none());
    }

    #[test]
    fn unclean_election_truncates_to_the_laggards_offset() {
        let mut c = Cluster::new(ClusterSpec {
            brokers: 3,
            partitions: 1,
            replication: ReplicationSpec {
                factor: 2,
                max_fetch_records: 2,
                lag_time_max: SimDuration::from_millis(100),
                allow_unclean: true,
                ..ReplicationSpec::default()
            },
            ..ClusterSpec::default()
        })
        .unwrap();
        append_keys(&mut c, 0, 0..6);
        // One fetch round only: follower 1 has 2 of 6 records, then goes
        // down and lags out of the ISR.
        let down = [false; 3];
        c.replicate(SimTime::from_millis(50), &down);
        let down = [false, true, false];
        c.replicate(SimTime::from_millis(250), &down);
        assert_eq!(c.isr_of(0), vec![0]);
        // Leader crashes: no ISR candidate alive, unclean election wins.
        let down = [true, false, false];
        let (cand, clean) = c.election_candidate(0, &down).unwrap();
        assert_eq!(cand, BrokerId(1));
        assert!(!clean);
        let outcome = c.elect_leader(0, cand, SimTime::from_millis(300));
        assert!(!outcome.clean);
        let lost: Vec<u64> = outcome.truncated.iter().map(|r| r.key.0).collect();
        assert_eq!(lost, vec![2, 3, 4, 5], "records past the fetched offset");
        assert_eq!(c.broker(BrokerId(1)).unwrap().log(0).unwrap().len(), 2);
        assert_eq!(outcome.isr, vec![1], "unclean ISR collapses to the winner");
        assert_eq!(c.total_records(), 2);
    }

    #[test]
    fn no_candidate_without_unclean_permission() {
        let mut c = replicated_cluster(2);
        append_keys(&mut c, 0, 0..6);
        let down = [false; 3];
        c.replicate(SimTime::from_millis(50), &down);
        // Evict the follower (down past the lag limit)...
        let down = [false, true, false];
        c.replicate(SimTime::from_millis(300), &down);
        assert_eq!(c.isr_of(0), vec![0]);
        // ...then crash the leader; the stale follower restarts but unclean
        // elections are disabled.
        let down = [true, false, false];
        assert!(c.election_candidate(0, &down).is_none());
    }
}
