//! The end-of-run audit: source keys vs consumed keys.
//!
//! Implements the paper's counting methodology (§III-F): out of `N` source
//! messages, `N_l` are in Case 2 or Case 3 (lost), `N_d` in Case 5
//! (duplicated); the reliability metrics are `P_l = N_l / N` and
//! `P_d = N_d / N`.

use std::collections::BTreeMap;

use desim::stats::RunningMoments;
use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::consumer::ConsumedTopic;
use crate::message::MessageKey;
use crate::producer::Ledger;
use crate::state::DeliveryCase;

/// Why the producer gave up on a message: the trace's [`obs::LossCause`],
/// under the audit's name.
pub use obs::LossCause as LossReason;

/// Latency summary in seconds (finite even when empty, so it serialises).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct LatencyStats {
    /// Delivered messages measured.
    pub count: u64,
    /// Mean first-copy latency in seconds.
    pub mean_s: f64,
    /// Standard deviation in seconds.
    pub std_s: f64,
    /// Minimum in seconds (0 when empty).
    pub min_s: f64,
    /// Maximum in seconds (0 when empty).
    pub max_s: f64,
}

impl From<&RunningMoments> for LatencyStats {
    fn from(m: &RunningMoments) -> Self {
        LatencyStats {
            count: m.count(),
            mean_s: m.mean(),
            std_s: m.std_dev(),
            min_s: m.min().unwrap_or(0.0),
            max_s: m.max().unwrap_or(0.0),
        }
    }
}

/// The reliability report of one experiment run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryReport {
    /// Source messages fed to the producer (`N`).
    pub n_source: u64,
    /// Messages found exactly once in the topic.
    pub delivered_once: u64,
    /// Messages not found at all (`N_l`).
    pub lost: u64,
    /// Messages found more than once (`N_d`).
    pub duplicated: u64,
    /// Total extra copies beyond the first, summed over duplicated keys.
    pub extra_copies: u64,
    /// Per-case counts, indexed by `DeliveryCase::index`.
    pub case_counts: [u64; 5],
    /// Loss attribution from the producer's ledger.
    pub loss_reasons: BTreeMap<LossReason, u64>,
    /// First-copy delivery latency statistics (seconds).
    pub latency: LatencyStats,
    /// Delivered messages whose first-copy latency exceeded the stream's
    /// timeliness `S` (stale deliveries).
    pub stale: u64,
    /// Wall-clock (simulated) duration of the run.
    pub duration: SimDuration,
}

impl DeliveryReport {
    /// `P_l = N_l / N` — the probability of message loss.
    #[must_use]
    pub fn p_loss(&self) -> f64 {
        if self.n_source == 0 {
            0.0
        } else {
            self.lost as f64 / self.n_source as f64
        }
    }

    /// `P_d = N_d / N` — the probability of message duplication.
    #[must_use]
    pub fn p_dup(&self) -> f64 {
        if self.n_source == 0 {
            0.0
        } else {
            self.duplicated as f64 / self.n_source as f64
        }
    }

    /// Delivered fraction (exactly-once plus duplicated firsts).
    #[must_use]
    pub fn delivery_rate(&self) -> f64 {
        if self.n_source == 0 {
            0.0
        } else {
            (self.delivered_once + self.duplicated) as f64 / self.n_source as f64
        }
    }

    /// Delivered messages per simulated second.
    #[must_use]
    pub fn throughput(&self) -> f64 {
        let secs = self.duration.as_secs_f64();
        if secs <= 0.0 {
            0.0
        } else {
            (self.delivered_once + self.duplicated) as f64 / secs
        }
    }

    /// Count for one Table I case.
    #[must_use]
    pub fn case_count(&self, case: DeliveryCase) -> u64 {
        self.case_counts[case.index()]
    }
}

/// Folds tag-indexed loss counters into the report's per-reason map.
///
/// Slot 0 holds lost messages the producer never marked; the paper's
/// methodology attributes those to `UnsentAtEnd`. Only non-zero reasons are
/// inserted, matching the entry-on-first-occurrence behaviour of the old
/// per-message map updates exactly.
fn loss_map(mut loss_by_tag: [u64; 7]) -> BTreeMap<LossReason, u64> {
    loss_by_tag[LossReason::UnsentAtEnd.tag() as usize] += loss_by_tag[0];
    let mut map = BTreeMap::new();
    for reason in LossReason::ALL {
        let n = loss_by_tag[reason.tag() as usize];
        if n > 0 {
            map.insert(reason, n);
        }
    }
    map
}

/// Builds the report by comparing the source ledger with the consumed topic.
///
/// `timeliness` is the stream's `S`; when present, delivered messages whose
/// first copy arrived later than `S` after creation are counted stale.
///
/// The counting pass is branch-free over the ledger's columns: outcome
/// cases go through [`DeliveryCase::classify_index`]'s lookup table and
/// loss reasons through tag-indexed counters, so the loop is a straight
/// stream over two dense ledger columns plus the topic's two per-key
/// columns (copies and first-copy latency).
#[must_use]
pub(crate) fn audit(
    ledger: &Ledger,
    topic: &ConsumedTopic,
    timeliness: Option<SimDuration>,
    ended_at: SimTime,
) -> DeliveryReport {
    let n_source = ledger.len() as u64;
    let mut latency = RunningMoments::new();
    let mut delivered_once = 0u64;
    let mut lost = 0u64;
    let mut duplicated = 0u64;
    let mut extra_copies = 0u64;
    let mut case_counts = [0u64; 5];
    let mut loss_by_tag = [0u64; 7];
    let mut stale = 0u64;
    let columns = ledger.attempts_col().iter().zip(ledger.lost_col());
    for (idx, (&attempts, &lost_tag)) in columns.enumerate() {
        let key = MessageKey(idx as u64);
        let copies = topic.copies(key);
        case_counts[DeliveryCase::classify_index(attempts, copies)] += 1;
        let is_lost = u64::from(copies == 0);
        lost += is_lost;
        delivered_once += u64::from(copies == 1);
        duplicated += u64::from(copies > 1);
        extra_copies += copies.saturating_sub(1);
        // Adds 0 to an arbitrary slot for delivered messages, so no branch.
        // A tag is 0 or a `LossReason::tag` (1..=6), so the slot exists.
        loss_by_tag[lost_tag as usize] += is_lost;
        if let Some(first) = topic.first_latency(key) {
            latency.record(first.as_secs_f64());
            if timeliness.is_some_and(|s| first > s) {
                stale += 1;
            }
        }
    }
    DeliveryReport {
        n_source,
        delivered_once,
        lost,
        duplicated,
        extra_copies,
        case_counts,
        loss_reasons: loss_map(loss_by_tag),
        latency: LatencyStats::from(&latency),
        stale,
        duration: ended_at.saturating_since(SimTime::ZERO),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::broker::ProduceRecord;
    use crate::cluster::{Cluster, ClusterSpec};

    fn build(
        outcomes: &[(
            u32, /* attempts */
            u64, /* copies */
            Option<LossReason>,
        )],
    ) -> DeliveryReport {
        let mut ledger = Ledger::default();
        let mut cluster = Cluster::new(ClusterSpec {
            brokers: 1,
            partitions: 1,
            ..ClusterSpec::default()
        })
        .unwrap();
        for (i, &(attempts, copies, lost)) in outcomes.iter().enumerate() {
            let key = MessageKey(i as u64);
            ledger.register(key, SimTime::ZERO);
            for _ in 0..attempts {
                ledger.note_attempt(key);
            }
            if let Some(reason) = lost {
                ledger.mark_lost(key, reason);
            }
            for _ in 0..copies {
                let leader = cluster.leader_of(0);
                cluster
                    .broker_mut(leader)
                    .unwrap()
                    .append(
                        0,
                        &[ProduceRecord {
                            key,
                            payload_bytes: 100,
                            created_at: SimTime::ZERO,
                        }],
                        SimTime::from_millis(10),
                    )
                    .unwrap();
            }
        }
        let topic = ConsumedTopic::read_all(&cluster, &ledger);
        audit(
            &ledger,
            &topic,
            Some(SimDuration::from_millis(5)),
            SimTime::from_secs(1),
        )
    }

    #[test]
    fn metrics_match_paper_definitions() {
        let report = build(&[
            (1, 1, None),                               // Case1
            (1, 0, Some(LossReason::ExpiredInBuffer)),  // Case2
            (4, 0, Some(LossReason::RetriesExhausted)), // Case3
            (3, 1, None),                               // Case4
            (2, 2, None),                               // Case5
        ]);
        assert_eq!(report.n_source, 5);
        assert_eq!(report.lost, 2);
        assert_eq!(report.duplicated, 1);
        assert_eq!(report.extra_copies, 1);
        assert!((report.p_loss() - 0.4).abs() < 1e-12);
        assert!((report.p_dup() - 0.2).abs() < 1e-12);
        assert!((report.delivery_rate() - 0.6).abs() < 1e-12);
        for (case, expected) in DeliveryCase::all().into_iter().zip([1, 1, 1, 1, 1]) {
            assert_eq!(report.case_count(case), expected, "{case}");
        }
    }

    #[test]
    fn loss_reasons_are_attributed() {
        let report = build(&[
            (0, 0, Some(LossReason::BufferOverflow)),
            (1, 0, Some(LossReason::ConnectionReset)),
            (1, 0, None), // producer never marked it: unsent-at-end
        ]);
        assert_eq!(report.loss_reasons[&LossReason::BufferOverflow], 1);
        assert_eq!(report.loss_reasons[&LossReason::ConnectionReset], 1);
        assert_eq!(report.loss_reasons[&LossReason::UnsentAtEnd], 1);
    }

    #[test]
    fn staleness_counts_late_deliveries() {
        // Latency is 10ms (appended_at 10ms, created 0); S = 5ms → stale.
        let report = build(&[(1, 1, None)]);
        assert_eq!(report.stale, 1);
        assert!((report.latency.mean_s - 0.010).abs() < 1e-9);
    }

    #[test]
    fn empty_run_is_all_zero() {
        let report = build(&[]);
        assert_eq!(report.p_loss(), 0.0);
        assert_eq!(report.p_dup(), 0.0);
        assert_eq!(report.throughput(), 0.0);
    }

    #[test]
    fn ghost_copies_override_producer_pessimism() {
        // Producer thought it lost the message, but a copy landed: the audit
        // trusts the log (Case 4: attempts > 1, one copy).
        let report = build(&[(2, 1, Some(LossReason::RetriesExhausted))]);
        assert_eq!(report.lost, 0);
        assert_eq!(report.case_count(DeliveryCase::Case4), 1);
    }
}
