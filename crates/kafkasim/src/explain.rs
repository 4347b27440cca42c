//! Cross-checking a reconstructed trace against the end-of-run audit.
//!
//! The audit ([`crate::audit`]) counts what happened; a trace
//! ([`obs::TimelineReport`]) explains why. [`crosscheck`] ties them
//! together: it verifies that the per-message timelines account for every
//! `P_l` and `P_d` count in the [`DeliveryReport`] — same number of lost
//! messages, same loss-reason histogram, same number of duplicated
//! messages, and a traced cause behind each one.

use obs::TimelineReport;

use crate::audit::DeliveryReport;

/// The verdict of comparing a [`TimelineReport`] with a
/// [`DeliveryReport`].
#[derive(Debug, Clone, Default)]
pub struct TraceAudit {
    /// The trace reconstructs the same number of lost messages as the
    /// audit counted.
    pub lost_count_matches: bool,
    /// The trace reconstructs the same number of duplicated messages.
    pub duplicated_count_matches: bool,
    /// The per-cause loss histogram from the trace equals the audit's
    /// `loss_reasons`.
    pub loss_reasons_match: bool,
    /// Keys the trace sees as lost but cannot attribute to a cause.
    pub unattributed_lost: Vec<u64>,
    /// Keys the trace sees as duplicated without a visible mechanism.
    pub unattributed_duplicates: Vec<u64>,
    /// Human-readable descriptions of every discrepancy found.
    pub discrepancies: Vec<String>,
}

impl TraceAudit {
    /// `true` when the trace fully explains the audit: counts match,
    /// loss-reason histograms match, and every lost or duplicated message
    /// has a traced cause.
    #[must_use]
    pub fn fully_explains(&self) -> bool {
        self.lost_count_matches
            && self.duplicated_count_matches
            && self.loss_reasons_match
            && self.unattributed_lost.is_empty()
            && self.unattributed_duplicates.is_empty()
    }
}

/// Compares the audit's aggregate counts with a trace reconstruction.
///
/// Only meaningful when the trace is complete (e.g. a
/// [`obs::RingBufferSink`] large enough to hold the whole run): a
/// truncated trace will legitimately fail to explain what it never saw.
#[must_use]
pub fn crosscheck(report: &DeliveryReport, timeline: &TimelineReport) -> TraceAudit {
    let mut audit = TraceAudit {
        lost_count_matches: timeline.n_lost() == report.lost,
        duplicated_count_matches: timeline.n_duplicated() == report.duplicated,
        unattributed_lost: timeline.unattributed_lost(),
        unattributed_duplicates: timeline.unattributed_duplicates(),
        ..TraceAudit::default()
    };
    if !audit.lost_count_matches {
        audit.discrepancies.push(format!(
            "trace reconstructs {} lost messages, audit counted {}",
            timeline.n_lost(),
            report.lost
        ));
    }
    if !audit.duplicated_count_matches {
        audit.discrepancies.push(format!(
            "trace reconstructs {} duplicated messages, audit counted {}",
            timeline.n_duplicated(),
            report.duplicated
        ));
    }

    let traced = timeline.lost_by_cause();
    audit.loss_reasons_match = traced == report.loss_reasons;
    if !audit.loss_reasons_match {
        audit.discrepancies.push(format!(
            "traced loss histogram {traced:?} != audited {:?}",
            report.loss_reasons
        ));
    }
    if !audit.unattributed_lost.is_empty() {
        audit.discrepancies.push(format!(
            "{} lost messages have no traced cause: {:?}",
            audit.unattributed_lost.len(),
            &audit.unattributed_lost[..audit.unattributed_lost.len().min(10)]
        ));
    }
    if !audit.unattributed_duplicates.is_empty() {
        audit.discrepancies.push(format!(
            "{} duplicated messages have no traced mechanism: {:?}",
            audit.unattributed_duplicates.len(),
            &audit.unattributed_duplicates[..audit.unattributed_duplicates.len().min(10)]
        ));
    }
    audit
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_trace_explains_empty_report() {
        let report = DeliveryReport {
            n_source: 0,
            delivered_once: 0,
            lost: 0,
            duplicated: 0,
            extra_copies: 0,
            case_counts: [0; 5],
            loss_reasons: std::collections::BTreeMap::new(),
            latency: crate::audit::LatencyStats::default(),
            stale: 0,
            duration: desim::SimDuration::ZERO,
        };
        let timeline = TimelineReport::reconstruct(&[]);
        assert!(crosscheck(&report, &timeline).fully_explains());
    }
}
