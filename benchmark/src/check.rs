//! Conservation checks: every message is delivered, lost with a cause, or
//! duplicated. A run that fails one is a failed operation.

use kafkasim::DeliveryReport;

/// Checks one run's audit report against the number of source messages
/// asked for. `to_run_spec` caps simulated time at 7 200 s and silently
/// truncates `n_source` when a point does not finish under it, which
/// `n_source != requested` catches.
pub fn report(r: &DeliveryReport, requested: u64) -> Result<(), String> {
    if r.n_source != requested {
        return Err(format!(
            "n_source {} != requested {requested} (simulated-time cap hit?)",
            r.n_source
        ));
    }
    let resolved = r.delivered_once + r.lost + r.duplicated;
    if resolved != r.n_source {
        return Err(format!(
            "delivered_once {} + lost {} + duplicated {} = {resolved} != n_source {}",
            r.delivered_once, r.lost, r.duplicated, r.n_source
        ));
    }
    let attributed: u64 = r.loss_reasons.values().sum();
    if attributed != r.lost {
        return Err(format!(
            "loss reasons sum to {attributed}, lost is {}",
            r.lost
        ));
    }
    Ok(())
}

/// [`report`] plus the broker-side ledger: every appended record is a first
/// copy or a duplicate copy.
pub fn outcome(o: &kafkasim::RunOutcome, requested: u64) -> Result<(), String> {
    report(&o.report, requested)?;
    let r = &o.report;
    let copies = r.delivered_once + r.duplicated + r.extra_copies;
    if o.records_appended != copies {
        return Err(format!(
            "records_appended {} != delivered_once + duplicated + extra_copies = {copies}",
            o.records_appended
        ));
    }
    Ok(())
}

/// A fleet strategy row conserves flow messages: produced = delivered + lost.
pub fn fleet_row(row: &bench::figures::FleetStrategyRow) -> Result<(), String> {
    if row.produced != row.delivered + row.lost {
        return Err(format!(
            "{}: produced {} != delivered {} + lost {}",
            row.strategy, row.produced, row.delivered, row.lost
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use kafkasim::LossReason;

    fn good() -> DeliveryReport {
        DeliveryReport {
            n_source: 10,
            delivered_once: 6,
            lost: 3,
            duplicated: 1,
            extra_copies: 2,
            case_counts: [0; 5],
            loss_reasons: [
                (LossReason::ExpiredInBuffer, 2),
                (LossReason::ConnectionReset, 1),
            ]
            .into_iter()
            .collect(),
            latency: Default::default(),
            stale: 0,
            duration: desim::SimDuration::from_secs(1),
        }
    }

    #[test]
    fn a_conserving_report_passes() {
        assert_eq!(report(&good(), 10), Ok(()));
    }

    #[test]
    fn a_truncated_run_is_rejected() {
        let err = report(&good(), 11).unwrap_err();
        assert!(err.contains("n_source 10 != requested 11"), "{err}");
    }

    #[test]
    fn a_leaking_report_is_rejected() {
        let mut bad = good();
        bad.lost = 2;
        bad.loss_reasons.insert(LossReason::ExpiredInBuffer, 1);
        let err = report(&bad, 10).unwrap_err();
        assert!(err.contains("!= n_source 10"), "{err}");
    }

    #[test]
    fn unattributed_loss_is_rejected() {
        let mut bad = good();
        bad.loss_reasons.remove(&LossReason::ConnectionReset);
        let err = report(&bad, 10).unwrap_err();
        assert!(err.contains("loss reasons sum to 2, lost is 3"), "{err}");
    }
}
