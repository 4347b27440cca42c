//! The producer's service rate `μ(M, B)`, the second term of Eq. 2.
//!
//! Ref. \[6\] observes that "with larger M the service rate μ is lower"
//! and that batching trades service rate for latency. Both follow from
//! the linear cost model of kafkasim's [`HostModel`], whose per-request
//! cost is amortised over the batch; `μ` is the reciprocal of its mean
//! per-message service time.

use kafkasim::config::HostModel;

/// Mean service rate `μ` in messages/second for batches of `batch`
/// messages of `message_bytes` each.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub(crate) fn service_rate(host: &HostModel, message_bytes: u64, batch: usize) -> f64 {
    1.0 / host.mean_service_s(message_bytes, batch)
}

/// A service `rate` normalised to `[0, 1]` against the host's best
/// achievable rate (empty messages, unbounded batch) — the `μ` term of
/// the weighted KPI, which must be unit-scaled to combine with
/// probabilities.
pub(crate) fn normalized_rate(host: &HostModel, rate: f64) -> f64 {
    (rate / host.peak_service_rate()).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rate_falls_with_message_size() {
        let h = HostModel::default();
        assert!(service_rate(&h, 50, 1) > service_rate(&h, 1_000, 1));
    }

    #[test]
    fn rate_rises_with_batching() {
        let h = HostModel::default();
        let mut prev = service_rate(&h, 200, 1);
        for b in [2, 4, 8] {
            let rate = service_rate(&h, 200, b);
            assert!(rate > prev, "B={b}");
            prev = rate;
        }
    }

    #[test]
    fn batching_has_diminishing_returns() {
        let h = HostModel::default();
        let gain_1_2 = service_rate(&h, 200, 2) - service_rate(&h, 200, 1);
        let gain_8_9 = service_rate(&h, 200, 9) - service_rate(&h, 200, 8);
        assert!(gain_1_2 > 5.0 * gain_8_9);
    }

    #[test]
    fn service_time_components_add_up() {
        // The default host: 400 µs per request over B = 2, 300 µs per
        // message and 60 ns per byte of a 1 000-byte message.
        let s = 1.0 / service_rate(&HostModel::default(), 1_000, 2);
        assert!((s - (200e-6 + 300e-6 + 60e-6)).abs() < 1e-12);
    }

    #[test]
    fn normalized_rate_is_unit_bounded() {
        let h = HostModel::default();
        let normalized = |bytes, batch| normalized_rate(&h, service_rate(&h, bytes, batch));
        for &(bytes, batch) in &[(50u64, 1usize), (200, 10), (5_000, 1)] {
            let r = normalized(bytes, batch);
            assert!((0.0..=1.0).contains(&r), "({bytes},{batch}) → {r}");
        }
        // Large batch of tiny messages approaches the per-message bound.
        assert!(normalized(1, 10_000) > 0.95);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_panics() {
        let _ = service_rate(&HostModel::default(), 100, 0);
    }
}
