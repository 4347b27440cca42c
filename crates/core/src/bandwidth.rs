//! Network bandwidth utilisation `φ`, the first term of Eq. 2.
//!
//! The paper's "utilisation of network bandwidth … under normal
//! circumstances": how much of the link's capacity the producer's offered
//! wire traffic uses. [`crate::kpi::KpiModel`] feeds it the request sizes
//! of kafkasim's `WireFormat` and the link of the testbed calibration.

/// Offered wire throughput in bytes/second. Negative inputs count as zero.
///
/// `message_rate` is in messages/second and `wire_bytes_per_message`
/// includes all protocol overhead (record framing, request headers, TCP/IP
/// headers amortised per message).
fn offered_bytes_per_sec(message_rate: f64, wire_bytes_per_message: f64) -> f64 {
    message_rate.max(0.0) * wire_bytes_per_message.max(0.0)
}

/// Bandwidth utilisation `φ ∈ [0, 1]`. The capacity must be strictly
/// positive; `KpiModel::from_calibration` checks it once.
pub(crate) fn utilisation(
    message_rate: f64,
    wire_bytes_per_message: f64,
    capacity_bytes_per_sec: f64,
) -> f64 {
    (offered_bytes_per_sec(message_rate, wire_bytes_per_message) / capacity_bytes_per_sec)
        .clamp(0.0, 1.0)
}

/// Wire bytes per message of a `request_bytes`-byte produce request
/// carrying `batch` messages: the request plus one TCP/IP header per
/// `mss`-sized segment, amortised over the batch.
pub(crate) fn wire_bytes_per_message(
    request_bytes: f64,
    batch: usize,
    packet_header: f64,
    mss: f64,
) -> f64 {
    let packets = (request_bytes / mss).ceil().max(1.0);
    (request_bytes + packets * packet_header) / batch as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A request of `batch` 100-byte payloads with a 94-byte request
    /// header and 40 bytes of framing per record.
    fn request_bytes(batch: usize) -> f64 {
        94.0 + batch as f64 * (40.0 + 100.0)
    }

    #[test]
    fn utilisation_clamps_to_one() {
        assert_eq!(utilisation(1e9, 1_000.0, 1_000.0), 1.0);
        assert_eq!(utilisation(0.0, 1_000.0, 1_000.0), 0.0);
    }

    #[test]
    fn utilisation_is_offered_over_capacity() {
        assert_eq!(utilisation(1_000.0, 500.0, 1_000_000.0), 0.5);
    }

    #[test]
    fn batching_reduces_wire_bytes_per_message() {
        let single = wire_bytes_per_message(request_bytes(1), 1, 66.0, 1448.0);
        let batched = wire_bytes_per_message(request_bytes(10), 10, 66.0, 1448.0);
        assert!(batched < single);
        // Payload + record overhead is the irreducible floor.
        assert!(batched > 140.0);
    }

    #[test]
    fn utilisation_grows_with_rate() {
        let phi_lo = utilisation(100.0, 300.0, 1e6);
        let phi_hi = utilisation(1_000.0, 300.0, 1e6);
        assert!(phi_hi > phi_lo);
    }

    #[test]
    fn negative_inputs_are_clamped() {
        assert_eq!(offered_bytes_per_sec(-5.0, 100.0), 0.0);
        assert_eq!(utilisation(-5.0, 100.0, 1e6), 0.0);
    }
}
