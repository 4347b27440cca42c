//! Wire sizing of the (simulated) Kafka binary protocol.
//!
//! Kafka speaks a binary protocol over TCP. For reliability purposes only
//! the *sizes* matter: they determine packet counts, serialisation times and
//! bandwidth contention. The constants below approximate the Kafka v2
//! record-batch framing.

use serde::{Deserialize, Serialize};

/// Protocol overhead constants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireFormat {
    /// Fixed bytes per produce request (request header, topic/partition
    /// framing, batch header).
    pub request_overhead: u64,
    /// Bytes per record beyond its payload (offset delta, timestamp delta,
    /// key, varint lengths).
    pub record_overhead: u64,
    /// Size of a produce response (acks=1) on the wire.
    pub response_bytes: u64,
}

impl Default for WireFormat {
    fn default() -> Self {
        WireFormat {
            request_overhead: 94,
            record_overhead: 40,
            response_bytes: 68,
        }
    }
}

impl WireFormat {
    /// Application bytes of a produce request carrying the given payload
    /// sizes.
    #[must_use]
    pub fn request_bytes<I>(&self, payload_sizes: I) -> u64
    where
        I: IntoIterator<Item = u64>,
    {
        let mut total = self.request_overhead;
        for p in payload_sizes {
            total += self.record_overhead + p;
        }
        total
    }

    /// Request bytes for a batch of `count` equally-sized messages.
    #[must_use]
    pub fn request_bytes_uniform(&self, count: usize, payload: u64) -> u64 {
        self.request_overhead + (self.record_overhead + payload) * count as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_bytes_sum_payloads() {
        let w = WireFormat::default();
        assert_eq!(
            w.request_bytes([100, 200]),
            w.request_overhead + 2 * w.record_overhead + 300
        );
        assert_eq!(w.request_bytes_uniform(2, 150), w.request_bytes([150, 150]));
    }

    #[test]
    fn batching_amortises_overhead() {
        let w = WireFormat::default();
        let single = w.request_bytes_uniform(1, 100);
        let batched = w.request_bytes_uniform(10, 100);
        assert!(
            batched < single * 10,
            "10-batch beats 10 singles on the wire"
        );
    }

    #[test]
    fn empty_batch_is_pure_overhead() {
        let w = WireFormat::default();
        assert_eq!(w.request_bytes(std::iter::empty()), w.request_overhead);
    }
}
