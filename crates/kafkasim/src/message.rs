//! Messages: the unit of delivery whose reliability the paper measures.
//!
//! Following the paper's testbed design (§III-E), every source message
//! carries an **incremental unique key** so that lost and duplicated
//! messages can be counted by comparing source keys with the keys a consumer
//! reads back; the payload is an opaque string of configurable length whose
//! content is irrelevant.

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// The incremental unique key identifying one source message.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct MessageKey(pub u64);

impl core::fmt::Display for MessageKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "msg#{}", self.0)
    }
}

/// One message as seen by the producer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub(crate) struct Message {
    /// Unique incremental key.
    pub key: MessageKey,
    /// Payload size `M` in bytes (the paper's first feature).
    pub payload_bytes: u64,
    /// When the message arrived at the producer.
    pub created_at: SimTime,
    /// Hard delivery deadline: `created_at + T_o` (message timeout).
    pub deadline: SimTime,
}

impl Message {
    /// Creates a message with the given timeout `T_o`.
    #[must_use]
    pub(crate) fn new(
        key: MessageKey,
        payload_bytes: u64,
        created_at: SimTime,
        timeout: SimDuration,
    ) -> Self {
        Message {
            key,
            payload_bytes,
            created_at,
            deadline: created_at + timeout,
        }
    }

    /// `true` once the message timeout has elapsed.
    #[must_use]
    pub(crate) fn is_expired(&self, now: SimTime) -> bool {
        now >= self.deadline
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expiry_follows_timeout() {
        let m = Message::new(
            MessageKey(1),
            200,
            SimTime::from_secs(1),
            SimDuration::from_millis(500),
        );
        assert!(!m.is_expired(SimTime::from_millis(1_400)));
        assert!(m.is_expired(SimTime::from_millis(1_500)));
    }

    #[test]
    fn key_displays_readably() {
        assert_eq!(MessageKey(42).to_string(), "msg#42");
    }
}
