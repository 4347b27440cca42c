//! Producer configuration: the paper's tunable features.
//!
//! The prediction model's configuration features (§III-D) are the delivery
//! semantics, the batch size `B`, the polling interval `δ` and the message
//! timeout `T_o`. This module also exposes the secondary knobs a real
//! producer has (request timeout, in-flight limit, retries `τ_r`, linger,
//! buffer capacity) plus the CPU/I-O cost model of the producer host, which
//! the paper holds fixed ("we assume that the hardware resources for a
//! producer are fixed").

use desim::SimDuration;
use serde::{Deserialize, Serialize};

/// Delivery semantics of the producer (the paper's feature (e)).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DeliverySemantics {
    /// `acks=0`: fire-and-forget; each message is sent once and no broker
    /// response is expected. Only Case 1 and Case 2 can occur.
    AtMostOnce,
    /// `acks=1`: the broker acknowledges each produce request; the producer
    /// retries unacknowledged requests until `τ_r` or `T_o` is exhausted.
    AtLeastOnce,
    /// `acks=all`: the leader withholds the acknowledgement until every
    /// in-sync replica has fetched the records, so a clean leader failover
    /// can never lose an acknowledged message. Retry behaviour matches
    /// at-least-once; with a replication factor of 1 it degenerates to
    /// `acks=1`. (Beyond the paper, which studies `acks={0,1}` only.)
    All,
}

impl core::fmt::Display for DeliverySemantics {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DeliverySemantics::AtMostOnce => write!(f, "at-most-once"),
            DeliverySemantics::AtLeastOnce => write!(f, "at-least-once"),
            DeliverySemantics::All => write!(f, "acks-all"),
        }
    }
}

/// Fixed hardware cost model of the producer host.
///
/// The paper fixes the producer's physical resources and varies only
/// configuration and network; these constants are the simulation's stand-in
/// for that fixed machine. They are calibrated once (see
/// `testbed::calibration`) and then frozen for every experiment.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct HostModel {
    /// CPU time to serialise one message, excluding payload bytes.
    pub cpu_per_message: SimDuration,
    /// CPU time per payload byte serialised.
    pub cpu_per_byte_ns: f64,
    /// Fixed per-request CPU overhead (framing, compression bookkeeping).
    pub cpu_per_request: SimDuration,
    /// If `true`, service times are exponentially distributed around their
    /// mean (models CPU contention/GC jitter in a containerised producer);
    /// if `false`, they are deterministic.
    pub jittered_service: bool,
    /// I/O time to fetch one message from the upstream source, excluding
    /// payload bytes. Bounds the full-load polling rate.
    pub io_per_message: SimDuration,
    /// Upstream I/O throughput in bytes/second; with `io_per_message` this
    /// bounds the full-load (δ = 0) arrival rate `λ_max(M)`.
    pub io_bytes_per_sec: f64,
}

impl Default for HostModel {
    fn default() -> Self {
        HostModel {
            cpu_per_message: SimDuration::from_micros(300),
            cpu_per_byte_ns: 60.0,
            cpu_per_request: SimDuration::from_micros(400),
            jittered_service: true,
            io_per_message: SimDuration::from_micros(200),
            io_bytes_per_sec: 1_000_000.0,
        }
    }
}

impl HostModel {
    /// Mean CPU time to serialise a batch of `count` messages totalling
    /// `payload_bytes`.
    #[must_use]
    pub fn service_time(&self, count: usize, payload_bytes: u64) -> SimDuration {
        self.cpu_per_request
            + self.cpu_per_message * count as u64
            + SimDuration::from_secs_f64(self.cpu_per_byte_ns * 1e-9 * payload_bytes as f64)
    }

    /// Mean CPU time per message, in seconds, for batches of `batch`
    /// messages of `message_bytes` each: the per-request cost amortised
    /// over the batch, plus the per-message and per-byte costs. Equals
    /// `service_time(batch, batch · message_bytes) / batch` without the
    /// microsecond rounding; `1 / mean_service_s` is the service rate `μ`
    /// of Eq. 2.
    ///
    /// # Example
    ///
    /// ```
    /// use kafkasim::config::HostModel;
    ///
    /// let host = HostModel::default();
    /// // Batching amortises the per-request cost: μ grows with B.
    /// assert!(host.mean_service_s(200, 10) < host.mean_service_s(200, 1));
    /// // 400 µs / 4 + 300 µs + 60 ns · 1000 per message.
    /// assert!((host.mean_service_s(1_000, 4) - 460e-6).abs() < 1e-12);
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    #[must_use]
    pub fn mean_service_s(&self, message_bytes: u64, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        self.cpu_per_request.as_secs_f64() / batch as f64
            + self.cpu_per_message.as_secs_f64()
            + self.cpu_per_byte_ns * 1e-9 * message_bytes as f64
    }

    /// The service rate's upper bound in messages/second,
    /// `1 / cpu_per_message`: the rate [`HostModel::mean_service_s`]
    /// approaches for empty messages as the batch grows without bound.
    /// Eq. 2 normalises `μ` against it.
    #[must_use]
    pub fn peak_service_rate(&self) -> f64 {
        1.0 / self.cpu_per_message.as_secs_f64()
    }

    /// Time to fetch one message of `payload_bytes` from the source at full
    /// speed.
    #[must_use]
    pub fn fetch_time(&self, payload_bytes: u64) -> SimDuration {
        self.io_per_message
            + SimDuration::from_secs_f64(payload_bytes as f64 / self.io_bytes_per_sec)
    }
}

/// Full producer configuration.
///
/// Build with [`ProducerConfig::builder`]; [`ProducerConfigBuilder::build`]
/// validates the combination.
///
/// # Example
///
/// ```
/// use kafkasim::config::{DeliverySemantics, ProducerConfig};
/// use desim::SimDuration;
///
/// let config = ProducerConfig::builder()
///     .semantics(DeliverySemantics::AtLeastOnce)
///     .batch_size(4)
///     .message_timeout(SimDuration::from_millis(1500))
///     .poll_interval(SimDuration::from_millis(10))
///     .build()?;
/// assert_eq!(config.batch_size, 4);
/// # Ok::<(), kafkasim::config::ConfigError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProducerConfig {
    /// Delivery semantics (paper feature (e)).
    pub semantics: DeliverySemantics,
    /// Messages per batch, `B ≥ 1` (paper feature (f)).
    pub batch_size: usize,
    /// Polling interval `δ` between source fetches; `ZERO` = full load
    /// (paper feature (g)).
    pub poll_interval: SimDuration,
    /// Message timeout `T_o`: the maximum time a producer may spend on one
    /// message, including retries (paper feature (h)).
    pub message_timeout: SimDuration,
    /// How long an open batch may wait for more messages before being sent
    /// anyway (Kafka's `linger.ms`).
    pub linger: SimDuration,
    /// Maximum Kafka-level retries `τ_r` per batch (at-least-once only).
    pub max_retries: u32,
    /// Response timeout per produce request (at-least-once only); an
    /// unanswered request fails the connection and triggers retries.
    pub request_timeout: SimDuration,
    /// Maximum unacknowledged produce requests in flight per connection
    /// (at-least-once only).
    pub max_in_flight: usize,
    /// Accumulator capacity in messages (Kafka's `buffer.memory`); overflow
    /// drops new messages.
    pub buffer_capacity: usize,
    /// Consecutive RTO backoffs after which a connection is declared dead
    /// and reset (at-most-once's silent-loss mechanism).
    pub stall_backoffs: u32,
    /// Maximum time without transport progress before a fire-and-forget
    /// connection is recycled (the client-side analogue of
    /// `TCP_USER_TIMEOUT`; at-least-once uses the request timeout instead).
    pub stall_patience: SimDuration,
    /// Host cost model (fixed hardware).
    pub host: HostModel,
}

impl Default for ProducerConfig {
    fn default() -> Self {
        ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval: SimDuration::ZERO,
            message_timeout: SimDuration::from_millis(3_000),
            linger: SimDuration::from_millis(200),
            max_retries: 5,
            request_timeout: SimDuration::from_millis(1_000),
            max_in_flight: 5,
            buffer_capacity: 500_000,
            stall_backoffs: 3,
            stall_patience: SimDuration::from_millis(1_500),
            host: HostModel::default(),
        }
    }
}

impl ProducerConfig {
    /// Starts building a configuration from the defaults.
    #[must_use]
    pub fn builder() -> ProducerConfigBuilder {
        ProducerConfigBuilder {
            config: ProducerConfig::default(),
        }
    }

    /// Validates an already-built configuration.
    ///
    /// # Errors
    ///
    /// Returns the first violated constraint.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.batch_size == 0 {
            return Err(ConfigError::ZeroBatchSize);
        }
        if self.message_timeout.is_zero() {
            return Err(ConfigError::ZeroMessageTimeout);
        }
        if self.max_in_flight == 0 {
            return Err(ConfigError::ZeroInFlight);
        }
        if self.buffer_capacity < self.batch_size {
            return Err(ConfigError::BufferSmallerThanBatch);
        }
        if self.request_timeout.is_zero() {
            return Err(ConfigError::ZeroRequestTimeout);
        }
        if self.stall_backoffs == 0 {
            return Err(ConfigError::ZeroStallBackoffs);
        }
        if self.stall_patience.is_zero() {
            return Err(ConfigError::ZeroStallPatience);
        }
        Ok(())
    }
}

/// Validation error for [`ProducerConfig`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// `batch_size` must be at least 1.
    ZeroBatchSize,
    /// `message_timeout` must be positive.
    ZeroMessageTimeout,
    /// `max_in_flight` must be at least 1.
    ZeroInFlight,
    /// `buffer_capacity` must hold at least one batch.
    BufferSmallerThanBatch,
    /// `request_timeout` must be positive.
    ZeroRequestTimeout,
    /// `stall_backoffs` must be at least 1.
    ZeroStallBackoffs,
    /// `stall_patience` must be positive.
    ZeroStallPatience,
}

impl core::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ConfigError::ZeroBatchSize => write!(f, "batch_size must be at least 1"),
            ConfigError::ZeroMessageTimeout => write!(f, "message_timeout must be positive"),
            ConfigError::ZeroInFlight => write!(f, "max_in_flight must be at least 1"),
            ConfigError::BufferSmallerThanBatch => {
                write!(f, "buffer_capacity must hold at least one batch")
            }
            ConfigError::ZeroRequestTimeout => write!(f, "request_timeout must be positive"),
            ConfigError::ZeroStallBackoffs => write!(f, "stall_backoffs must be at least 1"),
            ConfigError::ZeroStallPatience => write!(f, "stall_patience must be positive"),
        }
    }
}

impl ConfigError {
    /// The name of the [`ProducerConfig`] field the error is about.
    ///
    /// Spec-layer validation uses this to anchor the message at a full
    /// field path (`experiment.Sweep.base.batch_size`), keeping producer
    /// and spec errors consistent.
    #[must_use]
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::ZeroBatchSize => "batch_size",
            ConfigError::ZeroMessageTimeout => "message_timeout",
            ConfigError::ZeroInFlight => "max_in_flight",
            ConfigError::BufferSmallerThanBatch => "buffer_capacity",
            ConfigError::ZeroRequestTimeout => "request_timeout",
            ConfigError::ZeroStallBackoffs => "stall_backoffs",
            ConfigError::ZeroStallPatience => "stall_patience",
        }
    }
}

impl std::error::Error for ConfigError {}

/// Builder for [`ProducerConfig`].
#[derive(Debug, Clone)]
pub struct ProducerConfigBuilder {
    config: ProducerConfig,
}

impl ProducerConfigBuilder {
    /// Sets the delivery semantics.
    #[must_use]
    pub fn semantics(mut self, semantics: DeliverySemantics) -> Self {
        self.config.semantics = semantics;
        self
    }

    /// Sets the batch size `B`.
    #[must_use]
    pub fn batch_size(mut self, batch_size: usize) -> Self {
        self.config.batch_size = batch_size;
        self
    }

    /// Sets the polling interval `δ` (`ZERO` = full load).
    #[must_use]
    pub fn poll_interval(mut self, poll_interval: SimDuration) -> Self {
        self.config.poll_interval = poll_interval;
        self
    }

    /// Sets the message timeout `T_o`.
    #[must_use]
    pub fn message_timeout(mut self, message_timeout: SimDuration) -> Self {
        self.config.message_timeout = message_timeout;
        self
    }

    /// Sets the batch linger time.
    #[must_use]
    pub fn linger(mut self, linger: SimDuration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Sets the retry budget `τ_r`.
    #[must_use]
    pub fn max_retries(mut self, max_retries: u32) -> Self {
        self.config.max_retries = max_retries;
        self
    }

    /// Sets the per-request response timeout.
    #[must_use]
    pub fn request_timeout(mut self, request_timeout: SimDuration) -> Self {
        self.config.request_timeout = request_timeout;
        self
    }

    /// Sets the in-flight request limit.
    #[must_use]
    pub fn max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.config.max_in_flight = max_in_flight;
        self
    }

    /// Sets the accumulator capacity in messages.
    #[must_use]
    pub fn buffer_capacity(mut self, buffer_capacity: usize) -> Self {
        self.config.buffer_capacity = buffer_capacity;
        self
    }

    /// Sets the stall threshold in consecutive RTO backoffs.
    #[must_use]
    pub fn stall_backoffs(mut self, stall_backoffs: u32) -> Self {
        self.config.stall_backoffs = stall_backoffs;
        self
    }

    /// Sets the no-progress patience before recycling a connection.
    #[must_use]
    pub fn stall_patience(mut self, stall_patience: SimDuration) -> Self {
        self.config.stall_patience = stall_patience;
        self
    }

    /// Sets the host cost model.
    #[must_use]
    pub fn host(mut self, host: HostModel) -> Self {
        self.config.host = host;
        self
    }

    /// Validates and returns the configuration.
    ///
    /// # Errors
    ///
    /// See [`ProducerConfig::validate`].
    pub fn build(self) -> Result<ProducerConfig, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        ProducerConfig::default().validate().unwrap();
    }

    #[test]
    fn builder_sets_fields() {
        let c = ProducerConfig::builder()
            .semantics(DeliverySemantics::AtMostOnce)
            .batch_size(10)
            .poll_interval(SimDuration::from_millis(90))
            .message_timeout(SimDuration::from_millis(500))
            .max_retries(7)
            .max_in_flight(2)
            .build()
            .unwrap();
        assert_eq!(c.semantics, DeliverySemantics::AtMostOnce);
        assert_eq!(c.batch_size, 10);
        assert_eq!(c.poll_interval, SimDuration::from_millis(90));
        assert_eq!(c.message_timeout, SimDuration::from_millis(500));
        assert_eq!(c.max_retries, 7);
        assert_eq!(c.max_in_flight, 2);
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(
            ProducerConfig::builder().batch_size(0).build().unwrap_err(),
            ConfigError::ZeroBatchSize
        );
        assert_eq!(
            ProducerConfig::builder()
                .message_timeout(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroMessageTimeout
        );
        assert_eq!(
            ProducerConfig::builder()
                .max_in_flight(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroInFlight
        );
        assert_eq!(
            ProducerConfig::builder()
                .buffer_capacity(2)
                .batch_size(5)
                .build()
                .unwrap_err(),
            ConfigError::BufferSmallerThanBatch
        );
        assert_eq!(
            ProducerConfig::builder()
                .request_timeout(SimDuration::ZERO)
                .build()
                .unwrap_err(),
            ConfigError::ZeroRequestTimeout
        );
        assert_eq!(
            ProducerConfig::builder()
                .stall_backoffs(0)
                .build()
                .unwrap_err(),
            ConfigError::ZeroStallBackoffs
        );
    }

    #[test]
    fn service_time_scales_with_batch() {
        let host = HostModel::default();
        let one = host.service_time(1, 100);
        let ten = host.service_time(10, 1000);
        assert!(ten > one);
        // Per-request overhead is amortised: 10 messages in one request cost
        // less than 10 single-message requests.
        let ten_singles = SimDuration::from_micros(one.as_micros() * 10);
        assert!(ten < ten_singles);
    }

    #[test]
    fn mean_service_is_the_unrounded_per_message_service_time() {
        let host = HostModel::default();
        for m in [1u64, 100, 620, 5_000] {
            let mut prev = f64::INFINITY;
            for b in [1usize, 2, 8, 64] {
                let mean = host.mean_service_s(m, b);
                let rounded = host.service_time(b, b as u64 * m).as_secs_f64() / b as f64;
                assert!((mean - rounded).abs() <= 1e-6 / b as f64, "M={m} B={b}");
                // Batching amortises the per-request cost: μ rises with B.
                assert!(mean < prev, "M={m} B={b}");
                prev = mean;
            }
            // Larger messages serialise more slowly: μ falls with M.
            assert!(host.mean_service_s(m, 4) < host.mean_service_s(m + 1, 4));
        }
        assert!(1.0 / host.mean_service_s(0, 1 << 20) < host.peak_service_rate());
        assert!(1.0 / host.mean_service_s(0, 1 << 20) > 0.999 * host.peak_service_rate());
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn mean_service_of_an_empty_batch_panics() {
        let _ = HostModel::default().mean_service_s(100, 0);
    }

    #[test]
    fn fetch_time_is_byte_bound_for_large_messages() {
        let host = HostModel::default();
        let small = host.fetch_time(50);
        let large = host.fetch_time(5_000);
        assert!(large > small * 4);
    }

    #[test]
    fn semantics_display() {
        assert_eq!(DeliverySemantics::AtMostOnce.to_string(), "at-most-once");
        assert_eq!(DeliverySemantics::AtLeastOnce.to_string(), "at-least-once");
        assert_eq!(DeliverySemantics::All.to_string(), "acks-all");
    }

    #[test]
    fn serde_round_trip() {
        let c = ProducerConfig::default();
        let json = serde_json::to_string(&c).unwrap();
        let back: ProducerConfig = serde_json::from_str(&json).unwrap();
        assert_eq!(c, back);
    }
}
