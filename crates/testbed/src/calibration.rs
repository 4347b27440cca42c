//! The frozen "fixed hardware" of the testbed.
//!
//! The paper assumes "the hardware resources for a producer are fixed" and
//! studies configuration and network effects on that fixed machine. The
//! [`Calibration`] struct is that machine: the producer's CPU and I/O cost
//! model, the link and TCP parameters of the Docker bridge network, the
//! cluster layout (3 brokers) and the protocol sizing. It is calibrated
//! once against the paper's quantitative anchors (see `EXPERIMENTS.md`) and
//! then reused, unchanged, by every experiment.
//!
//! The authors' testbed is much slower than a production Kafka deployment —
//! their Fig. 6 implies a full-load producer capacity of a few dozen
//! messages per second (three brokers, producer and consumer all sharing
//! one host, per-message Python-side handling). The constants below model
//! hardware of that scale; the *relationships* between configuration,
//! network and reliability are what the reproduction preserves.

use desim::SimDuration;
use kafkasim::broker::BrokerModel;
use kafkasim::cluster::{ClusterSpec, ReplicationSpec};
use kafkasim::config::HostModel;
use kafkasim::wire::WireFormat;
use netsim::link::LinkConfig;
use netsim::tcp::TcpConfig;
use netsim::ChannelConfig;
use serde::{Deserialize, Serialize};

/// The complete fixed environment of the testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Producer host cost model (CPU serialisation + source I/O).
    pub host: HostModel,
    /// Transport parameters (link + TCP + reconnect cost).
    pub channel: ChannelConfig,
    /// Cluster layout.
    pub cluster: ClusterSpec,
    /// Protocol sizing.
    pub wire: WireFormat,
    /// Default retry budget `τ_r`.
    pub max_retries: u32,
    /// Default per-request response timeout.
    pub request_timeout: SimDuration,
    /// Default in-flight request limit.
    pub max_in_flight: usize,
    /// Default RTO-backoff stall threshold.
    pub stall_backoffs: u32,
    /// Default no-progress patience before recycling a connection.
    pub stall_patience: SimDuration,
    /// Default accumulator capacity in messages.
    pub buffer_capacity: usize,
}

impl Calibration {
    /// The frozen calibration used by every reproduction experiment.
    #[must_use]
    pub fn paper() -> Self {
        Calibration {
            host: HostModel {
                // ~22 msg/s single-message service rate at M = 100 B,
                // falling toward ~16 msg/s at M = 1000 B — the scale the
                // paper's Figs. 5–6 imply for their containerised producer.
                cpu_per_message: SimDuration::from_millis(18),
                cpu_per_byte_ns: 20_000.0,
                cpu_per_request: SimDuration::from_millis(25),
                jittered_service: true,
                // Full-load polling: λ_max(M) = 1/(16 ms + M / 12 kB/s);
                // ≈ 41 msg/s at M = 100 B (overload ×1.8) and ≈ 10 msg/s at
                // M = 1000 B (stable), which reproduces Fig. 4's decline.
                io_per_message: SimDuration::from_millis(16),
                io_bytes_per_sec: 12_000.0,
            },
            channel: ChannelConfig {
                tcp: TcpConfig {
                    mss: 1448,
                    header_bytes: 66,
                    ack_bytes: 66,
                    initial_cwnd: 10.0,
                    initial_ssthresh: 64.0,
                    max_cwnd: 128.0,
                    rto_initial: SimDuration::from_millis(1_000),
                    rto_min: SimDuration::from_millis(200),
                    rto_max: SimDuration::from_secs(16),
                    send_buffer: 16 * 1024,
                    early_retransmit: true,
                },
                link: LinkConfig {
                    // The Docker bridge is fast; loss/delay come from NetEm.
                    rate_bytes_per_sec: 12_500_000.0,
                    max_queue_delay: SimDuration::from_millis(500),
                    delay: SimDuration::from_micros(500),
                    loss_rate: 0.0,
                },
                reconnect_delay: SimDuration::from_millis(20),
            },
            cluster: ClusterSpec {
                brokers: 3,
                partitions: 3,
                broker_model: BrokerModel {
                    process_per_request: SimDuration::from_millis(2),
                    process_per_record: SimDuration::from_micros(200),
                },
                replication: ReplicationSpec::default(),
            },
            wire: WireFormat::default(),
            max_retries: 5,
            request_timeout: SimDuration::from_millis(1_000),
            max_in_flight: 5,
            stall_backoffs: 4,
            stall_patience: SimDuration::from_millis(2_500),
            buffer_capacity: 200_000,
        }
    }
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_load_overloads_small_messages_only() {
        let cal = Calibration::paper();
        // λ_max and μ at M = 100: overloaded.
        let lambda_small = 1.0 / cal.host.fetch_time(100).as_secs_f64();
        let mu_small = 1.0 / cal.host.service_time(1, 100).as_secs_f64();
        assert!(
            lambda_small > 1.3 * mu_small,
            "full load must overload at M=100: λ={lambda_small:.1} μ={mu_small:.1}"
        );
        // At M = 1000: stable.
        let lambda_large = 1.0 / cal.host.fetch_time(1000).as_secs_f64();
        let mu_large = 1.0 / cal.host.service_time(1, 1000).as_secs_f64();
        assert!(
            lambda_large < mu_large,
            "full load must be stable at M=1000: λ={lambda_large:.1} μ={mu_large:.1}"
        );
    }

    #[test]
    fn overload_floor_matches_fig6_anchor() {
        // Fig. 6: P_l > 45% at δ = 0 — the sustained-overload floor
        // 1 − μ/λ at M = 100 must sit above 0.4.
        let cal = Calibration::paper();
        let lambda = 1.0 / cal.host.fetch_time(100).as_secs_f64();
        let mu = 1.0 / cal.host.service_time(1, 100).as_secs_f64();
        let floor = 1.0 - mu / lambda;
        assert!(
            (0.40..0.60).contains(&floor),
            "overload floor {floor:.2} should be near the paper's 45%"
        );
    }

    #[test]
    fn serde_round_trip() {
        let cal = Calibration::paper();
        let json = serde_json::to_string(&cal).unwrap();
        let back: Calibration = serde_json::from_str(&json).unwrap();
        assert_eq!(cal, back);
    }
}
