//! A fluid model of a finite-rate, drop-tail network link.
//!
//! Packets offered to the link are serialised one after another at the
//! configured rate; a packet whose queueing delay would exceed the buffer
//! bound is dropped at the tail. After serialisation the packet is lost
//! with the link's i.i.d. loss rate, or arrives after its constant
//! propagation delay. Both are set by the NetEm condition in force
//! ([`crate::NetCondition`]).
//!
//! Because the link is driven entirely at `transmit` time it needs no
//! internal events: the caller learns the arrival instant immediately and
//! schedules it in its own event queue. This keeps the whole network
//! substrate deterministic and allocation-light.

use desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

/// Static configuration of a `Link`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkConfig {
    /// Serialisation rate in bytes per second.
    pub rate_bytes_per_sec: f64,
    /// Maximum tolerated queueing (serialisation backlog) delay; packets
    /// that would wait longer are dropped at the tail.
    pub max_queue_delay: SimDuration,
    /// One-way propagation delay of every packet.
    pub delay: SimDuration,
    /// Probability, in `[0, 1]`, that a packet is lost in flight,
    /// independently of every other packet.
    pub loss_rate: f64,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            // 100 Mbit/s — a fast LAN, like the paper's Docker bridge.
            rate_bytes_per_sec: 12_500_000.0,
            max_queue_delay: SimDuration::from_millis(200),
            delay: SimDuration::from_micros(100),
            loss_rate: 0.0,
        }
    }
}

/// The verdict for one offered packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LinkOutcome {
    /// The packet will arrive at the far end at the given instant.
    Delivered(SimTime),
    /// The packet was transmitted but lost in flight.
    Lost,
    /// The packet was dropped at the tail: the queue was full.
    Dropped,
}

/// Cumulative link statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Packets that arrived at the far end.
    pub delivered: u64,
    /// Packets lost in flight.
    pub lost: u64,
    /// Packets dropped at the tail queue.
    pub dropped: u64,
    /// Total bytes offered (including lost and dropped packets).
    pub bytes_offered: u64,
    /// Total bytes delivered.
    pub bytes_delivered: u64,
}

/// A unidirectional link with finite rate, drop-tail queueing, loss and
/// propagation delay.
///
/// # Example
///
/// A link is one direction of a [`DuplexChannel`](crate::DuplexChannel);
/// a record sent on a quiet channel arrives after a positive delay.
///
/// ```
/// use desim::{SimRng, SimTime};
/// use netsim::{ChannelConfig, ChannelEvent, DuplexChannel, Endpoint};
///
/// let mut channel = DuplexChannel::new(ChannelConfig::default(), SimRng::seed_from_u64(1));
/// channel.send_record(Endpoint::A, 7, 1500, SimTime::ZERO).unwrap();
/// let mut arrived = None;
/// while let (None, Some(t)) = (arrived, channel.next_wakeup()) {
///     for event in channel.advance(t) {
///         if let ChannelEvent::RecordDelivered { id: 7, at, .. } = event {
///             arrived = Some(at);
///         }
///     }
/// }
/// assert!(arrived.expect("delivered") > SimTime::ZERO);
/// assert_eq!(channel.link_stats(Endpoint::A).lost, 0);
/// ```
#[derive(Debug, Clone)]
pub(crate) struct Link {
    config: LinkConfig,
    busy_until: SimTime,
    /// The last packet size transmitted and its serialisation time: most
    /// packets are full segments or equal-size acks, and the rate never
    /// changes, so a repeat skips the divide and the rounding.
    last_tx: (u64, SimDuration),
    stats: LinkStats,
}

impl Link {
    /// Creates an idle link.
    ///
    /// # Panics
    ///
    /// Panics if the configured rate is not strictly positive, or the loss
    /// rate is not in `[0, 1]`.
    #[must_use]
    pub(crate) fn new(config: LinkConfig) -> Self {
        assert!(
            config.rate_bytes_per_sec > 0.0,
            "link rate must be positive"
        );
        assert_loss_rate(config.loss_rate);
        Link {
            config,
            busy_until: SimTime::ZERO,
            // Exact: zero bytes take zero time at any positive rate.
            last_tx: (0, SimDuration::ZERO),
            stats: LinkStats::default(),
        }
    }

    /// Offers a packet of `bytes` at `now`.
    ///
    /// Returns where the packet ends up; on [`LinkOutcome::Delivered`] the
    /// caller must schedule the arrival itself.
    pub(crate) fn transmit(&mut self, now: SimTime, bytes: u64, rng: &mut SimRng) -> LinkOutcome {
        self.stats.bytes_offered += bytes;
        let start = self.busy_until.max(now);
        let backlog = start.saturating_since(now);
        if backlog > self.config.max_queue_delay {
            self.stats.dropped += 1;
            return LinkOutcome::Dropped;
        }
        if bytes != self.last_tx.0 {
            let secs = bytes as f64 / self.config.rate_bytes_per_sec;
            self.last_tx = (bytes, SimDuration::from_secs_f64(secs));
        }
        let tx_time = self.last_tx.1;
        let serialized_at = start + tx_time;
        self.busy_until = serialized_at;
        // At a loss rate of 0 (or 1) this draws nothing.
        if rng.bernoulli(self.config.loss_rate) {
            self.stats.lost += 1;
            return LinkOutcome::Lost;
        }
        let arrival = serialized_at + self.config.delay;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += bytes;
        LinkOutcome::Delivered(arrival)
    }

    /// Replaces the loss rate (e.g. a NetEm reconfiguration).
    ///
    /// # Panics
    ///
    /// Panics if `loss_rate` is not in `[0, 1]`.
    pub(crate) fn set_loss_rate(&mut self, loss_rate: f64) {
        assert_loss_rate(loss_rate);
        self.config.loss_rate = loss_rate;
    }

    /// Replaces the propagation delay.
    pub(crate) fn set_delay(&mut self, delay: SimDuration) {
        self.config.delay = delay;
    }

    /// The current queueing backlog at `now`.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn backlog(&self, now: SimTime) -> SimDuration {
        self.busy_until.saturating_since(now)
    }

    /// Cumulative statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> LinkStats {
        self.stats
    }
}

fn assert_loss_rate(p: f64) {
    assert!(
        p.is_finite() && (0.0..=1.0).contains(&p),
        "loss rate must be in [0,1]"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_link(rate: f64) -> Link {
        Link::new(LinkConfig {
            rate_bytes_per_sec: rate,
            max_queue_delay: SimDuration::from_millis(100),
            delay: SimDuration::from_millis(10),
            loss_rate: 0.0,
        })
    }

    #[test]
    fn delivery_time_is_serialisation_plus_propagation() {
        let mut link = quiet_link(1_000_000.0); // 1 MB/s
        let mut rng = SimRng::seed_from_u64(1);
        // 1000 bytes → 1ms serialisation + 10ms propagation.
        match link.transmit(SimTime::ZERO, 1000, &mut rng) {
            LinkOutcome::Delivered(at) => assert_eq!(at, SimTime::from_millis(11)),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn back_to_back_packets_queue() {
        let mut link = quiet_link(1_000_000.0);
        let mut rng = SimRng::seed_from_u64(2);
        let first = link.transmit(SimTime::ZERO, 1000, &mut rng);
        let second = link.transmit(SimTime::ZERO, 1000, &mut rng);
        let (LinkOutcome::Delivered(a), LinkOutcome::Delivered(b)) = (first, second) else {
            panic!("both should deliver");
        };
        assert_eq!(b.saturating_since(a), SimDuration::from_millis(1));
        assert_eq!(link.backlog(SimTime::ZERO), SimDuration::from_millis(2));
    }

    #[test]
    fn overfull_queue_drops_at_tail() {
        let mut link = quiet_link(1_000_000.0); // 1ms per 1000B, cap 100ms
        let mut rng = SimRng::seed_from_u64(3);
        let mut dropped = 0;
        for _ in 0..200 {
            if link.transmit(SimTime::ZERO, 1000, &mut rng) == LinkOutcome::Dropped {
                dropped += 1;
            }
        }
        // Roughly the first 101 fit (backlog ≤ 100ms), the rest drop.
        assert!(dropped >= 95, "dropped {dropped}");
        assert_eq!(link.stats().dropped, dropped as u64);
    }

    #[test]
    fn queue_drains_over_time() {
        let mut link = quiet_link(1_000_000.0);
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..50 {
            let _ = link.transmit(SimTime::ZERO, 1000, &mut rng);
        }
        assert!(link.backlog(SimTime::from_millis(25)) <= SimDuration::from_millis(25));
        assert_eq!(link.backlog(SimTime::from_millis(60)), SimDuration::ZERO);
    }

    #[test]
    fn lossy_link_loses_packets_at_rate() {
        let mut link = Link::new(LinkConfig {
            rate_bytes_per_sec: 1e9,
            max_queue_delay: SimDuration::from_secs(10),
            delay: SimDuration::ZERO,
            loss_rate: 0.19,
        });
        let mut rng = SimRng::seed_from_u64(5);
        let mut lost = 0u32;
        let n = 100_000;
        for i in 0..n {
            // Space packets out so the queue never fills.
            let t = SimTime::from_micros(i as u64 * 10);
            if link.transmit(t, 100, &mut rng) == LinkOutcome::Lost {
                lost += 1;
            }
        }
        let frac = lost as f64 / n as f64;
        assert!((frac - 0.19).abs() < 0.01, "observed {frac}");
        assert_eq!(link.stats().lost, u64::from(lost));
    }

    #[test]
    #[should_panic(expected = "loss rate must be in [0,1]")]
    fn rejects_a_loss_rate_outside_the_unit_interval() {
        let _ = Link::new(LinkConfig {
            loss_rate: 1.5,
            ..LinkConfig::default()
        });
    }

    #[test]
    fn netem_reconfiguration_applies() {
        let mut link = quiet_link(1e9);
        let mut rng = SimRng::seed_from_u64(6);
        link.set_loss_rate(1.0);
        assert_eq!(
            link.transmit(SimTime::ZERO, 100, &mut rng),
            LinkOutcome::Lost
        );
        link.set_loss_rate(0.0);
        link.set_delay(SimDuration::from_millis(77));
        match link.transmit(SimTime::from_secs(1), 100, &mut rng) {
            LinkOutcome::Delivered(at) => {
                assert!(at >= SimTime::from_secs(1) + SimDuration::from_millis(77));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn a_repeated_size_serialises_as_a_fresh_one() {
        // A rate whose divisions round, and sizes that repeat, alternate
        // and include zero: every arrival is the one computed from scratch.
        let rate = 3e6 / 7.0;
        let mut link = quiet_link(rate);
        let mut rng = SimRng::seed_from_u64(8);
        let sizes = [0u64, 1460, 1460, 66, 1460, 66, 66, 0, 0, 999, 1460];
        for (i, &bytes) in (0u64..).zip(&sizes) {
            let now = SimTime::from_secs(i);
            let fresh = SimDuration::from_secs_f64(bytes as f64 / rate);
            let arrival = now + fresh + SimDuration::from_millis(10);
            assert_eq!(
                link.transmit(now, bytes, &mut rng),
                LinkOutcome::Delivered(arrival)
            );
        }
    }

    #[test]
    fn stats_track_bytes() {
        let mut link = quiet_link(1e9);
        let mut rng = SimRng::seed_from_u64(7);
        let _ = link.transmit(SimTime::ZERO, 500, &mut rng);
        let _ = link.transmit(SimTime::ZERO, 300, &mut rng);
        let s = link.stats();
        assert_eq!(s.bytes_offered, 800);
        assert_eq!(s.bytes_delivered, 800);
        assert_eq!(s.delivered, 2);
    }
}
