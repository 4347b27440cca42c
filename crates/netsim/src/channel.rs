//! A full-duplex, record-oriented channel between two endpoints.
//!
//! [`DuplexChannel`] glues together two `Link`s (one per direction) and two
//! [`TcpSender`]/[`TcpReceiver`] pairs (one byte stream per direction) and
//! exposes *records* — length-delimited application messages, like Kafka
//! produce requests and their responses — with an internal event queue.
//!
//! The channel is driven by its owner's discrete-event loop:
//!
//! 1. write records with [`DuplexChannel::send_record`],
//! 2. ask [`DuplexChannel::next_wakeup`] when something will happen,
//! 3. call [`DuplexChannel::advance`] up to that instant and handle the
//!    returned [`ChannelEvent`]s.
//!
//! Everything in between — segmentation, loss, retransmission, congestion
//! control, ACK-vs-data bandwidth contention — happens inside. The channel
//! also models **connection resets** ([`DuplexChannel::reset`]): records
//! already on the wire still arrive and the [`ResetReport`] lists them; the
//! rest are discarded, like the bytes in a killed socket's buffers, and the
//! owner, which knows what it wrote, settles them. This is how `acks=0`
//! (at-most-once) producers silently lose data in the paper.

use std::collections::VecDeque;

use desim::minq::MinQueue;
use desim::{SimDuration, SimRng, SimTime};
use serde::{Deserialize, Serialize};

use crate::link::{Link, LinkConfig, LinkOutcome, LinkStats};
use crate::netem::NetCondition;
use crate::tcp::{Segment, TcpConfig, TcpReceiver, TcpSender, TcpSenderStats};

/// One side of the channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Endpoint {
    /// The client side (the Kafka producer in this reproduction).
    A,
    /// The server side (the Kafka broker).
    B,
}

impl Endpoint {
    /// The opposite endpoint.
    #[must_use]
    pub(crate) fn peer(self) -> Endpoint {
        match self {
            Endpoint::A => Endpoint::B,
            Endpoint::B => Endpoint::A,
        }
    }

    fn dir(self) -> usize {
        match self {
            Endpoint::A => 0,
            Endpoint::B => 1,
        }
    }

    fn from_dir(dir: usize) -> Endpoint {
        if dir == 0 {
            Endpoint::A
        } else {
            Endpoint::B
        }
    }
}

/// Channel configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChannelConfig {
    /// TCP parameters shared by both directions.
    pub tcp: TcpConfig,
    /// Link parameters (both directions start identical).
    pub link: LinkConfig,
    /// Time to re-establish the connection after a reset (handshake cost).
    pub reconnect_delay: SimDuration,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            tcp: TcpConfig::default(),
            link: LinkConfig::default(),
            reconnect_delay: SimDuration::from_millis(5),
        }
    }
}

/// Something the channel's owner must react to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChannelEvent {
    /// A record arrived, complete and in order, at `to`.
    RecordDelivered {
        /// Receiving endpoint.
        to: Endpoint,
        /// Caller-assigned record id.
        id: u64,
        /// Arrival instant.
        at: SimTime,
    },
    /// Acknowledgements freed send-buffer space at `endpoint`.
    SendSpaceAvailable {
        /// The endpoint whose buffer drained.
        endpoint: Endpoint,
        /// Instant of the change.
        at: SimTime,
    },
}

/// Error returned when a record cannot be accepted right now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SendRecordError {
    /// The send buffer lacks space; retry after
    /// [`ChannelEvent::SendSpaceAvailable`].
    BufferFull {
        /// Bytes currently available.
        available: u64,
    },
    /// The connection is re-establishing after a reset; retry after the
    /// instant given.
    Reconnecting {
        /// When the connection reopens.
        until: SimTime,
    },
}

impl core::fmt::Display for SendRecordError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            SendRecordError::BufferFull { available } => {
                write!(f, "send buffer full ({available} bytes free)")
            }
            SendRecordError::Reconnecting { until } => {
                write!(f, "connection re-establishing until {until}")
            }
        }
    }
}

impl std::error::Error for SendRecordError {}

/// Which in-flight records still arrived when a [`DuplexChannel::reset`]
/// tore the connection down.
///
/// Tearing down a TCP connection does not vaporise segments already on the
/// wire: they typically reach the peer (and get processed) before the
/// RST/FIN does. [`ResetReport::delivered_to`] lists the records whose
/// bytes were fully in flight and contiguous — the receiver ends up with
/// them even though the sender never learns. This is precisely the race that
/// turns an at-least-once retry into a duplicate, and that makes `acks=0`
/// loss *partial* rather than total. Every other record in flight is gone.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResetReport {
    /// Per receiving endpoint (A first), the ids of the records that
    /// reached it during teardown, in send order.
    delivered_to: [Vec<u64>; 2],
}

impl ResetReport {
    /// The records that reached `endpoint` during teardown (it will
    /// process them; their sender will never know), in send order.
    #[must_use]
    pub fn delivered_to(&self, endpoint: Endpoint) -> &[u64] {
        &self.delivered_to[endpoint.dir()]
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Seg { dir: usize, seq: u64, len: u64 },
    Ack { dir: usize, ack: u64 },
    Rto { dir: usize, epoch: u64 },
    Pump,
}

#[derive(Debug)]
struct Stream {
    snd: TcpSender,
    rcv: TcpReceiver,
    /// FIFO of (stream end offset, record id) for records in flight.
    pending: VecDeque<(u64, u64)>,
    last_rto_epoch_pushed: u64,
}

impl Stream {
    fn new(tcp: TcpConfig, now: SimTime) -> Self {
        Stream {
            snd: TcpSender::new(tcp, now),
            rcv: TcpReceiver::new(),
            pending: VecDeque::new(),
            last_rto_epoch_pushed: 0,
        }
    }

    /// Resets to the state of a freshly-built stream, keeping every buffer's
    /// capacity (state-identical to `Stream::new` with the same config).
    fn reset(&mut self, now: SimTime) {
        self.snd.reset(now);
        self.rcv.reset();
        self.pending.clear();
        self.last_rto_epoch_pushed = 0;
    }
}

/// A bidirectional TCP connection carrying records between endpoints A and B.
///
/// See the [module documentation](self) for the driving protocol.
pub struct DuplexChannel {
    cfg: ChannelConfig,
    links: [Link; 2],
    streams: [Stream; 2],
    heap: MinQueue<Ev>,
    next_seq: u64,
    rng: SimRng,
    open_at: SimTime,
    resets: u64,
    last_advance: SimTime,
    /// Scratch buffer reused by [`DuplexChannel::pump`] so each call avoids
    /// allocating a fresh segment vector.
    seg_buf: Vec<Segment>,
    /// Scratch buffer reused by [`DuplexChannel::reset_into`] for the
    /// drained event-queue entries.
    drain_buf: Vec<Ev>,
}

impl core::fmt::Debug for DuplexChannel {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("DuplexChannel")
            .field("pending_events", &self.heap.len())
            .field("resets", &self.resets)
            .field("open_at", &self.open_at)
            .finish_non_exhaustive()
    }
}

impl DuplexChannel {
    /// Creates an open channel.
    #[must_use]
    pub fn new(cfg: ChannelConfig, rng: SimRng) -> Self {
        let now = SimTime::ZERO;
        DuplexChannel {
            links: [Link::new(cfg.link.clone()), Link::new(cfg.link.clone())],
            streams: [
                Stream::new(cfg.tcp.clone(), now),
                Stream::new(cfg.tcp.clone(), now),
            ],
            cfg,
            heap: MinQueue::new(),
            next_seq: 0,
            rng,
            open_at: now,
            resets: 0,
            last_advance: now,
            seg_buf: Vec::new(),
            drain_buf: Vec::new(),
        }
    }

    fn push(&mut self, at: SimTime, ev: Ev) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(at, seq, ev);
    }

    /// The earliest instant at which internal state will change, if any.
    #[must_use]
    pub fn next_wakeup(&self) -> Option<SimTime> {
        self.heap.peek().map(|(t, _)| t)
    }

    /// Offers a record of `bytes` from `from` at `now`.
    ///
    /// # Errors
    ///
    /// [`SendRecordError::BufferFull`] when the send buffer cannot take the
    /// whole record, [`SendRecordError::Reconnecting`] while a reset is still
    /// re-establishing the connection.
    pub fn send_record(
        &mut self,
        from: Endpoint,
        id: u64,
        bytes: u64,
        now: SimTime,
    ) -> Result<(), SendRecordError> {
        if now < self.open_at {
            return Err(SendRecordError::Reconnecting {
                until: self.open_at,
            });
        }
        let dir = from.dir();
        let stream = &mut self.streams[dir];
        let available = stream.snd.available();
        if available < bytes {
            return Err(SendRecordError::BufferFull { available });
        }
        let accepted = stream.snd.offer(bytes);
        debug_assert_eq!(accepted, bytes);
        let end = stream.snd.stream_end();
        stream.pending.push_back((end, id));
        self.pump(dir, now);
        Ok(())
    }

    /// Send-buffer space available to `from`.
    #[must_use]
    pub fn writable(&self, from: Endpoint) -> u64 {
        self.streams[from.dir()].snd.available()
    }

    /// Bytes offered by `from` and not yet acknowledged end-to-end.
    #[must_use]
    pub fn bytes_unacked(&self, from: Endpoint) -> u64 {
        self.streams[from.dir()].snd.bytes_unacked()
    }

    /// Records offered by `from` whose delivery has not been reported yet.
    #[must_use]
    pub fn records_in_flight(&self, from: Endpoint) -> usize {
        self.streams[from.dir()].pending.len()
    }

    /// Consecutive RTO backoffs on `from`'s stream without progress.
    #[must_use]
    pub fn backoffs(&self, from: Endpoint) -> u32 {
        self.streams[from.dir()].snd.backoffs()
    }

    /// `true` when `from` has unacknowledged data and has made no progress
    /// for at least `patience`.
    #[must_use]
    pub fn is_stalled(&self, from: Endpoint, now: SimTime, patience: SimDuration) -> bool {
        let snd = &self.streams[from.dir()].snd;
        snd.bytes_unacked() > 0 && now.saturating_since(snd.last_progress()) >= patience
    }

    /// TCP sender statistics for `from`'s stream.
    #[must_use]
    pub fn sender_stats(&self, from: Endpoint) -> TcpSenderStats {
        self.streams[from.dir()].snd.stats()
    }

    /// Statistics of the link carrying data from `from` to its peer.
    #[must_use]
    pub fn link_stats(&self, from: Endpoint) -> LinkStats {
        self.links[from.dir()].stats()
    }

    /// Smoothed RTT observed by `from`'s sender, if sampled.
    #[must_use]
    pub fn srtt(&self, from: Endpoint) -> Option<SimDuration> {
        self.streams[from.dir()].snd.srtt()
    }

    /// Number of resets performed so far.
    #[must_use]
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// The instant the connection (re)opens; writes before it are rejected.
    #[must_use]
    pub fn open_at(&self) -> SimTime {
        self.open_at
    }

    /// Applies a new network condition at `now`.
    ///
    /// Mirrors reconfiguring NetEm on the Docker bridge between producer
    /// and cluster: the *delay* affects packets in both directions (the
    /// round-trip time becomes `2·D`), while *loss* is injected on the
    /// producer's egress only — transport ACKs and broker responses return
    /// delayed but reliably.
    pub fn set_condition(&mut self, condition: NetCondition, _now: SimTime) {
        self.links[0].set_delay(condition.delay_model());
        self.links[0].set_loss(condition.loss_model());
        self.links[1].set_delay(condition.delay_model());
    }

    /// Tears the connection down and starts a fresh one.
    ///
    /// All records not yet reported delivered are discarded — this is what
    /// happens to the bytes in a real socket's buffers when a client closes
    /// a stalled connection. The new connection becomes writable at
    /// `now + reconnect_delay`.
    pub fn reset(&mut self, now: SimTime) -> ResetReport {
        let mut report = ResetReport::default();
        self.reset_into(now, &mut report);
        report
    }

    /// Tears the connection down like [`DuplexChannel::reset`], writing the
    /// outcome into a caller-owned `report` (cleared first).
    ///
    /// The report's vectors and the channel's internal buffers are reused,
    /// so a steady stream of resets allocates nothing.
    pub fn reset_into(&mut self, now: SimTime, report: &mut ResetReport) {
        let mut events = core::mem::take(&mut self.drain_buf);
        events.clear();
        events.extend(self.heap.drain_unordered());
        self.tear_down(now, &events, report);
        self.drain_buf = events;
    }

    /// The teardown itself, given every event the queue held, in the
    /// (unspecified) order the queue drained them. That order cannot move
    /// the outcome: a receiver's contiguous prefix after a set of segments
    /// is the same whatever order they arrive in, the report lists records
    /// in `pending` order, and both streams are then reset.
    fn tear_down(&mut self, now: SimTime, in_flight: &[Ev], report: &mut ResetReport) {
        report.delivered_to.iter_mut().for_each(Vec::clear);
        // Segments already in flight still arrive at the peer before the
        // teardown does: feed them to the receivers, then see which records
        // became contiguous. `pending` is ordered by stream end, so those
        // are a prefix of it.
        for &ev in in_flight {
            if let Ev::Seg { dir, seq, len } = ev {
                let _ = self.streams[dir].rcv.on_segment(seq, len);
            }
        }
        for (dir, stream) in self.streams.iter().enumerate() {
            let delivered = &mut report.delivered_to[Endpoint::from_dir(dir).peer().dir()];
            let contiguous = stream.rcv.contiguous();
            let arrived = stream
                .pending
                .iter()
                .take_while(|(end, _)| *end <= contiguous);
            delivered.extend(arrived.map(|&(_, id)| id));
        }
        self.resets += 1;
        self.streams[0].reset(now);
        self.streams[1].reset(now);
        self.open_at = now + self.cfg.reconnect_delay;
        self.push(self.open_at, Ev::Pump);
    }

    /// Processes every internal event up to and including `now`.
    ///
    /// Returns the application-visible events in causal order. Allocating
    /// convenience wrapper around [`DuplexChannel::advance_into`].
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previous `advance` call.
    pub fn advance(&mut self, now: SimTime) -> Vec<ChannelEvent> {
        let mut out = Vec::new();
        self.advance_into(now, &mut out);
        out
    }

    /// Processes every internal event up to and including `now`, appending
    /// the application-visible events to `out` in causal order.
    ///
    /// The caller owns (and typically reuses) `out`; this method never
    /// clears it.
    ///
    /// # Panics
    ///
    /// Panics if `now` is earlier than a previous `advance` call.
    pub fn advance_into(&mut self, now: SimTime, out: &mut Vec<ChannelEvent>) {
        assert!(
            now >= self.last_advance,
            "advance must move forward in time"
        );
        self.last_advance = now;
        while let Some((t, ev)) = self.heap.pop_at_or_before(now) {
            match ev {
                Ev::Seg { dir, seq, len } => self.on_segment(dir, seq, len, t, out),
                Ev::Ack { dir, ack } => self.on_ack(dir, ack, t, out),
                Ev::Rto { dir, epoch } => {
                    let snd = &mut self.streams[dir].snd;
                    if snd.rto_epoch() == epoch && snd.rto_deadline().is_some_and(|dl| dl <= t) {
                        snd.on_rto(t);
                        self.pump(dir, t);
                    }
                }
                Ev::Pump => {
                    self.pump(0, t);
                    self.pump(1, t);
                }
            }
        }
    }

    fn on_segment(
        &mut self,
        dir: usize,
        seq: u64,
        len: u64,
        t: SimTime,
        out: &mut Vec<ChannelEvent>,
    ) {
        let stream = &mut self.streams[dir];
        let ack = stream.rcv.on_segment(seq, len);
        // Report records whose bytes are now contiguous at the receiver.
        while stream.pending.front().is_some_and(|(end, _)| *end <= ack) {
            let (_, id) = stream.pending.pop_front().expect("checked front");
            out.push(ChannelEvent::RecordDelivered {
                to: Endpoint::from_dir(dir).peer(),
                id,
                at: t,
            });
        }
        // Send the cumulative ACK back over the reverse link.
        let ack_bytes = self.cfg.tcp.ack_bytes;
        match self.links[1 - dir].transmit(t, ack_bytes, &mut self.rng) {
            LinkOutcome::Delivered(at) => self.push(at, Ev::Ack { dir, ack }),
            LinkOutcome::Lost | LinkOutcome::Dropped => {}
        }
    }

    fn on_ack(&mut self, dir: usize, ack: u64, t: SimTime, out: &mut Vec<ChannelEvent>) {
        let advanced = self.streams[dir].snd.on_ack(ack, t);
        self.pump(dir, t);
        if advanced {
            out.push(ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::from_dir(dir),
                at: t,
            });
        }
    }

    /// Emits whatever `dir`'s sender can currently send and schedules the
    /// resulting arrivals and timers.
    fn pump(&mut self, dir: usize, now: SimTime) {
        if now < self.open_at {
            return;
        }
        // Reuse the scratch segment buffer across pump calls; `mem::take`
        // sidesteps the borrow of `self` while the sender fills it.
        let mut segments = core::mem::take(&mut self.seg_buf);
        segments.clear();
        self.streams[dir].snd.emit_into(now, &mut segments);
        let header = self.cfg.tcp.header_bytes;
        for seg in &segments {
            match self.links[dir].transmit(now, seg.len + header, &mut self.rng) {
                LinkOutcome::Delivered(at) => self.push(
                    at,
                    Ev::Seg {
                        dir,
                        seq: seg.seq,
                        len: seg.len,
                    },
                ),
                LinkOutcome::Lost | LinkOutcome::Dropped => {}
            }
        }
        self.seg_buf = segments;
        // (Re)arm the retransmission timer event if its deadline moved.
        let stream = &self.streams[dir];
        let epoch = stream.snd.rto_epoch();
        if let Some(deadline) = stream.snd.rto_deadline() {
            if epoch != stream.last_rto_epoch_pushed {
                self.streams[dir].last_rto_epoch_pushed = epoch;
                self.push(deadline, Ev::Rto { dir, epoch });
            }
        }
    }

    /// Drives the channel until both directions are idle or `deadline` hits.
    ///
    /// Convenience for tests and drain phases; returns all events produced.
    #[cfg(test)]
    pub(crate) fn run_until_idle(&mut self, deadline: SimTime) -> Vec<ChannelEvent> {
        let mut out = Vec::new();
        while let Some(t) = self.next_wakeup() {
            if t > deadline {
                break;
            }
            out.extend(self.advance(t));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelayModel;
    use crate::loss::LossModel;

    fn quiet_cfg() -> ChannelConfig {
        ChannelConfig {
            link: LinkConfig {
                rate_bytes_per_sec: 12_500_000.0,
                max_queue_delay: SimDuration::from_millis(500),
                delay: DelayModel::constant(SimDuration::from_millis(5)),
                loss: LossModel::None,
            },
            ..ChannelConfig::default()
        }
    }

    fn drive(ch: &mut DuplexChannel, horizon: SimTime) -> Vec<ChannelEvent> {
        ch.run_until_idle(horizon)
    }

    fn delivered_ids(events: &[ChannelEvent], to: Endpoint) -> Vec<u64> {
        events
            .iter()
            .filter_map(|ev| match ev {
                ChannelEvent::RecordDelivered { to: t, id, .. } if *t == to => Some(*id),
                _ => None,
            })
            .collect()
    }

    #[test]
    fn single_record_delivered() {
        let mut ch = DuplexChannel::new(quiet_cfg(), SimRng::seed_from_u64(1));
        ch.send_record(Endpoint::A, 7, 500, SimTime::ZERO).unwrap();
        let events = drive(&mut ch, SimTime::from_secs(10));
        assert_eq!(delivered_ids(&events, Endpoint::B), vec![7]);
    }

    #[test]
    fn records_delivered_in_order() {
        let mut ch = DuplexChannel::new(quiet_cfg(), SimRng::seed_from_u64(2));
        for id in 0..50 {
            ch.send_record(Endpoint::A, id, 2000, SimTime::ZERO)
                .unwrap();
        }
        let events = drive(&mut ch, SimTime::from_secs(10));
        assert_eq!(
            delivered_ids(&events, Endpoint::B),
            (0..50).collect::<Vec<_>>()
        );
    }

    #[test]
    fn duplex_traffic_flows_both_ways() {
        let mut ch = DuplexChannel::new(quiet_cfg(), SimRng::seed_from_u64(3));
        ch.send_record(Endpoint::A, 1, 1000, SimTime::ZERO).unwrap();
        ch.send_record(Endpoint::B, 2, 1000, SimTime::ZERO).unwrap();
        let events = drive(&mut ch, SimTime::from_secs(10));
        assert_eq!(delivered_ids(&events, Endpoint::B), vec![1]);
        assert_eq!(delivered_ids(&events, Endpoint::A), vec![2]);
    }

    #[test]
    fn buffer_full_is_reported_and_recovers() {
        let mut cfg = quiet_cfg();
        cfg.tcp.send_buffer = 4096;
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(4));
        ch.send_record(Endpoint::A, 0, 4096, SimTime::ZERO).unwrap();
        let err = ch.send_record(Endpoint::A, 1, 1, SimTime::ZERO);
        assert!(matches!(err, Err(SendRecordError::BufferFull { .. })));
        let events = drive(&mut ch, SimTime::from_secs(10));
        assert!(events.iter().any(|ev| matches!(
            ev,
            ChannelEvent::SendSpaceAvailable {
                endpoint: Endpoint::A,
                ..
            }
        )));
        assert_eq!(ch.writable(Endpoint::A), 4096);
    }

    #[test]
    fn lossy_path_still_delivers_via_retransmission() {
        let mut cfg = quiet_cfg();
        cfg.link.loss = LossModel::bernoulli(0.10);
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(5));
        let mut events = Vec::new();
        let mut sent = 0u64;
        let mut now = SimTime::ZERO;
        loop {
            while sent < 100 && ch.writable(Endpoint::A) >= 1500 {
                ch.send_record(Endpoint::A, sent, 1500, now).unwrap();
                sent += 1;
            }
            let Some(t) = ch.next_wakeup() else { break };
            if t > SimTime::from_secs(120) {
                break;
            }
            now = t;
            events.extend(ch.advance(t));
        }
        assert_eq!(
            delivered_ids(&events, Endpoint::B),
            (0..100).collect::<Vec<_>>()
        );
        assert!(ch.sender_stats(Endpoint::A).retransmits > 0);
    }

    #[test]
    fn heavy_loss_stalls_the_connection() {
        let mut cfg = quiet_cfg();
        cfg.link.loss = LossModel::bernoulli(0.95);
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(6));
        ch.send_record(Endpoint::A, 0, 1000, SimTime::ZERO).unwrap();
        let _ = drive(&mut ch, SimTime::from_secs(30));
        assert!(ch.is_stalled(
            Endpoint::A,
            SimTime::from_secs(30),
            SimDuration::from_secs(5)
        ));
        assert!(ch.backoffs(Endpoint::A) >= 2);
    }

    #[test]
    fn reset_reports_undelivered_records() {
        let mut cfg = quiet_cfg();
        cfg.link.loss = LossModel::bernoulli(1.0); // nothing gets through
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(7));
        ch.send_record(Endpoint::A, 11, 800, SimTime::ZERO).unwrap();
        ch.send_record(Endpoint::A, 12, 800, SimTime::ZERO).unwrap();
        let _ = drive(&mut ch, SimTime::from_secs(5));
        assert_eq!(ch.records_in_flight(Endpoint::A), 2);
        let report = ch.reset(SimTime::from_secs(5));
        assert_eq!(report, ResetReport::default(), "neither record arrived");
        assert_eq!(ch.records_in_flight(Endpoint::A), 0);
        assert_eq!(ch.resets(), 1);
    }

    #[test]
    fn reset_then_fresh_connection_works() {
        let mut ch = DuplexChannel::new(quiet_cfg(), SimRng::seed_from_u64(8));
        ch.send_record(Endpoint::A, 0, 500, SimTime::ZERO).unwrap();
        let _ = drive(&mut ch, SimTime::from_secs(1));
        let t = SimTime::from_secs(1);
        let _ = ch.reset(t);
        // Writes during the handshake are rejected.
        let err = ch.send_record(Endpoint::A, 1, 500, t);
        assert!(matches!(err, Err(SendRecordError::Reconnecting { .. })));
        let reopened = ch.open_at();
        ch.send_record(Endpoint::A, 1, 500, reopened).unwrap();
        let events = drive(&mut ch, SimTime::from_secs(10));
        assert_eq!(delivered_ids(&events, Endpoint::B), vec![1]);
    }

    #[test]
    fn in_flight_records_deliver_during_teardown() {
        let mut cfg = quiet_cfg();
        cfg.link.delay = DelayModel::constant(SimDuration::from_millis(100));
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(9));
        ch.send_record(Endpoint::A, 0, 500, SimTime::ZERO).unwrap();
        // Reset while the segment is still in flight: the wire does not
        // forget — the record reaches B during teardown, but never produces
        // a RecordDelivered event.
        let report = ch.reset(SimTime::from_millis(1));
        assert_eq!(report.delivered_to(Endpoint::B), [0]);
        assert!(report.delivered_to(Endpoint::A).is_empty());
        let events = drive(&mut ch, SimTime::from_secs(5));
        assert!(delivered_ids(&events, Endpoint::B).is_empty());
    }

    #[test]
    fn teardown_distinguishes_lost_and_arrived_records() {
        let mut cfg = quiet_cfg();
        cfg.link.delay = DelayModel::constant(SimDuration::from_millis(50));
        // First record's segments get through; then turn the link fully
        // lossy so the second record's segments vanish.
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(10));
        ch.send_record(Endpoint::A, 1, 400, SimTime::ZERO).unwrap();
        ch.set_condition(
            NetCondition::new(SimDuration::from_millis(50), 1.0),
            SimTime::ZERO,
        );
        ch.send_record(Endpoint::A, 2, 400, SimTime::ZERO).unwrap();
        assert_eq!(ch.records_in_flight(Endpoint::A), 2);
        let report = ch.reset(SimTime::from_millis(1));
        assert_eq!(report.delivered_to(Endpoint::B), [1], "record 2 is gone");
    }

    /// A channel carrying records both ways over jittered (so reordering)
    /// and possibly lossy links, driven to `until`: a reset there finds
    /// segments in flight out of order, with gaps, in both directions.
    fn busy_channel(seed: u64, loss: f64, records: u64, until: SimTime) -> DuplexChannel {
        let mut cfg = quiet_cfg();
        cfg.link.delay = DelayModel::normal(
            SimDuration::from_millis(20),
            SimDuration::from_millis(15),
            SimDuration::ZERO,
        );
        cfg.link.loss = LossModel::bernoulli(loss);
        let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(seed));
        let mut now = SimTime::ZERO;
        let mut id = 0;
        loop {
            while id < records && ch.writable(Endpoint::A) >= 3_000 {
                ch.send_record(Endpoint::A, id, 3_000, now).unwrap();
                if id % 3 == 0 {
                    let _ = ch.send_record(Endpoint::B, id, 700, now);
                }
                id += 1;
            }
            match ch.next_wakeup() {
                Some(t) if t <= until => {
                    now = t;
                    ch.advance(t);
                }
                _ => return ch,
            }
        }
    }

    /// Everything a reset leaves behind that the owner can observe.
    fn post_reset_state(ch: &DuplexChannel) -> String {
        format!(
            "{:?} {:?} {:?} {} {}",
            ch.streams,
            ch.open_at,
            ch.next_wakeup(),
            ch.resets,
            ch.heap.len()
        )
    }

    /// Reopens and delivers a few records each way.
    fn after_reset(ch: &mut DuplexChannel) -> Vec<ChannelEvent> {
        let open = ch.open_at();
        for id in 100..105 {
            ch.send_record(Endpoint::A, id, 1_000, open).unwrap();
            ch.send_record(Endpoint::B, id, 300, open).unwrap();
        }
        ch.run_until_idle(open + SimDuration::from_secs(60))
    }

    proptest::proptest! {
        /// `reset_into` feeds the receivers every pending segment in the
        /// order the queue drains them, which the queue leaves unspecified.
        /// Any order gives the same report, the same post-reset sender and
        /// receiver state, and the same connection afterwards.
        #[test]
        fn reset_outcome_is_independent_of_the_drain_order(
            seed in 0u64..1_000,
            loss in 0.0f64..0.3,
            records in 1u64..60,
            until_ms in 1u64..400,
            shuffle in 0u64..u64::MAX,
        ) {
            let until = SimTime::from_millis(until_ms);
            let mut reference = busy_channel(seed, loss, records, until);
            let mut want = ResetReport::default();
            reference.reset_into(until, &mut want);

            let mut ch = busy_channel(seed, loss, records, until);
            let mut in_flight: Vec<Ev> = ch.heap.drain_unordered().collect();
            let mut rng = SimRng::seed_from_u64(shuffle);
            for i in (1..in_flight.len()).rev() {
                in_flight.swap(i, rng.next_below(i as u64 + 1) as usize);
            }
            let mut got = ResetReport::default();
            ch.tear_down(until, &in_flight, &mut got);

            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(post_reset_state(&ch), post_reset_state(&reference));
            proptest::prop_assert_eq!(after_reset(&mut ch), after_reset(&mut reference));
        }
    }

    #[test]
    fn condition_change_applies_to_forward_link() {
        let mut ch = DuplexChannel::new(quiet_cfg(), SimRng::seed_from_u64(10));
        ch.set_condition(
            NetCondition::new(SimDuration::from_millis(100), 0.0),
            SimTime::ZERO,
        );
        ch.send_record(Endpoint::A, 0, 100, SimTime::ZERO).unwrap();
        let events = drive(&mut ch, SimTime::from_secs(5));
        let at = events
            .iter()
            .find_map(|ev| match ev {
                ChannelEvent::RecordDelivered { at, .. } => Some(*at),
                _ => None,
            })
            .expect("delivered");
        assert!(at >= SimTime::from_millis(100), "one-way delay applied");
    }

    #[test]
    fn throughput_degrades_with_loss() {
        // Goodput under 15% loss should be well below goodput under 0.1%.
        fn goodput(loss: f64, seed: u64) -> f64 {
            let mut cfg = quiet_cfg();
            cfg.link.loss = if loss > 0.0 {
                LossModel::bernoulli(loss)
            } else {
                LossModel::None
            };
            cfg.link.delay = DelayModel::constant(SimDuration::from_millis(20));
            let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(seed));
            let horizon = SimTime::from_secs(20);
            let mut now = SimTime::ZERO;
            let mut sent = 0u64;
            let mut delivered = 0u64;
            loop {
                // Keep the pipe as full as the buffer allows.
                while ch.writable(Endpoint::A) >= 1400 && sent < 100_000 {
                    ch.send_record(Endpoint::A, sent, 1400, now).unwrap();
                    sent += 1;
                }
                let Some(t) = ch.next_wakeup() else { break };
                if t > horizon {
                    break;
                }
                now = t;
                for ev in ch.advance(t) {
                    if matches!(ev, ChannelEvent::RecordDelivered { .. }) {
                        delivered += 1;
                    }
                }
            }
            delivered as f64 / horizon.as_secs_f64()
        }
        let clean = goodput(0.0, 1);
        let lossy = goodput(0.15, 1);
        assert!(
            lossy < clean / 5.0,
            "loss should crush goodput: clean={clean}/s lossy={lossy}/s"
        );
        assert!(lossy > 0.0, "some records still get through");
    }
}
