//! A sans-IO TCP sender/receiver pair.
//!
//! Kafka speaks a binary protocol over TCP, and the paper's reliability
//! curves are shaped by TCP behaviour: retransmissions mask low packet-loss
//! rates (the knee near `L ≈ 8 %` in Fig. 7), acknowledgement traffic
//! contends with retransmissions for bandwidth (Fig. 4), and RTO exponential
//! backoff stalls connections under heavy loss. This module implements the
//! mechanisms that matter at simulation granularity:
//!
//! * cumulative ACKs with out-of-order reassembly,
//! * RTT estimation (RFC 6298) with Karn's algorithm,
//! * retransmission timeout with exponential backoff,
//! * fast retransmit on three duplicate ACKs with NewReno-style partial-ACK
//!   handling,
//! * slow start and AIMD congestion avoidance.
//!
//! The types are *sans-IO*: they never talk to a network. [`TcpSender::emit`]
//! returns segments the caller must carry (e.g. through a `crate::Link`),
//! and arrivals are fed back via [`TcpSender::on_ack`] /
//! [`TcpReceiver::on_segment`]. The [`crate::channel`] module wires a pair of
//! these into a full-duplex connection.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use desim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Static TCP parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TcpConfig {
    /// Maximum segment payload in bytes.
    pub mss: u64,
    /// Per-segment header overhead on the wire (Ethernet + IP + TCP).
    pub header_bytes: u64,
    /// Size of a pure acknowledgement packet on the wire.
    pub ack_bytes: u64,
    /// Initial congestion window, in segments (RFC 6928 uses 10).
    pub initial_cwnd: f64,
    /// Initial slow-start threshold, in segments.
    pub initial_ssthresh: f64,
    /// Congestion-window cap, in segments (stands in for the receive
    /// window).
    pub max_cwnd: f64,
    /// Initial retransmission timeout.
    pub rto_initial: SimDuration,
    /// Lower bound on the RTO.
    pub rto_min: SimDuration,
    /// Upper bound on the RTO (backoff stops doubling here).
    pub rto_max: SimDuration,
    /// Send-buffer size in bytes; `offer` accepts no more than this minus
    /// the unacknowledged backlog.
    pub send_buffer: u64,
    /// Enable RFC 5827 early retransmit (lower dupack threshold at small
    /// flight sizes). Modern kernels have it; disabling it reverts to
    /// classic three-dupack Reno, which collapses at small windows.
    pub early_retransmit: bool,
}

impl Default for TcpConfig {
    fn default() -> Self {
        TcpConfig {
            mss: 1448,
            header_bytes: 66,
            ack_bytes: 66,
            initial_cwnd: 10.0,
            initial_ssthresh: 64.0,
            max_cwnd: 256.0,
            rto_initial: SimDuration::from_millis(1_000),
            rto_min: SimDuration::from_millis(200),
            rto_max: SimDuration::from_secs(60),
            send_buffer: 128 * 1024,
            early_retransmit: true,
        }
    }
}

/// A segment handed to the caller for transmission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Segment {
    /// First payload byte's sequence number.
    pub seq: u64,
    /// Payload length in bytes.
    pub len: u64,
    /// `true` when this is a retransmission.
    pub retransmit: bool,
}

/// Cumulative sender statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TcpSenderStats {
    /// Segments emitted, including retransmissions.
    pub segments_sent: u64,
    /// Retransmitted segments (fast retransmit + RTO).
    pub retransmits: u64,
    /// Retransmission timeouts fired.
    pub timeouts: u64,
    /// Fast retransmits triggered by duplicate ACKs.
    pub fast_retransmits: u64,
    /// Application bytes acknowledged end-to-end.
    pub bytes_acked: u64,
}

#[derive(Debug, Clone, Copy)]
struct SegMeta {
    end: u64,
    sent_at: SimTime,
    retransmitted: bool,
}

/// The sending half of a TCP connection.
///
/// Outstanding segments live in a `VecDeque` kept sorted by start offset:
/// new data is appended at ever-increasing `snd_nxt`, cumulative ACKs pop
/// from the front, and the (at most one) partially-acked segment re-enters
/// at the front. This keeps the per-ACK hot path allocation-free where a
/// map would rebalance and reallocate.
#[derive(Debug, Clone)]
pub struct TcpSender {
    cfg: TcpConfig,
    snd_una: u64,
    snd_nxt: u64,
    app_end: u64,
    outstanding: VecDeque<(u64, SegMeta)>,
    retx_queue: VecDeque<u64>,
    cwnd: f64,
    ssthresh: f64,
    srtt: Option<f64>,
    rttvar: f64,
    rto: SimDuration,
    rto_deadline: Option<SimTime>,
    rto_epoch: u64,
    dupacks: u32,
    in_recovery: bool,
    recover: u64,
    backoffs: u32,
    last_progress: SimTime,
    stats: TcpSenderStats,
}

impl TcpSender {
    /// Creates an idle sender.
    #[must_use]
    pub fn new(cfg: TcpConfig, now: SimTime) -> Self {
        let cwnd = cfg.initial_cwnd;
        let ssthresh = cfg.initial_ssthresh;
        let rto = cfg.rto_initial;
        TcpSender {
            cfg,
            snd_una: 0,
            snd_nxt: 0,
            app_end: 0,
            outstanding: VecDeque::new(),
            retx_queue: VecDeque::new(),
            cwnd,
            ssthresh,
            srtt: None,
            rttvar: 0.0,
            rto,
            rto_deadline: None,
            rto_epoch: 0,
            dupacks: 0,
            in_recovery: false,
            recover: 0,
            backoffs: 0,
            last_progress: now,
            stats: TcpSenderStats::default(),
        }
    }

    /// Send-buffer space currently available to the application.
    #[must_use]
    pub(crate) fn available(&self) -> u64 {
        self.cfg
            .send_buffer
            .saturating_sub(self.app_end - self.snd_una)
    }

    /// Accepts `bytes` of application data into the send buffer.
    ///
    /// Returns the number of bytes actually accepted (possibly less than
    /// requested when the buffer is nearly full).
    pub fn offer(&mut self, bytes: u64) -> u64 {
        let accepted = bytes.min(self.available());
        self.app_end += accepted;
        accepted
    }

    /// Bytes accepted from the application so far (the stream length).
    #[must_use]
    pub fn stream_end(&self) -> u64 {
        self.app_end
    }

    /// First byte not yet cumulatively acknowledged.
    #[must_use]
    pub fn acked_up_to(&self) -> u64 {
        self.snd_una
    }

    /// Unacknowledged bytes currently buffered or in flight.
    #[must_use]
    pub fn bytes_unacked(&self) -> u64 {
        self.app_end - self.snd_una
    }

    /// `true` when every offered byte has been acknowledged.
    #[must_use]
    pub fn is_idle(&self) -> bool {
        self.snd_una == self.app_end
    }

    /// Smoothed RTT estimate, if one has been sampled.
    #[must_use]
    pub(crate) fn srtt(&self) -> Option<SimDuration> {
        self.srtt.map(SimDuration::from_secs_f64)
    }

    /// Consecutive RTO backoffs without forward progress.
    #[must_use]
    pub(crate) fn backoffs(&self) -> u32 {
        self.backoffs
    }

    /// Instant of the last cumulative-ACK progress (or creation).
    #[must_use]
    pub(crate) fn last_progress(&self) -> SimTime {
        self.last_progress
    }

    /// The pending retransmission-timer deadline, if any.
    #[must_use]
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Monotone counter bumped whenever the RTO deadline is rescheduled.
    ///
    /// Event-queue drivers use it to lazily invalidate stale timer events.
    #[must_use]
    pub(crate) fn rto_epoch(&self) -> u64 {
        self.rto_epoch
    }

    /// Cumulative statistics.
    #[must_use]
    pub(crate) fn stats(&self) -> TcpSenderStats {
        self.stats
    }

    /// Resets the sender to its freshly-created state in place, keeping the
    /// allocated capacity of the outstanding and retransmission queues.
    ///
    /// State-identical to `TcpSender::new(cfg, now)` — connection resets
    /// reuse the existing buffers instead of allocating a new sender.
    pub(crate) fn reset(&mut self, now: SimTime) {
        self.snd_una = 0;
        self.snd_nxt = 0;
        self.app_end = 0;
        self.outstanding.clear();
        self.retx_queue.clear();
        self.cwnd = self.cfg.initial_cwnd;
        self.ssthresh = self.cfg.initial_ssthresh;
        self.srtt = None;
        self.rttvar = 0.0;
        self.rto = self.cfg.rto_initial;
        self.rto_deadline = None;
        self.rto_epoch = 0;
        self.dupacks = 0;
        self.in_recovery = false;
        self.recover = 0;
        self.backoffs = 0;
        self.last_progress = now;
        self.stats = TcpSenderStats::default();
    }

    fn set_rto_deadline(&mut self, deadline: Option<SimTime>) {
        self.rto_deadline = deadline;
        self.rto_epoch += 1;
    }

    /// Index of the outstanding segment starting at `start`, if any.
    fn outstanding_index(&self, start: u64) -> Option<usize> {
        let idx = self.outstanding.partition_point(|&(s, _)| s < start);
        match self.outstanding.get(idx) {
            Some(&(s, _)) if s == start => Some(idx),
            _ => None,
        }
    }

    /// Emits every segment the window currently allows.
    ///
    /// Allocating convenience wrapper around `TcpSender::emit_into`.
    pub fn emit(&mut self, now: SimTime) -> Vec<Segment> {
        let mut out = Vec::new();
        self.emit_into(now, &mut out);
        out
    }

    /// Emits every segment the window currently allows, appending to `out`.
    ///
    /// Retransmissions queued by loss recovery are sent first and bypass the
    /// congestion-window check (there is always at least one segment's worth
    /// of headroom for recovery). The caller owns (and typically reuses)
    /// `out`; this method never clears it.
    pub(crate) fn emit_into(&mut self, now: SimTime, out: &mut Vec<Segment>) {
        // Retransmissions first.
        while let Some(start) = self.retx_queue.pop_front() {
            if let Some(idx) = self.outstanding_index(start) {
                let meta = &mut self.outstanding[idx].1;
                meta.retransmitted = true;
                meta.sent_at = now;
                out.push(Segment {
                    seq: start,
                    len: meta.end - start,
                    retransmit: true,
                });
                self.stats.segments_sent += 1;
                self.stats.retransmits += 1;
            }
        }
        // New data while the window allows.
        // Whole segments of `cwnd` (`as` truncates toward zero), at least one.
        let window = (self.cwnd as usize).max(1);
        while self.snd_nxt < self.app_end && self.outstanding.len() < window {
            let len = (self.app_end - self.snd_nxt).min(self.cfg.mss);
            // `snd_nxt` exceeds every outstanding start, so appending keeps
            // the deque sorted.
            self.outstanding.push_back((
                self.snd_nxt,
                SegMeta {
                    end: self.snd_nxt + len,
                    sent_at: now,
                    retransmitted: false,
                },
            ));
            out.push(Segment {
                seq: self.snd_nxt,
                len,
                retransmit: false,
            });
            self.snd_nxt += len;
            self.stats.segments_sent += 1;
        }
        if !self.outstanding.is_empty() && self.rto_deadline.is_none() {
            self.set_rto_deadline(Some(now + self.rto));
        }
    }

    /// Processes a cumulative acknowledgement up to byte `ack`.
    ///
    /// Returns `true` when the ACK advanced `snd_una` (forward progress).
    pub fn on_ack(&mut self, ack: u64, now: SimTime) -> bool {
        if ack > self.snd_una {
            self.stats.bytes_acked += ack - self.snd_una;
            self.snd_una = ack;
            // Drop fully-acked segments from the front; sample RTT per
            // Karn's algorithm. Segments are disjoint, so at most one is
            // partially covered and it re-enters at the front (still the
            // smallest start).
            let mut rtt_sample: Option<SimDuration> = None;
            while let Some(&(start, _)) = self.outstanding.front() {
                if start >= ack {
                    break;
                }
                let (_, meta) = self.outstanding.pop_front().expect("front exists");
                if meta.end > ack {
                    self.outstanding.push_front((ack, meta));
                    break;
                } else if !meta.retransmitted {
                    let s = now.saturating_since(meta.sent_at);
                    rtt_sample = Some(rtt_sample.map_or(s, |r: SimDuration| r.max(s)));
                }
            }
            if let Some(sample) = rtt_sample {
                self.update_rtt(sample);
            }
            self.dupacks = 0;
            self.backoffs = 0;
            self.last_progress = now;
            if self.in_recovery {
                if ack >= self.recover {
                    self.in_recovery = false;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: retransmit the next hole.
                    if matches!(self.outstanding.front(), Some(&(s, _)) if s == ack) {
                        self.retx_queue.push_front(ack);
                    }
                }
            } else if self.cwnd < self.ssthresh {
                self.cwnd += 1.0; // slow start
            } else {
                self.cwnd += 1.0 / self.cwnd; // congestion avoidance
            }
            self.cwnd = self.cwnd.min(self.cfg.max_cwnd);
            let deadline = if self.outstanding.is_empty() && self.retx_queue.is_empty() {
                None
            } else {
                Some(now + self.rto)
            };
            self.set_rto_deadline(deadline);
            true
        } else {
            if ack == self.snd_una && !self.outstanding.is_empty() {
                self.dupacks += 1;
                // RFC 5827 early retransmit: with fewer than four segments
                // outstanding, three duplicate ACKs can never arrive, so
                // the dupack threshold shrinks with the flight size. This
                // is what keeps modern TCP responsive at small windows —
                // without it, every small-window loss costs a full RTO.
                let threshold = if self.cfg.early_retransmit {
                    match self.outstanding.len() {
                        0..=1 => u32::MAX, // no dupacks possible
                        2 => 1,
                        3 => 2,
                        _ => 3,
                    }
                } else {
                    3
                };
                if self.dupacks >= threshold && !self.in_recovery {
                    self.in_recovery = true;
                    self.recover = self.snd_nxt;
                    self.ssthresh = (self.cwnd / 2.0).max(2.0);
                    self.cwnd = self.ssthresh;
                    self.retx_queue.push_back(self.snd_una);
                    self.stats.fast_retransmits += 1;
                }
            }
            false
        }
    }

    /// Fires the retransmission timer: collapses the window, backs off the
    /// RTO, and queues the first unacknowledged segment for retransmission.
    ///
    /// The caller is responsible for only invoking this when
    /// [`TcpSender::rto_deadline`] has passed.
    pub fn on_rto(&mut self, now: SimTime) {
        if self.outstanding.is_empty() {
            self.set_rto_deadline(None);
            return;
        }
        self.stats.timeouts += 1;
        self.backoffs += 1;
        self.ssthresh = (self.cwnd / 2.0).max(2.0);
        self.cwnd = 1.0;
        self.dupacks = 0;
        self.in_recovery = false;
        self.rto = self
            .rto
            .mul_f64(2.0)
            .min(self.cfg.rto_max)
            .max(self.cfg.rto_min);
        self.retx_queue.clear();
        self.retx_queue.push_back(self.snd_una);
        self.set_rto_deadline(Some(now + self.rto));
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        let r = sample.as_secs_f64();
        match self.srtt {
            None => {
                self.srtt = Some(r);
                self.rttvar = r / 2.0;
            }
            Some(srtt) => {
                self.rttvar = 0.75 * self.rttvar + 0.25 * (srtt - r).abs();
                self.srtt = Some(0.875 * srtt + 0.125 * r);
            }
        }
        let rto = self.srtt.expect("just set") + 4.0 * self.rttvar;
        self.rto = SimDuration::from_secs_f64(rto)
            .max(self.cfg.rto_min)
            .min(self.cfg.rto_max);
    }
}

/// The receiving half of a TCP connection: cumulative ACK generation with
/// out-of-order reassembly.
#[derive(Debug, Clone, Default)]
pub struct TcpReceiver {
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, u64>,
}

impl TcpReceiver {
    /// Creates a receiver expecting byte 0.
    #[must_use]
    pub fn new() -> Self {
        TcpReceiver::default()
    }

    /// The next in-order byte expected — also the cumulative ACK value.
    #[must_use]
    pub(crate) fn contiguous(&self) -> u64 {
        self.rcv_nxt
    }

    /// Resets the receiver to expect byte 0 again (connection reset).
    pub(crate) fn reset(&mut self) {
        self.rcv_nxt = 0;
        self.out_of_order.clear();
    }

    /// Processes an arriving segment `[seq, seq+len)`.
    ///
    /// Returns the cumulative ACK to send back (the new `rcv_nxt`).
    pub fn on_segment(&mut self, seq: u64, len: u64) -> u64 {
        let end = seq + len;
        if end <= self.rcv_nxt {
            return self.rcv_nxt;
        }
        if seq <= self.rcv_nxt {
            self.rcv_nxt = end;
            // Pull any newly-contiguous stashed segments.
            while let Some((&start, &stash_end)) = self.out_of_order.iter().next() {
                if start > self.rcv_nxt {
                    break;
                }
                self.out_of_order.remove(&start);
                self.rcv_nxt = self.rcv_nxt.max(stash_end);
            }
        } else {
            // Future data: stash, merging by start offset.
            let entry = self.out_of_order.entry(seq).or_insert(end);
            *entry = (*entry).max(end);
        }
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> TcpConfig {
        TcpConfig::default()
    }

    /// Runs a lossless ping-pong between sender and receiver with a fixed
    /// RTT, returning the time at which everything was acknowledged.
    fn drain_lossless(bytes: u64, rtt: SimDuration) -> (TcpSender, SimTime) {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        let mut rcv = TcpReceiver::new();
        let mut offered = 0;
        let mut now = SimTime::ZERO;
        loop {
            offered += snd.offer(bytes - offered);
            let segs = snd.emit(now);
            if segs.is_empty() && snd.is_idle() && offered == bytes {
                break;
            }
            now += rtt;
            let mut last_ack = snd.acked_up_to();
            for seg in segs {
                last_ack = rcv.on_segment(seg.seq, seg.len);
            }
            snd.on_ack(last_ack, now);
            assert!(now < SimTime::from_secs(3600), "no progress");
        }
        (snd, now)
    }

    #[test]
    fn lossless_transfer_delivers_all_bytes() {
        let (snd, _) = drain_lossless(1_000_000, SimDuration::from_millis(10));
        assert_eq!(snd.acked_up_to(), 1_000_000);
        assert_eq!(snd.stats().retransmits, 0);
        assert_eq!(snd.stats().timeouts, 0);
    }

    #[test]
    fn slow_start_doubles_window_per_rtt() {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        let mut rcv = TcpReceiver::new();
        snd.offer(10_000_000);
        let first = snd.emit(SimTime::ZERO);
        assert_eq!(first.len(), 10, "initial cwnd of 10 segments");
        let mut now = SimTime::from_millis(10);
        for seg in &first {
            let ack = rcv.on_segment(seg.seq, seg.len);
            snd.on_ack(ack, now);
        }
        // After 10 ACKs in slow start the window grew by 10.
        assert!((snd.cwnd - 20.0).abs() < 1e-9);
        now += SimDuration::from_millis(10);
        let second = snd.emit(now);
        assert_eq!(second.len(), 20);
    }

    #[test]
    fn congestion_avoidance_grows_linearly() {
        let mut snd = TcpSender::new(
            TcpConfig {
                initial_cwnd: 10.0,
                initial_ssthresh: 10.0, // start in congestion avoidance
                ..cfg()
            },
            SimTime::ZERO,
        );
        let mut rcv = TcpReceiver::new();
        snd.offer(100_000_000);
        let mut now = SimTime::ZERO;
        let before = snd.cwnd;
        // One full window of ACKs should grow cwnd by about 1 segment.
        let segs = snd.emit(now);
        now += SimDuration::from_millis(10);
        for seg in segs {
            let ack = rcv.on_segment(seg.seq, seg.len);
            snd.on_ack(ack, now);
        }
        assert!((snd.cwnd - before - 1.0).abs() < 0.1, "cwnd {}", snd.cwnd);
    }

    #[test]
    fn fast_retransmit_after_three_dupacks() {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        let mut rcv = TcpReceiver::new();
        snd.offer(1448 * 5);
        let segs = snd.emit(SimTime::ZERO);
        assert_eq!(segs.len(), 5);
        // Lose the first segment; deliver the other four.
        let mut now = SimTime::from_millis(10);
        for seg in &segs[1..] {
            let ack = rcv.on_segment(seg.seq, seg.len);
            assert_eq!(ack, 0, "hole at the front keeps ack at 0");
            snd.on_ack(ack, now);
        }
        assert_eq!(snd.stats().fast_retransmits, 1);
        let retx = snd.emit(now);
        assert_eq!(retx.len(), 1);
        assert_eq!(retx[0].seq, 0);
        assert!(retx[0].retransmit);
        // Delivering the retransmission acks everything at once.
        now += SimDuration::from_millis(10);
        let ack = rcv.on_segment(retx[0].seq, retx[0].len);
        assert_eq!(ack, 1448 * 5);
        assert!(snd.on_ack(ack, now));
        assert!(snd.is_idle());
    }

    #[test]
    fn rto_collapses_window_and_backs_off() {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        snd.offer(1448 * 4);
        let _ = snd.emit(SimTime::ZERO);
        let dl1 = snd.rto_deadline().expect("timer armed");
        snd.on_rto(dl1);
        assert_eq!(snd.cwnd, 1.0);
        assert_eq!(snd.backoffs(), 1);
        let retx = snd.emit(dl1);
        assert_eq!(retx.len(), 1);
        assert!(retx[0].retransmit);
        let dl2 = snd.rto_deadline().expect("timer rearmed");
        assert!(dl2.saturating_since(dl1) >= snd.rto / 2);
        snd.on_rto(dl2);
        assert_eq!(snd.backoffs(), 2);
        // RTO doubles (until the cap).
        assert!(snd.rto >= SimDuration::from_secs(2));
    }

    #[test]
    fn rto_caps_at_configured_max() {
        let mut snd = TcpSender::new(
            TcpConfig {
                rto_max: SimDuration::from_secs(4),
                ..cfg()
            },
            SimTime::ZERO,
        );
        snd.offer(1448);
        let _ = snd.emit(SimTime::ZERO);
        for _ in 0..10 {
            let dl = snd.rto_deadline().unwrap();
            snd.on_rto(dl);
            let _ = snd.emit(dl);
        }
        assert_eq!(snd.rto, SimDuration::from_secs(4));
    }

    #[test]
    fn send_buffer_limits_offer() {
        let mut snd = TcpSender::new(
            TcpConfig {
                send_buffer: 1000,
                ..cfg()
            },
            SimTime::ZERO,
        );
        assert_eq!(snd.offer(600), 600);
        assert_eq!(snd.offer(600), 400);
        assert_eq!(snd.available(), 0);
        assert_eq!(snd.offer(1), 0);
    }

    #[test]
    fn buffer_frees_as_data_is_acked() {
        let mut snd = TcpSender::new(
            TcpConfig {
                send_buffer: 2000,
                mss: 500,
                ..cfg()
            },
            SimTime::ZERO,
        );
        let mut rcv = TcpReceiver::new();
        assert_eq!(snd.offer(2000), 2000);
        let segs = snd.emit(SimTime::ZERO);
        let mut ack = 0;
        for seg in segs {
            ack = rcv.on_segment(seg.seq, seg.len);
        }
        snd.on_ack(ack, SimTime::from_millis(1));
        assert_eq!(snd.available(), 2000);
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut rcv = TcpReceiver::new();
        assert_eq!(rcv.on_segment(1000, 500), 0);
        assert_eq!(rcv.on_segment(500, 500), 0);
        assert_eq!(rcv.on_segment(0, 500), 1500);
    }

    #[test]
    fn receiver_acks_a_duplicate_with_its_cumulative_ack() {
        let mut rcv = TcpReceiver::new();
        assert_eq!(rcv.on_segment(0, 100), 100);
        assert_eq!(rcv.on_segment(0, 100), 100);
        assert_eq!(rcv.on_segment(40, 20), 100);
        assert_eq!(rcv.contiguous(), 100);
    }

    #[test]
    fn receiver_merges_overlapping_stash() {
        let mut rcv = TcpReceiver::new();
        rcv.on_segment(100, 100);
        rcv.on_segment(100, 200); // longer overlap, same start
        assert_eq!(rcv.on_segment(0, 100), 300);
    }

    #[test]
    fn rtt_estimate_converges() {
        let (snd, _) = drain_lossless(500_000, SimDuration::from_millis(40));
        let srtt = snd.srtt().expect("sampled");
        let ms = srtt.as_millis();
        assert!((35..=45).contains(&ms), "srtt {ms}ms");
    }

    #[test]
    fn karns_algorithm_skips_retransmitted_samples() {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        snd.offer(1448);
        let _ = snd.emit(SimTime::ZERO);
        let dl = snd.rto_deadline().unwrap();
        snd.on_rto(dl);
        let retx = snd.emit(dl);
        assert!(retx[0].retransmit);
        // Ack arrives much later; no RTT sample should be taken.
        snd.on_ack(1448, dl + SimDuration::from_secs(5));
        assert!(snd.srtt().is_none());
    }

    #[test]
    fn rto_epoch_invalidates_stale_timers() {
        let mut snd = TcpSender::new(cfg(), SimTime::ZERO);
        snd.offer(1448 * 2);
        let _ = snd.emit(SimTime::ZERO);
        let epoch1 = snd.rto_epoch();
        let mut rcv = TcpReceiver::new();
        let ack = rcv.on_segment(0, 1448);
        snd.on_ack(ack, SimTime::from_millis(5));
        assert_ne!(snd.rto_epoch(), epoch1, "progress reschedules the timer");
    }
}
