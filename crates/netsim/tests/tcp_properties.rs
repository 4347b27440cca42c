//! Property-based tests of the TCP substrate: reliability invariants that
//! must hold for arbitrary loss patterns, segment orderings and workloads.

use std::collections::BTreeMap;

use desim::{SimDuration, SimRng, SimTime};
use netsim::channel::{ChannelConfig, ChannelEvent, DuplexChannel, Endpoint};
use netsim::tcp::{TcpConfig, TcpReceiver, TcpSender};
use netsim::NetCondition;
use proptest::prelude::*;

/// Drives sender → receiver with a scripted per-segment loss pattern and a
/// fixed RTT until everything is acknowledged or the step budget runs out.
fn drive_with_losses(bytes: u64, loss_pattern: &[bool]) -> bool {
    let cfg = TcpConfig::default();
    let mut snd = TcpSender::new(cfg, SimTime::ZERO);
    let mut rcv = TcpReceiver::new();
    snd.offer(bytes);
    let mut now = SimTime::ZERO;
    let rtt = SimDuration::from_millis(20);
    let mut tx = 0usize;
    for _ in 0..10_000 {
        if snd.is_idle() {
            return true;
        }
        let segs = snd.emit(now);
        now += rtt;
        let mut ack = None;
        for seg in segs {
            let lost = loss_pattern.get(tx).copied().unwrap_or(false);
            tx += 1;
            if !lost {
                ack = Some(rcv.on_segment(seg.seq, seg.len));
            }
        }
        if let Some(a) = ack {
            snd.on_ack(a, now);
        }
        // Fire the retransmission timer whenever it is due.
        while let Some(dl) = snd.rto_deadline() {
            if dl <= now {
                snd.on_rto(now);
                break;
            } else if snd.bytes_unacked() > 0 && snd.emit(now).is_empty() && ack.is_none() {
                now = dl; // idle wait for the timer
            } else {
                break;
            }
        }
    }
    snd.is_idle()
}

/// The receiver's reassembly as it was when its stash was a map from a
/// stashed segment's start to the furthest end stashed there: the
/// reference `receiver_equals_a_btreemap_reassembler` holds it to.
#[derive(Default)]
struct MapReceiver {
    rcv_nxt: u64,
    out_of_order: BTreeMap<u64, u64>,
}

impl MapReceiver {
    fn on_segment(&mut self, seq: u64, len: u64) -> u64 {
        let end = seq + len;
        if end <= self.rcv_nxt {
            return self.rcv_nxt;
        }
        if seq <= self.rcv_nxt {
            self.rcv_nxt = end;
            while let Some((&start, &stash_end)) = self.out_of_order.iter().next() {
                if start > self.rcv_nxt {
                    break;
                }
                self.out_of_order.remove(&start);
                self.rcv_nxt = self.rcv_nxt.max(stash_end);
            }
        } else {
            let entry = self.out_of_order.entry(seq).or_insert(end);
            *entry = (*entry).max(end);
        }
        self.rcv_nxt
    }
}

proptest! {
    /// The receiver's sorted-deque stash acknowledges what a map keyed by
    /// start offset acknowledged, arrival by arrival: over a segmented
    /// stream plus extra segments that overlap, straddle or repeat its
    /// segments (empty ones too), with duplicates, shuffled.
    #[test]
    fn receiver_equals_a_btreemap_reassembler(
        seg_lens in proptest::collection::vec(1u64..2000, 1..40),
        extra in proptest::collection::vec((0u64..u64::MAX, 0u64..3000), 0..40),
        seed in 0u64..u64::MAX,
        duplicate_every in 1usize..6,
    ) {
        let mut segments: Vec<(u64, u64)> = Vec::new();
        let mut offset = 0;
        for len in &seg_lens {
            segments.push((offset, *len));
            offset += len;
        }
        segments.extend(extra.iter().map(|&(start, len)| (start % (offset + 1), len)));
        let dups: Vec<(u64, u64)> = segments.iter().step_by(duplicate_every).copied().collect();
        segments.extend(dups);
        SimRng::seed_from_u64(seed).shuffle(&mut segments);

        let mut rcv = TcpReceiver::new();
        let mut reference = MapReceiver::default();
        for (seq, len) in segments {
            prop_assert_eq!(rcv.on_segment(seq, len), reference.on_segment(seq, len));
            prop_assert_eq!(rcv.contiguous(), reference.rcv_nxt);
        }
    }

    /// Whatever (finite) pattern of losses the network applies, every
    /// offered byte is eventually delivered and acknowledged: TCP is
    /// reliable as long as the loss is not permanent.
    #[test]
    fn tcp_delivers_under_arbitrary_finite_loss(
        kilobytes in 1u64..40,
        pattern in proptest::collection::vec(proptest::bool::weighted(0.3), 0..200),
    ) {
        prop_assert!(drive_with_losses(kilobytes * 1024, &pattern));
    }

    /// The receiver reassembles any arrival order of a segmented stream:
    /// the cumulative ACK equals the total length once all segments have
    /// arrived, regardless of permutation and duplication.
    #[test]
    fn receiver_reassembles_any_permutation(
        seg_lens in proptest::collection::vec(1u64..2000, 1..30),
        seed in 0u64..10_000,
        duplicate_every in 2usize..5,
    ) {
        let mut segments: Vec<(u64, u64)> = Vec::new();
        let mut offset = 0;
        for len in &seg_lens {
            segments.push((offset, *len));
            offset += len;
        }
        // Shuffle deterministically and inject duplicates.
        let mut rng = SimRng::seed_from_u64(seed);
        rng.shuffle(&mut segments);
        let dups: Vec<(u64, u64)> = segments
            .iter()
            .step_by(duplicate_every)
            .copied()
            .collect();
        segments.extend(dups);

        let mut rcv = TcpReceiver::new();
        let mut last = 0;
        for (seq, len) in segments {
            last = rcv.on_segment(seq, len);
            prop_assert!(last <= offset, "ack beyond stream end");
        }
        prop_assert_eq!(last, offset, "stream must be fully contiguous");
    }

    /// Sender byte accounting never goes backwards and never exceeds what
    /// was offered, under arbitrary (possibly bogus) ack sequences.
    #[test]
    fn sender_accounting_is_monotone(
        acks in proptest::collection::vec(0u64..100_000, 1..50),
    ) {
        let mut snd = TcpSender::new(TcpConfig::default(), SimTime::ZERO);
        let offered = snd.offer(50_000);
        let _ = snd.emit(SimTime::ZERO);
        let mut high = 0;
        for (i, &ack) in acks.iter().enumerate() {
            // Clamp acks into the valid range: TCP would never see an ack
            // beyond what was sent.
            let ack = ack.min(snd.stream_end());
            snd.on_ack(ack, SimTime::from_millis(i as u64 + 1));
            prop_assert!(snd.acked_up_to() >= high, "snd_una went backwards");
            high = snd.acked_up_to();
            prop_assert!(high <= offered);
            let _ = snd.emit(SimTime::from_millis(i as u64 + 1));
        }
    }
}

#[test]
fn channel_delivers_records_in_order_under_bursty_loss() {
    // Loss bursts on the data path: NetEm switches the channel between 0 %
    // and 90 % loss in 100 ms slots, a slot's state following a two-state
    // chain. Delivery order must still be exactly the send order (TCP is a
    // stream).
    let mut ch = DuplexChannel::new(ChannelConfig::default(), SimRng::seed_from_u64(5));
    let mut bursts = SimRng::seed_from_u64(6);
    let (mut slot, mut bad) = (0, false);
    let mut delivered = Vec::new();
    let mut sent = 0u64;
    let mut now = SimTime::ZERO;
    loop {
        while slot <= now.as_millis() / 100 {
            bad = if bad {
                !bursts.bernoulli(0.5)
            } else {
                bursts.bernoulli(0.2)
            };
            let loss = if bad { 0.9 } else { 0.0 };
            ch.set_condition(NetCondition::new(SimDuration::from_millis(10), loss), now);
            slot += 1;
        }
        while sent < 300 && ch.writable(Endpoint::A) >= 500 {
            ch.send_record(Endpoint::A, sent, 500, now).unwrap();
            sent += 1;
        }
        let Some(t) = ch.next_wakeup() else { break };
        if t > SimTime::from_secs(600) {
            break;
        }
        now = t;
        for ev in ch.advance(t) {
            if let ChannelEvent::RecordDelivered { id, .. } = ev {
                delivered.push(id);
            }
        }
        if delivered.len() == 300 {
            break;
        }
    }
    assert_eq!(delivered, (0..300).collect::<Vec<u64>>());
}

#[test]
fn reset_conserves_records() {
    // Every offered record is either delivered, teardown-delivered, or
    // still in flight at the reset and gone — none vanish, none
    // double-count, and what arrives is a prefix of what was sent.
    let mut cfg = ChannelConfig::default();
    cfg.link.loss_rate = 0.5;
    cfg.link.delay = SimDuration::from_millis(30);
    let mut ch = DuplexChannel::new(cfg, SimRng::seed_from_u64(9));
    let mut now = SimTime::ZERO;
    let mut sent = Vec::new();
    let mut delivered = Vec::new();
    for id in 0..40u64 {
        if ch.writable(Endpoint::A) >= 700 {
            ch.send_record(Endpoint::A, id, 700, now).unwrap();
            sent.push(id);
        }
        if let Some(t) = ch.next_wakeup() {
            now = t;
            for ev in ch.advance(t) {
                if let ChannelEvent::RecordDelivered { id, .. } = ev {
                    delivered.push(id);
                }
            }
        }
    }
    let in_flight = ch.records_in_flight(Endpoint::A);
    assert_eq!(delivered.len() + in_flight, sent.len());
    let report = ch.reset(now);
    let mut arrived: Vec<u64> = delivered;
    arrived.extend(report.delivered_to(Endpoint::B));
    assert_eq!(
        arrived,
        sent[..arrived.len()],
        "partition of offered records must be exact"
    );
}
