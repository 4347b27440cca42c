//! `netsim`: one `DuplexChannel` carrying the workload's requests.

use desim::{SimDuration, SimRng, SimTime};
use netsim::channel::{ChannelEvent, DuplexChannel, Endpoint, ResetReport};
use netsim::NetCondition;
use testbed::Calibration;

use super::{best_of, Shape};
use crate::metrics::Metrics;
use crate::workloads::per_s;

fn channel(shape: &Shape) -> DuplexChannel {
    let mut rng = SimRng::seed_from_u64(shape.seed);
    let mut ch = DuplexChannel::new(Calibration::paper().channel, rng.fork());
    ch.set_condition(
        NetCondition::new(shape.delay, shape.loss_rate),
        SimTime::ZERO,
    );
    ch
}

fn packets(ch: &DuplexChannel) -> u64 {
    let s = ch.link_stats(Endpoint::A);
    s.delivered + s.lost + s.dropped
}

/// Streams `records` request-sized records from A to B, sending whenever
/// the buffer takes one and advancing to the channel's next wake-up.
/// Returns records delivered and packets offered on the forward link.
fn stream(shape: &Shape, records: u64) -> (u64, u64) {
    let bytes = shape.message_size * shape.batch as u64;
    let mut ch = channel(shape);
    let mut events = Vec::new();
    let (mut now, mut sent, mut delivered) = (SimTime::ZERO, 0, 0);
    while delivered < records {
        while sent < records && ch.send_record(Endpoint::A, sent, bytes, now).is_ok() {
            sent += 1;
        }
        let Some(wake) = ch.next_wakeup() else { break };
        now = now.max(wake);
        ch.advance_into(now, &mut events);
        for ev in events.drain(..) {
            if matches!(
                ev,
                ChannelEvent::RecordDelivered {
                    to: Endpoint::B,
                    ..
                }
            ) {
                delivered += 1;
            }
        }
    }
    (delivered, packets(&ch))
}

/// Tears the connection down `resets` times with a few records in flight.
fn reset_loop(shape: &Shape, resets: u64) -> u64 {
    let bytes = shape.message_size * shape.batch as u64;
    let mut ch = channel(shape);
    let mut report = ResetReport::default();
    let mut events = Vec::new();
    let mut now = SimTime::ZERO;
    for i in 0..resets {
        for k in 0..4 {
            // A full buffer only means fewer records in flight at teardown.
            let _ = ch.send_record(Endpoint::A, i * 4 + k, bytes, now);
        }
        now += shape.delay;
        ch.advance_into(now, &mut events);
        events.clear();
        ch.reset_into(now, &mut report);
        now = ch.open_at().max(now) + SimDuration::from_millis(1);
    }
    std::hint::black_box(ch.resets())
}

pub fn run(shape: &Shape, out: &mut Metrics) {
    let records = (shape.messages / shape.batch as u64).clamp(200, 20_000);
    let ((delivered, packets), ns) = best_of(|| stream(shape, records));
    out.set("netsim.channel.records_per_s", per_s(delivered as f64, ns));
    out.set("netsim.channel.packets_per_s", per_s(packets as f64, ns));
    let (resets, ns) = best_of(|| reset_loop(shape, records.min(2_000)));
    out.set("netsim.channel.resets_per_s", per_s(resets as f64, ns));
}
