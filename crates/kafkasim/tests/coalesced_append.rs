//! Property tests pinning the coalesced append path: a bulk flush of `n`
//! records (`accept(n)`) must be bit-identical to `n` scalar appends
//! (`n × accept(1)`) — in the stored log columns, in the offsets handed
//! out, and in everything the run derives from them downstream: outcome
//! counts, latency moments, and trace events, across acks modes and
//! broker-fault scenarios.
//!
//! The wire-format sizing ([`kafkasim::wire`]) that decides how much a
//! coalesced request saves on the network is pinned here too.

use desim::stats::RunningMoments;
use desim::{SimDuration, SimTime};
use kafkasim::audit::LatencyStats;
use kafkasim::broker::{Broker, BrokerId, ProduceRecord};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::log::PartitionLog;
use kafkasim::message::MessageKey;
use kafkasim::runtime::{BrokerFault, KafkaRun, RunSpec};
use kafkasim::source::SourceSpec;
use kafkasim::wire::WireFormat;
use obs::{RingBufferSink, TraceEvent};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn record(key: u64, payload: u64, created_ms: u64) -> ProduceRecord {
    ProduceRecord {
        key: MessageKey(key),
        payload_bytes: payload,
        created_at: SimTime::from_millis(created_ms),
    }
}

/// One step of log churn: a produce request's worth of records, or an
/// unclean-election truncation.
#[derive(Debug, Clone)]
enum LogOp {
    Batch {
        records: Vec<(u64, u64, u64)>,
        at_ms: u64,
    },
    Truncate {
        to: u64,
    },
}

fn arb_log_op() -> impl Strategy<Value = LogOp> {
    // Roughly 4 batches per truncation: `kind` biases the choice (the
    // vendored proptest's `prop_oneof!` has no weight syntax).
    (
        0u8..5,
        proptest::collection::vec((0u64..1_000, 0u64..5_000, 0u64..100), 0..12),
        0u64..10_000,
        0u64..64,
    )
        .prop_map(|(kind, records, at_ms, to)| {
            if kind == 0 {
                LogOp::Truncate { to }
            } else {
                LogOp::Batch { records, at_ms }
            }
        })
}

fn arb_semantics() -> impl Strategy<Value = DeliverySemantics> {
    prop_oneof![
        Just(DeliverySemantics::AtMostOnce),
        Just(DeliverySemantics::AtLeastOnce),
        Just(DeliverySemantics::All),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// `PartitionLog::append_batch` equals record-at-a-time appends after
    /// every step of an arbitrary batch/truncate interleaving: same base
    /// offsets, same removed suffixes, same columns (the logs compare
    /// field-for-field via `PartialEq`).
    #[test]
    fn log_batch_append_equals_scalar_under_truncation_churn(
        ops in proptest::collection::vec(arb_log_op(), 1..20),
    ) {
        let mut bulk = PartitionLog::new(0);
        let mut scalar = PartitionLog::new(0);
        for op in ops {
            match op {
                LogOp::Batch { records, at_ms } => {
                    let recs: Vec<ProduceRecord> = records
                        .iter()
                        .map(|&(k, p, c)| record(k, p, c))
                        .collect();
                    let at = SimTime::from_millis(at_ms);
                    let base = bulk.append_batch(&recs, at);
                    let scalar_base = scalar.len() as u64;
                    for r in &recs {
                        scalar.append(r.key, at);
                    }
                    prop_assert_eq!(base, scalar_base);
                }
                LogOp::Truncate { to } => {
                    // Bias into range so truncation actually bites, but
                    // keep the occasional past-the-end no-op.
                    let to = to % (bulk.len() as u64 + 2);
                    prop_assert_eq!(bulk.truncate_to(to), scalar.truncate_to(to));
                }
            }
            prop_assert_eq!(&bulk, &scalar, "logs diverged mid-churn");
        }
    }

    /// `Broker::append` with an `n`-record request leaves exactly the state
    /// `n` single-record requests would: identical partition logs,
    /// identical `records_appended`, and the same leadership errors.
    #[test]
    fn broker_bulk_append_equals_scalar_requests(
        requests in proptest::collection::vec(
            (0u32..5, proptest::collection::vec((0u64..500, 1u64..2_000, 0u64..50), 0..10)),
            1..16,
        ),
    ) {
        let led = vec![0u32, 1, 3];
        let mut bulk = Broker::new(BrokerId(0), led.clone());
        let mut scalar = Broker::new(BrokerId(0), led.clone());
        for (i, (partition, records)) in requests.iter().enumerate() {
            let recs: Vec<ProduceRecord> = records
                .iter()
                .map(|&(k, p, c)| record(k, p, c))
                .collect();
            let now = SimTime::from_millis(i as u64);
            let bulk_res = bulk.append(*partition, &recs, now);
            let mut scalar_base = None;
            let mut scalar_err = None;
            for r in &recs {
                match scalar.append(*partition, &[*r], now) {
                    Ok(off) => {
                        scalar_base.get_or_insert(off);
                    }
                    Err(e) => scalar_err = Some(e),
                }
            }
            match bulk_res {
                Ok(base) => {
                    prop_assert_eq!(scalar_err, None);
                    if !recs.is_empty() {
                        prop_assert_eq!(scalar_base, Some(base));
                    }
                }
                Err(e) => {
                    prop_assert!(!led.contains(partition));
                    if !recs.is_empty() {
                        prop_assert_eq!(scalar_err, Some(e));
                    }
                }
            }
        }
        prop_assert_eq!(bulk.records_appended(), scalar.records_appended());
        for p in &led {
            prop_assert_eq!(bulk.log(*p), scalar.log(*p), "partition {} diverged", p);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// End-to-end: in a full run — across acks modes, replication factors
    /// and broker crashes — every traced produce request lands as one
    /// coalesced flush whose per-record events are exactly what `n` scalar
    /// appends at that instant would have produced (contiguous offsets from
    /// the base, one append instant); and replaying the per-copy consumer
    /// reads through a scalar accumulator reproduces the branch-free
    /// audit's outcome counts and latency moments bit-for-bit.
    #[test]
    fn run_level_flushes_and_audit_match_scalar_replay(
        seed in 0u64..1_000,
        factor in 1u32..4,
        down_ms in 300u64..3_000,
        unclean in proptest::bool::ANY,
        semantics in arb_semantics(),
        batch in 1usize..8,
    ) {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(400, 200, 100.0),
            ..RunSpec::default()
        };
        spec.cluster.partitions = 1;
        spec.cluster.replication.factor = factor;
        spec.cluster.replication.allow_unclean = unclean;
        spec.cluster.replication.lag_time_max = SimDuration::from_millis(500);
        spec.producer = ProducerConfig::builder()
            .semantics(semantics)
            .batch_size(batch)
            .message_timeout(SimDuration::from_millis(2_500))
            .request_timeout(SimDuration::from_millis(600))
            .max_in_flight(64)
            .build()
            .unwrap();
        spec.faults = vec![BrokerFault::crash(
            BrokerId(0),
            SimTime::from_secs(1),
            SimDuration::from_millis(down_ms),
        )];
        spec.failover_after = Some(SimDuration::from_millis(300));

        let (outcome, mut sink) = KafkaRun::new(spec, seed)
            .execute_traced(Box::new(RingBufferSink::new(1 << 22)));
        let events = sink.drain();

        // Each request id appends once; its records must form one flush:
        // (append instant, broker, partition, offset, batch id) per record.
        type FlushRow = (SimTime, u32, u32, u64, u64);
        let mut flushes: BTreeMap<u64, Vec<FlushRow>> = BTreeMap::new();
        let mut appended = 0u64;
        for e in &events {
            if let TraceEvent::BrokerAppend {
                at, batch, request, broker, partition, offset, ..
            } = e
            {
                flushes
                    .entry(*request)
                    .or_default()
                    .push((*at, *broker, *partition, *offset, *batch));
                appended += 1;
            }
        }
        prop_assert_eq!(appended, outcome.records_appended);
        for (request, rows) in &flushes {
            let (at, broker, partition, base, batch_id) = rows[0];
            for (i, row) in rows.iter().enumerate() {
                prop_assert_eq!(
                    row,
                    &(at, broker, partition, base + i as u64, batch_id),
                    "request {} is not one coalesced flush: {:?}",
                    request,
                    rows
                );
            }
        }

        // Scalar replay of the consumer read-back: per-key copy counts and
        // earliest-copy latencies, accumulated in key order exactly like
        // the audit's column sweep. The resulting moments must match the
        // report's to the last bit.
        let n = outcome.report.n_source as usize;
        let mut copies = vec![0u64; n];
        let mut first = vec![SimDuration::ZERO; n];
        for e in &events {
            if let TraceEvent::ConsumerRead { key, latency, .. } = e {
                let k = *key as usize;
                prop_assert!(k < n, "consumer read an unknown key {}", k);
                if copies[k] == 0 {
                    first[k] = *latency;
                } else {
                    first[k] = first[k].min(*latency);
                }
                copies[k] += 1;
            }
        }
        let mut moments = RunningMoments::new();
        let (mut once, mut lost, mut dup, mut extra) = (0u64, 0, 0, 0);
        for k in 0..n {
            match copies[k] {
                0 => lost += 1,
                1 => once += 1,
                c => {
                    dup += 1;
                    extra += c - 1;
                }
            }
            if copies[k] > 0 {
                moments.record(first[k].as_secs_f64());
            }
        }
        prop_assert_eq!(once, outcome.report.delivered_once);
        prop_assert_eq!(lost, outcome.report.lost);
        prop_assert_eq!(dup, outcome.report.duplicated);
        prop_assert_eq!(extra, outcome.report.extra_copies);
        prop_assert_eq!(LatencyStats::from(&moments), outcome.report.latency);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Wire sizing is additive: a coalesced request carrying two record
    /// sets costs one request overhead plus the per-record costs — exactly
    /// what splitting it would cost minus the saved second header.
    #[test]
    fn wire_request_bytes_are_additive(
        a in proptest::collection::vec(0u64..10_000, 0..20),
        b in proptest::collection::vec(0u64..10_000, 0..20),
    ) {
        let w = WireFormat::default();
        let joined: Vec<u64> = a.iter().chain(&b).copied().collect();
        prop_assert_eq!(
            w.request_bytes(joined),
            w.request_bytes(a) + w.request_bytes(b) - w.request_overhead,
        );
    }

    /// Efficiency stays a proper fraction and improves monotonically with
    /// batch size: every extra record amortises the fixed header further.
    #[test]
    fn wire_efficiency_is_bounded_and_monotone(
        count in 1usize..100,
        payload in 1u64..10_000,
    ) {
        let w = WireFormat::default();
        let e = w.efficiency(count, payload);
        prop_assert!(e > 0.0 && e < 1.0, "efficiency {} out of (0, 1)", e);
        prop_assert!(
            w.efficiency(count + 1, payload) > e,
            "batching must amortise the request header"
        );
        prop_assert_eq!(
            w.request_bytes_uniform(count, payload),
            w.request_bytes(std::iter::repeat_n(payload, count)),
        );
    }
}
