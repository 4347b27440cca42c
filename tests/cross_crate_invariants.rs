//! Property-based invariants that must hold across the whole stack, for
//! arbitrary configurations and network conditions.

use std::collections::HashMap;

use desim::{SimDuration, SimTime};
use kafkasim::broker::BrokerId;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{BrokerFault, KafkaRun, RunOutcome, RunSpec};
use kafkasim::source::SourceSpec;
use obs::{RingBufferSink, TraceEvent};
use proptest::prelude::*;
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

fn arb_semantics() -> impl Strategy<Value = DeliverySemantics> {
    prop_oneof![
        Just(DeliverySemantics::AtMostOnce),
        Just(DeliverySemantics::AtLeastOnce),
    ]
}

fn arb_point() -> impl Strategy<Value = ExperimentPoint> {
    (
        50u64..1_000, // message size
        0u64..200,    // delay ms
        0u32..40,     // loss percent
        arb_semantics(),
        1usize..10,    // batch
        0u64..120,     // poll ms
        300u64..4_000, // timeout ms
    )
        .prop_map(|(m, d, l, semantics, b, poll, t_o)| ExperimentPoint {
            message_size: m,
            timeliness: None,
            delay: SimDuration::from_millis(d),
            loss_rate: f64::from(l) / 100.0,
            semantics,
            batch_size: b,
            poll_interval: SimDuration::from_millis(poll),
            message_timeout: SimDuration::from_millis(t_o),
            ..ExperimentPoint::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 24, // each case is a full simulation
        .. ProptestConfig::default()
    })]

    /// Every source message resolves to exactly one outcome, the case
    /// counts tally, and the probabilities stay in range — for *any*
    /// configuration and network condition.
    #[test]
    fn every_message_resolves_exactly_once(point in arb_point(), seed in 0u64..1_000) {
        let cal = Calibration::paper();
        let result = point.run(&cal, 400, seed);
        let r = &result.report;
        prop_assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        prop_assert_eq!(r.case_counts.iter().sum::<u64>(), r.n_source);
        prop_assert!((0.0..=1.0).contains(&result.p_loss));
        prop_assert!((0.0..=1.0).contains(&result.p_dup));
        let attributed: u64 = r.loss_reasons.values().sum();
        prop_assert_eq!(attributed, r.lost, "every loss has exactly one reason");
    }

    /// At-most-once can never produce duplicates (only Cases 1 and 2 are
    /// reachable, per the paper's state analysis).
    #[test]
    fn at_most_once_never_duplicates(point in arb_point(), seed in 0u64..1_000) {
        let mut point = point;
        point.semantics = DeliverySemantics::AtMostOnce;
        let cal = Calibration::paper();
        let result = point.run(&cal, 300, seed);
        prop_assert_eq!(result.report.duplicated, 0);
        prop_assert_eq!(result.report.case_counts[2], 0, "no Case 3 without retries");
        prop_assert_eq!(result.report.case_counts[3], 0, "no Case 4 without retries");
        prop_assert_eq!(result.report.case_counts[4], 0, "no Case 5 without retries");
    }

    /// Runs are bit-for-bit deterministic in (spec, seed).
    #[test]
    fn runs_are_deterministic(point in arb_point(), seed in 0u64..1_000) {
        let cal = Calibration::paper();
        let a = point.run(&cal, 250, seed);
        let b = point.run(&cal, 250, seed);
        prop_assert_eq!(a, b);
    }

    /// A lossless, fault-free, lightly-loaded pipeline delivers everything
    /// exactly once, whatever the configuration.
    #[test]
    fn clean_light_load_is_lossless(
        semantics in arb_semantics(),
        b in 1usize..8,
        m in 100u64..800,
    ) {
        let point = ExperimentPoint {
            message_size: m,
            timeliness: None,
            delay: SimDuration::from_millis(5),
            loss_rate: 0.0,
            semantics,
            batch_size: b,
            poll_interval: SimDuration::from_millis(150),
            message_timeout: SimDuration::from_millis(5_000),
            ..ExperimentPoint::default()
        };
        let cal = Calibration::paper();
        let result = point.run(&cal, 400, 9);
        prop_assert_eq!(result.report.lost, 0, "reasons: {:?}", result.report.loss_reasons);
        prop_assert_eq!(result.report.duplicated, 0);
    }
}

/// Runs `spec` untraced and traced and checks that tracing is purely
/// observational and that the audit's `ConsumerRead` replay is the read-back
/// fold made visible:
/// - both runs give equal `report`, `producer`, `brokers` and
///   `records_appended`;
/// - the replay holds exactly one event per stored copy (per key, as many
///   reads as the report counts copies);
/// - each log is read in offset order from offset 0, one log after another,
///   and the logs in the order of the brokers that hold them at the end;
/// - each read's latency is its copy's append time (the last `BrokerAppend`
///   at that partition and offset) minus the key's `Enqueued` time, which is
///   when the ledger stamped its creation.
///
/// Copies are matched to appends by (partition, offset), so `spec` must
/// keep one log per partition: no fault, or a replicated topic whose log
/// moves with its leadership. Returns the untraced outcome.
fn check_traced_equals_untraced(spec: RunSpec, seed: u64) -> Result<RunOutcome, TestCaseError> {
    let plain = KafkaRun::new(spec.clone(), seed).execute();
    let (traced, mut sink) =
        KafkaRun::new(spec, seed).execute_traced(Box::new(RingBufferSink::new(1 << 22)));
    prop_assert_eq!(&plain.report, &traced.report);
    prop_assert_eq!(plain.producer, traced.producer);
    prop_assert_eq!(plain.brokers, traced.brokers);
    prop_assert_eq!(plain.records_appended, traced.records_appended);

    let mut created = HashMap::new();
    let mut appended = HashMap::new();
    let mut holder = HashMap::new();
    let mut reads = Vec::new();
    for event in sink.drain() {
        match event {
            TraceEvent::Enqueued { at, key, .. } => {
                created.insert(key, at);
            }
            TraceEvent::BrokerAppend {
                at,
                broker,
                partition,
                key,
                offset,
                ..
            } => {
                appended.insert((partition, offset), (key, at));
                holder.insert(partition, broker);
            }
            TraceEvent::LeaderElected {
                partition, leader, ..
            } => {
                holder.insert(partition, leader);
            }
            TraceEvent::ConsumerRead {
                key,
                partition,
                offset,
                latency,
                ..
            } => reads.push((partition, offset, key, latency)),
            _ => {}
        }
    }
    prop_assert_eq!(created.len() as u64, plain.report.n_source);

    let mut copies: HashMap<u64, u64> = HashMap::new();
    let mut previous: Option<(u32, u64)> = None;
    for &(partition, offset, key, latency) in &reads {
        let continues = previous.is_some_and(|(p, o)| p == partition && o + 1 == offset);
        prop_assert!(
            offset == 0 || continues,
            "read ({partition}, {offset}) after {previous:?}"
        );
        if let Some((p, _)) = previous.filter(|_| offset == 0) {
            prop_assert!(holder.get(&p) <= holder.get(&partition), "log order");
        }
        previous = Some((partition, offset));
        let stored = appended.get(&(partition, offset)).copied();
        prop_assert_eq!(stored.map(|(k, _)| k), Some(key));
        let (_, at) = stored.unwrap_or((key, SimTime::ZERO));
        prop_assert_eq!(
            Some(latency),
            created.get(&key).map(|&c| at.saturating_since(c))
        );
        *copies.entry(key).or_default() += 1;
    }
    let r = &plain.report;
    prop_assert_eq!(
        reads.len() as u64,
        r.delivered_once + r.duplicated + r.extra_copies,
        "one read per stored copy"
    );
    prop_assert_eq!(
        copies.values().filter(|&&c| c == 1).count() as u64,
        r.delivered_once
    );
    prop_assert_eq!(
        copies.values().filter(|&&c| c > 1).count() as u64,
        r.duplicated
    );
    Ok(plain)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Tracing changes no outcome, and the trace replays every stored copy
    /// once, for any configuration and network condition.
    #[test]
    fn traced_runs_equal_untraced_and_replay_every_stored_copy(
        point in arb_point(),
        seed in 0u64..1_000,
    ) {
        check_traced_equals_untraced(point.to_run_spec(&Calibration::paper(), 300), seed)?;
    }
}

/// The same check on `scenarios/broker-faults.toml`'s unclean failover, at
/// every acks level: a starved follower wins the election and the log it
/// inherits is truncated, so some offsets are appended twice.
#[test]
fn unclean_election_traced_equals_untraced() {
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
        DeliverySemantics::All,
    ] {
        let mut run = RunSpec {
            source: SourceSpec::fixed_rate(3_000, 200, 100.0),
            ..RunSpec::default()
        };
        run.cluster.partitions = 1;
        run.cluster.replication.factor = 2;
        run.cluster.replication.lag_time_max = SimDuration::from_millis(200);
        run.cluster.replication.max_fetch_records = 1;
        run.cluster.replication.allow_unclean = true;
        run.producer = ProducerConfig::builder()
            .semantics(semantics)
            .message_timeout(SimDuration::from_millis(2_500))
            .max_in_flight(64)
            .build()
            .expect("valid producer config");
        for (broker, at_ms, down_ms) in [(1, 100, 1_400), (0, 2_115, 5_000)] {
            run.faults.push(BrokerFault::crash(
                BrokerId(broker),
                SimTime::from_millis(at_ms),
                SimDuration::from_millis(down_ms),
            ));
        }
        run.failover_after = Some(SimDuration::from_millis(500));
        let plain =
            check_traced_equals_untraced(run, 7).unwrap_or_else(|e| panic!("{semantics}: {e}"));
        assert_eq!(plain.brokers.unclean_elections, 1, "{semantics}");
        assert!(plain.brokers.records_truncated > 0, "{semantics}");
    }
}

// The feature vector round-trips through the experiment point for any
// generated point (model-facing and testbed-facing views agree).
proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]
    #[test]
    fn features_round_trip(point in arb_point()) {
        let features = kafka_predict::Features::from(&point);
        let back = features.to_experiment_point();
        prop_assert_eq!(point, back);
    }
}
