//! End-to-end tests of broker replication, `acks=all`, and fault
//! injection: clean failover keeps every acknowledged message, unclean
//! election loses exactly the records the winner never fetched (and the
//! trace attributes them to the broker, not the network), and the ISR
//! round-trips under a flapping follower.

use desim::{SimDuration, SimTime};
use kafkasim::broker::BrokerId;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{BrokerFault, KafkaRun, RunSpec};
use kafkasim::source::SourceSpec;
use kafkasim::{crosscheck, LossReason};
use netsim::{ConditionTimeline, NetCondition};
use obs::{LossCause, MessageFate, RingBufferSink, TimelineReport, TraceEvent};
use proptest::prelude::*;

/// One partition on a three-broker cluster so every produce request flows
/// through broker 0 until a fault moves leadership.
fn replicated_spec(n: u64, factor: u32, semantics: DeliverySemantics) -> RunSpec {
    let mut spec = RunSpec {
        source: SourceSpec::fixed_rate(n, 200, 100.0),
        ..RunSpec::default()
    };
    spec.cluster.partitions = 1;
    spec.cluster.replication.factor = factor;
    spec.producer = ProducerConfig::builder()
        .semantics(semantics)
        .message_timeout(SimDuration::from_millis(2_500))
        .request_timeout(SimDuration::from_millis(600))
        // Held acks=all responses keep requests in flight until the next
        // fetch round; a deep pipeline keeps the producer from stalling.
        .max_in_flight(64)
        .build()
        .unwrap();
    spec
}

/// Crashes the initial leader of partition 0 off the 50 ms fetch grid, so
/// some records are always appended (and acked, under `acks<all`) after
/// the followers' last fetch.
fn crash_leader(spec: &mut RunSpec, down_for: SimDuration) {
    spec.faults.push(BrokerFault::crash(
        BrokerId(0),
        SimTime::from_millis(2_115),
        down_for,
    ));
    spec.failover_after = Some(SimDuration::from_millis(500));
}

fn trace(spec: RunSpec, seed: u64) -> (kafkasim::RunOutcome, Vec<TraceEvent>) {
    let (outcome, mut sink) =
        KafkaRun::new(spec, seed).execute_traced(Box::new(RingBufferSink::new(1 << 22)));
    (outcome, sink.drain())
}

#[test]
fn acks_all_clean_failover_loses_nothing() {
    let mut spec = replicated_spec(1_500, 3, DeliverySemantics::All);
    crash_leader(&mut spec, SimDuration::from_secs(5));
    let (outcome, events) = trace(spec, 7);

    assert_eq!(outcome.brokers.clean_elections, 1, "{:?}", outcome.brokers);
    assert_eq!(outcome.brokers.unclean_elections, 0);
    assert!(
        outcome.brokers.replica_fetches > 0,
        "followers must have been fetching"
    );
    // The headline guarantee: acks=all + a clean election loses no
    // message — acknowledged ones were on every in-sync replica, and
    // unacknowledged ones are retried to the new leader.
    assert_eq!(outcome.report.lost, 0, "{:?}", outcome.report.loss_reasons);
    assert_eq!(outcome.report.delivery_rate(), 1.0);

    let elected: Vec<&TraceEvent> = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::LeaderElected { .. }))
        .collect();
    assert_eq!(elected.len(), 1);
    if let TraceEvent::LeaderElected { clean, .. } = elected[0] {
        assert!(clean, "the winner must come from the ISR");
    }
    let report = TimelineReport::reconstruct(&events);
    let audit = crosscheck(&outcome.report, &report);
    assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
}

#[test]
fn unclean_election_loses_unreplicated_records_to_the_broker() {
    let mut spec = replicated_spec(1_500, 2, DeliverySemantics::AtLeastOnce);
    // Starve the only follower: it crashes early (accruing lag past
    // `replica.lag.time.max`, so the ISR shrinks to the leader) and after
    // recovering fetches one record per round — far slower than the
    // producer appends — so it never re-enters the ISR. Crashing the
    // leader then forces an unclean election of a deeply lagging replica.
    spec.cluster.replication.lag_time_max = SimDuration::from_millis(200);
    spec.cluster.replication.max_fetch_records = 1;
    spec.cluster.replication.allow_unclean = true;
    spec.faults.push(BrokerFault::crash(
        BrokerId(1),
        SimTime::from_millis(100),
        SimDuration::from_millis(1_400),
    ));
    crash_leader(&mut spec, SimDuration::from_secs(5));
    let (outcome, events) = trace(spec, 7);

    assert_eq!(
        outcome.brokers.unclean_elections, 1,
        "{:?}",
        outcome.brokers
    );
    assert_eq!(outcome.brokers.clean_elections, 0);
    assert!(outcome.brokers.records_truncated > 0);
    assert!(outcome.report.lost > 0, "unclean election must lose data");
    // Every loss is broker-caused: the network was healthy throughout.
    assert_eq!(
        outcome.report.loss_reasons.get(&LossReason::LeaderFailover),
        Some(&outcome.report.lost),
        "{:?}",
        outcome.report.loss_reasons
    );

    // The trace pins the same attribution per message, and the lost keys
    // are exactly a subset of what the election event truncated.
    let truncated_at_election: Vec<u64> = events
        .iter()
        .find_map(|e| match e {
            TraceEvent::LeaderElected {
                clean,
                truncated_keys,
                ..
            } => {
                assert!(!clean, "this scenario elects a lagging replica");
                Some(truncated_keys.clone())
            }
            _ => None,
        })
        .expect("an election was traced");
    let report = TimelineReport::reconstruct(&events);
    for tl in report.timelines() {
        if let MessageFate::Lost { cause } = &tl.fate {
            assert_eq!(
                *cause,
                Some(LossCause::LeaderFailover),
                "loss must be attributed to the broker:\n{}",
                tl.narrate()
            );
            assert!(
                truncated_at_election.contains(&tl.key),
                "lost key {} was never truncated",
                tl.key
            );
        }
    }
    let audit = crosscheck(&outcome.report, &report);
    assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
}

#[test]
fn isr_shrinks_and_expands_under_a_flapping_follower() {
    let mut spec = replicated_spec(1_500, 3, DeliverySemantics::AtLeastOnce);
    spec.cluster.replication.lag_time_max = SimDuration::from_millis(150);
    // Broker 1 leads nothing: it is purely a follower for partition 0. It
    // crashes three times for 600 ms, 1.5 s apart.
    spec.faults = [1_000, 3_100, 5_200]
        .map(|ms| {
            BrokerFault::crash(
                BrokerId(1),
                SimTime::from_millis(ms),
                SimDuration::from_millis(600),
            )
        })
        .to_vec();
    let (outcome, events) = trace(spec, 7);

    assert!(
        outcome.brokers.isr_shrinks >= 3,
        "each flap must evict the laggard: {:?}",
        outcome.brokers
    );
    assert!(
        outcome.brokers.isr_expands >= 3,
        "each recovery must readmit it: {:?}",
        outcome.brokers
    );
    assert_eq!(outcome.brokers.failovers, 0, "no leadership moved");
    assert_eq!(outcome.report.lost, 0, "follower faults lose nothing");

    // The ISR round-trips: chronologically the follower's memberships
    // alternate shrink → expand, ending expanded (it caught back up).
    let transitions: Vec<bool> = events
        .iter()
        .filter_map(|e| match e {
            TraceEvent::IsrShrink { broker: 1, .. } => Some(false),
            TraceEvent::IsrExpand { broker: 1, .. } => Some(true),
            _ => None,
        })
        .collect();
    assert!(transitions.len() >= 6, "{transitions:?}");
    for pair in transitions.windows(2) {
        assert_ne!(pair[0], pair[1], "memberships must alternate");
    }
    assert_eq!(transitions.last(), Some(&true), "ends back in the ISR");
}

#[test]
fn acks_one_clean_failover_can_still_lose_acknowledged_records() {
    // The contrast case behind the acks=all guarantee: under acks=1 the
    // leader acknowledges before replication, so even a *clean* election
    // may truncate acknowledged records the winner had not fetched yet.
    // A 250 ms fetch interval widens the acked-but-unreplicated window
    // behind the 2.115 s crash (last fetch at 2.0 s) to ~11 records.
    let mut base = replicated_spec(1_500, 3, DeliverySemantics::AtLeastOnce);
    base.cluster.replication.fetch_interval = SimDuration::from_millis(250);
    crash_leader(&mut base, SimDuration::from_secs(5));
    let one = KafkaRun::new(base, 7).execute();

    let mut all = replicated_spec(1_500, 3, DeliverySemantics::All);
    all.cluster.replication.fetch_interval = SimDuration::from_millis(250);
    crash_leader(&mut all, SimDuration::from_secs(5));
    let all = KafkaRun::new(all, 7).execute();

    assert_eq!(one.brokers.clean_elections, 1);
    assert_eq!(all.brokers.clean_elections, 1);
    assert!(all.brokers.acks_held > 0, "acks=all must hold acks");
    assert_eq!(all.report.lost, 0);
    assert!(
        one.report.lost > 0,
        "acks=1 must lose the acked-but-unreplicated tail: {:?}",
        one.report.loss_reasons
    );
    assert_eq!(
        one.report.loss_reasons.get(&LossReason::LeaderFailover),
        Some(&one.report.lost)
    );
}

/// 400 messages at 100 msg/s over a loss-free 100 ms link; broker 0 crashes
/// for 1 s at 2.001 s, right after the producer switches from `from` to
/// `to` (when given) at 2 s, so the crash tears down a connection holding
/// requests sent under both acks levels.
fn switch_then_crash(
    from: DeliverySemantics,
    to: Option<DeliverySemantics>,
) -> kafkasim::RunOutcome {
    let config = |semantics| {
        ProducerConfig::builder()
            .semantics(semantics)
            .build()
            .unwrap()
    };
    let mut spec = RunSpec {
        producer: config(from),
        source: SourceSpec::fixed_rate(400, 200, 100.0),
        network: ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.0)),
        ..RunSpec::default()
    };
    spec.config_schedule = to
        .map(|to| (SimTime::from_secs(2), config(to)))
        .into_iter()
        .collect();
    spec.faults.push(BrokerFault::crash(
        BrokerId(0),
        SimTime::from_millis(2_001),
        SimDuration::from_secs(1),
    ));
    KafkaRun::new(spec, 7).execute()
}

#[test]
fn acks_zero_requests_torn_down_after_a_switch_to_acks_one_are_settled() {
    let plain = switch_then_crash(DeliverySemantics::AtMostOnce, None);
    let switched = switch_then_crash(
        DeliverySemantics::AtMostOnce,
        Some(DeliverySemantics::AtLeastOnce),
    );
    // An acks=0 request stranded by the crash would keep the run from ever
    // going idle, ticking housekeeping to the 7 200 s horizon.
    assert!(
        switched.events_fired <= 2 * plain.events_fired,
        "{} events against {} without the switch",
        switched.events_fired,
        plain.events_fired
    );
    let r = &switched.report;
    assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
}

#[test]
fn acked_requests_torn_down_after_a_switch_to_acks_zero_are_settled() {
    let switched = switch_then_crash(
        DeliverySemantics::AtLeastOnce,
        Some(DeliverySemantics::AtMostOnce),
    );
    // The crash settles the acks=1 requests too, so none of their timeouts
    // tears the reopened connection down again.
    assert_eq!(switched.producer.connection_resets, 1);
    let r = &switched.report;
    assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
}

const ALL_SEMANTICS: [DeliverySemantics; 3] = [
    DeliverySemantics::AtMostOnce,
    DeliverySemantics::AtLeastOnce,
    DeliverySemantics::All,
];

#[test]
fn a_failover_inside_the_processing_delay_refuses_the_late_append() {
    // With no detection delay the election moves partition 0's log off the
    // crashed leader while requests that reached it are still inside the
    // broker's processing delay. Their appends are refused: an acked one
    // was already requeued by the crash's teardown and its retry reaches
    // the new leader; an acks=0 one is lost to the failover, and traced so.
    for semantics in ALL_SEMANTICS {
        let mut spec = RunSpec {
            source: SourceSpec::fixed_rate(1_500, 200, 400.0),
            ..RunSpec::default()
        };
        spec.cluster.partitions = 1;
        spec.cluster.replication.factor = 3;
        spec.producer = ProducerConfig::builder()
            .semantics(semantics)
            .max_in_flight(64)
            .build()
            .unwrap();
        spec.faults = vec![BrokerFault::crash(
            BrokerId(0),
            SimTime::from_micros(2_000_411),
            SimDuration::from_secs(2),
        )];
        spec.failover_after = Some(SimDuration::ZERO);
        let untraced = KafkaRun::new(spec.clone(), 7).execute();
        let (outcome, events) = trace(spec, 7);
        assert_eq!(outcome.brokers.failovers, 1, "{semantics:?}");
        let r = &outcome.report;
        assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        assert_eq!(r.loss_reasons.values().sum::<u64>(), r.lost);
        let audit = crosscheck(r, &TimelineReport::reconstruct(&events));
        assert!(
            audit.fully_explains(),
            "{semantics:?}: {:#?}",
            audit.discrepancies
        );
        assert_eq!(untraced.report, outcome.report, "{semantics:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Conservation holds under broker faults for every semantics: each
    /// source message resolves exactly once, every loss carries a reason,
    /// the trace explains the audit in full, and tracing changes nothing.
    /// The crash lands anywhere on the microsecond grid, failover is off,
    /// instant or delayed, and a second fault on the same broker may
    /// overlap the first outage or flap after it.
    #[test]
    fn conservation_holds_with_broker_faults(
        seed in 0u64..1_000,
        factor in 1u32..4,
        at_us in 500_000u64..3_000_000,
        down_ms in 300u64..3_000,
        failover in 0u8..3,
        second in 0u8..3,
        offset_ms in 0u64..3_000,
        unclean in proptest::bool::ANY,
        sem in 0usize..3,
    ) {
        let mut spec = replicated_spec(400, factor, ALL_SEMANTICS[sem]);
        spec.cluster.replication.allow_unclean = unclean;
        spec.cluster.replication.lag_time_max = SimDuration::from_millis(500);
        let at = SimTime::from_micros(at_us);
        spec.faults = vec![BrokerFault::crash(
            BrokerId(0),
            at,
            SimDuration::from_millis(down_ms),
        )];
        let then = at + SimDuration::from_millis(offset_ms);
        match second {
            0 => {}
            1 => spec.faults.push(BrokerFault::crash(
                BrokerId(0),
                then,
                SimDuration::from_millis(down_ms / 2 + 100),
            )),
            // Flapping: three 200 ms crashes, 300 ms apart.
            _ => spec.faults.extend([0, 500, 1_000].map(|ms| {
                BrokerFault::crash(
                    BrokerId(0),
                    then + SimDuration::from_millis(ms),
                    SimDuration::from_millis(200),
                )
            })),
        }
        spec.failover_after = match failover {
            0 => None,
            1 => Some(SimDuration::ZERO),
            _ => Some(SimDuration::from_millis(300)),
        };
        let untraced = KafkaRun::new(spec.clone(), seed).execute();
        let (outcome, events) = trace(spec, seed);
        let r = &outcome.report;
        prop_assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        prop_assert_eq!(r.case_counts.iter().sum::<u64>(), r.n_source);
        prop_assert_eq!(r.loss_reasons.values().sum::<u64>(), r.lost);
        let report = TimelineReport::reconstruct(&events);
        let audit = crosscheck(&outcome.report, &report);
        prop_assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
        prop_assert_eq!(&untraced.report, &outcome.report);
        prop_assert_eq!(untraced.producer, outcome.producer);
        prop_assert_eq!(untraced.brokers, outcome.brokers);
    }
}
