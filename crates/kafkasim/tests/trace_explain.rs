//! End-to-end tests of the tracing pipeline: a full trace must explain
//! every message the audit counts lost or duplicated, without perturbing
//! the simulation it observes.

use desim::SimDuration;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{KafkaRun, RunSpec};
use kafkasim::source::SourceSpec;
use kafkasim::{crosscheck, LossReason};
use netsim::{ConditionTimeline, NetCondition};
use obs::{
    parse_jsonl, JsonlSink, MessageFate, MetricsSink, RingBufferSink, TimelineReport, TraceEvent,
    TraceSink,
};
use proptest::prelude::*;

fn quick_spec(n: u64) -> RunSpec {
    RunSpec {
        source: SourceSpec::fixed_rate(n, 200, 500.0),
        ..RunSpec::default()
    }
}

/// `acks=0` over a 30%-loss network: heavy silent loss.
fn lossy_amo_spec(n: u64) -> RunSpec {
    let mut spec = quick_spec(n);
    spec.producer = ProducerConfig::builder()
        .semantics(DeliverySemantics::AtMostOnce)
        .message_timeout(SimDuration::from_millis(2_000))
        .build()
        .unwrap();
    spec.network =
        ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(100), 0.30));
    spec
}

/// `acks=1` with an aggressive request timeout over a 25%-loss network:
/// acks go missing after the append happened, so retries duplicate.
fn duplicating_alo_spec(n: u64) -> RunSpec {
    let mut spec = quick_spec(n);
    spec.producer = ProducerConfig::builder()
        .semantics(DeliverySemantics::AtLeastOnce)
        .request_timeout(SimDuration::from_millis(400))
        .message_timeout(SimDuration::from_millis(5_000))
        .build()
        .unwrap();
    spec.network =
        ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(150), 0.25));
    spec
}

fn trace(spec: RunSpec, seed: u64) -> (kafkasim::RunOutcome, Vec<TraceEvent>) {
    let (outcome, mut sink) =
        KafkaRun::new(spec, seed).execute_traced(Box::new(RingBufferSink::new(1 << 22)));
    assert_eq!(sink.dropped(), 0, "the ring holds the whole run");
    let events = sink.drain();
    (outcome, events)
}

/// A ring too small for its run keeps the newest events, and the boxed
/// sink every caller holds says how many of the oldest it dropped.
#[test]
fn a_ring_too_small_for_its_run_counts_what_it_dropped() {
    let (_, all) = trace(lossy_amo_spec(300), 3);
    let ring = 64;
    assert!(all.len() > ring, "the run must outgrow the ring");
    let (_, mut sink) =
        KafkaRun::new(lossy_amo_spec(300), 3).execute_traced(Box::new(RingBufferSink::new(ring)));
    assert_eq!(sink.dropped(), (all.len() - ring) as u64);
    assert_eq!(sink.drain(), all[all.len() - ring..]);
}

#[test]
fn lossy_amo_run_is_fully_explained() {
    let (outcome, events) = trace(lossy_amo_spec(1_000), 3);
    assert!(
        outcome.report.lost > 0,
        "scenario must actually lose messages"
    );
    let report = TimelineReport::reconstruct(&events);
    let audit = crosscheck(&outcome.report, &report);
    assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
    // Every lost message carries a concrete cause in its timeline.
    for tl in report.timelines() {
        if let MessageFate::Lost { cause } = &tl.fate {
            assert!(
                cause.is_some(),
                "key {} lost without cause:\n{}",
                tl.key,
                tl.narrate()
            );
        }
    }
}

#[test]
fn duplicate_heavy_alo_run_is_fully_explained() {
    let (outcome, events) = trace(duplicating_alo_spec(2_000), 5);
    assert!(
        outcome.report.duplicated > 0,
        "scenario must actually duplicate messages"
    );
    let report = TimelineReport::reconstruct(&events);
    let audit = crosscheck(&outcome.report, &report);
    assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
    // Every duplicated message shows the re-append mechanism.
    let mut with_cause = 0;
    for tl in report.timelines() {
        if let MessageFate::Duplicated { cause, .. } = &tl.fate {
            assert!(cause.is_some(), "unexplained duplicate:\n{}", tl.narrate());
            with_cause += 1;
        }
    }
    assert_eq!(with_cause, outcome.report.duplicated);
}

#[test]
fn conservation_invariants_hold_across_scenarios() {
    for (spec, seed) in [
        (lossy_amo_spec(800), 3),
        (duplicating_alo_spec(1_500), 5),
        (quick_spec(1_000), 1),
    ] {
        let outcome = KafkaRun::new(spec, seed).execute();
        let r = &outcome.report;
        // Every source message resolves exactly once.
        assert_eq!(r.delivered_once + r.lost + r.duplicated, r.n_source);
        assert_eq!(r.case_counts.iter().sum::<u64>(), r.n_source);
        // Every lost message has exactly one reason.
        assert_eq!(r.loss_reasons.values().sum::<u64>(), r.lost);
        // Broker log accounting: appends = unique keys + extra copies.
        assert_eq!(
            outcome.records_appended,
            r.delivered_once + r.duplicated + r.extra_copies,
            "appends must equal unique delivered keys plus duplicates"
        );
        // N_d is bounded by surplus appends over unique keys.
        assert!(r.duplicated <= outcome.records_appended - (r.delivered_once + r.duplicated));
    }
}

#[test]
fn tracing_does_not_perturb_the_simulation() {
    for (spec_fn, seed) in [
        (lossy_amo_spec as fn(u64) -> RunSpec, 3u64),
        (duplicating_alo_spec as fn(u64) -> RunSpec, 5u64),
    ] {
        let plain = KafkaRun::new(spec_fn(600), seed).execute();
        let (traced, _events) = trace(spec_fn(600), seed);
        assert_eq!(plain.report, traced.report);
        assert_eq!(plain.producer, traced.producer);
        assert_eq!(plain.events_fired, traced.events_fired);
        assert_eq!(plain.records_appended, traced.records_appended);
        assert!(
            plain.metrics.is_none(),
            "no registry without a metrics sink"
        );
    }
}

#[test]
fn metrics_sink_surfaces_histograms_in_the_outcome() {
    use kafkasim::runtime::{OnlineController, OnlineSpec, WindowStats};
    use std::sync::{Arc, Mutex};

    struct Capture(Mutex<Vec<WindowStats>>);
    impl OnlineController for Capture {
        fn decide(&self, stats: &WindowStats, _cfg: &ProducerConfig) -> Option<ProducerConfig> {
            self.0.lock().unwrap().push(*stats);
            None
        }
    }

    let capture = Arc::new(Capture(Mutex::new(Vec::new())));
    let mut spec = duplicating_alo_spec(1_000);
    spec.online = Some(OnlineSpec {
        interval: SimDuration::from_secs(1),
        controller: capture.clone(),
    });
    let (outcome, _sink) = KafkaRun::new(spec, 5).execute_traced(Box::new(MetricsSink::new()));
    let m = outcome
        .metrics
        .expect("metrics sink fills RunOutcome::metrics");
    assert_eq!(m.counters["enqueued"], 1_000);
    assert!(m.rtt_s.count > 0, "acks=1 runs measure RTT");
    assert!(m.e2e_latency_s.count > 0);
    assert!(m.e2e_latency_s.p99.is_some());
    assert!(m.batch_fill.count > 0);
    // Observation windows see the live histogram-derived statistics.
    let windows = capture.0.lock().unwrap();
    let last = windows.last().expect("online windows observed");
    assert!(last.rtt_p99_ms.is_some());
    assert!(last.e2e_p99_ms.is_some());
    assert!(last.batch_fill_mean.is_some());
}

#[test]
fn jsonl_trace_round_trips_and_reconstructs_identically() {
    let (outcome, mut sink) = KafkaRun::new(lossy_amo_spec(400), 3)
        .execute_traced(Box::new(JsonlSink::new(Vec::<u8>::new())));
    assert!(
        sink.drain().is_empty(),
        "jsonl sink retains nothing in memory"
    );
    drop(sink);

    // Re-run with a ring buffer to get the reference event stream, then
    // serialise it the way `repro --trace-out` does and parse it back.
    let (outcome2, events) = trace(lossy_amo_spec(400), 3);
    assert_eq!(outcome.report, outcome2.report);
    let mut jsonl = JsonlSink::new(Vec::new());
    for e in &events {
        jsonl.record(e.clone());
    }
    assert_eq!(jsonl.errors(), 0);
    let text = String::from_utf8(jsonl.into_inner().unwrap()).unwrap();
    let parsed = parse_jsonl(&text).unwrap();
    assert_eq!(parsed, events, "JSONL round-trip preserves every event");

    let from_disk = TimelineReport::reconstruct(&parsed);
    let audit = crosscheck(&outcome.report, &from_disk);
    assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
}

#[test]
fn loss_reason_histogram_matches_trace_attribution() {
    let (outcome, events) = trace(lossy_amo_spec(1_000), 3);
    let report = TimelineReport::reconstruct(&events);
    assert_eq!(report.lost_by_cause(), outcome.report.loss_reasons);
    assert!(outcome.report.loss_reasons[&LossReason::ConnectionReset] > 0);
}

/// `max.in.flight.requests.per.connection`, replayed from the trace: a
/// request is open on its connection from `RequestSent` until its
/// `AckReceived`, and a `ConnectionReset` settles everything open there.
/// The open count per connection never passes the limit, and reaches it.
#[test]
fn in_flight_requests_per_connection_stay_within_the_limit() {
    use std::collections::{BTreeMap, BTreeSet};

    for limit in [1, 3] {
        let mut spec = duplicating_alo_spec(2_000);
        spec.producer.batch_size = 1;
        spec.producer.max_in_flight = limit;
        let (_, events) = trace(spec, 11);
        let mut open: BTreeMap<u32, BTreeSet<u64>> = BTreeMap::new();
        let mut peak = 0;
        for event in &events {
            match *event {
                TraceEvent::RequestSent { conn, request, .. } => {
                    let requests = open.entry(conn).or_default();
                    requests.insert(request);
                    peak = peak.max(requests.len());
                }
                TraceEvent::AckReceived { conn, request, .. } => {
                    open.entry(conn).or_default().remove(&request);
                }
                TraceEvent::ConnectionReset { conn, .. } => {
                    open.entry(conn).or_default().clear();
                }
                _ => {}
            }
        }
        assert_eq!(peak, limit, "max_in_flight = {limit}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Across random seeds and network conditions, the trace attributes
    /// every audited loss and duplication to a concrete cause.
    #[test]
    fn attribution_is_total_for_any_seed(
        seed in 0u64..1_000,
        loss_pct in 5u32..35,
        delay_ms in 20u64..200,
        alo in proptest::bool::ANY,
    ) {
        let mut spec = quick_spec(300);
        spec.producer = ProducerConfig::builder()
            .semantics(if alo {
                DeliverySemantics::AtLeastOnce
            } else {
                DeliverySemantics::AtMostOnce
            })
            .request_timeout(SimDuration::from_millis(500))
            .message_timeout(SimDuration::from_millis(2_500))
            .build()
            .unwrap();
        spec.network = ConditionTimeline::constant(NetCondition::new(
            SimDuration::from_millis(delay_ms),
            f64::from(loss_pct) / 100.0,
        ));
        let (outcome, events) = trace(spec, seed);
        let report = TimelineReport::reconstruct(&events);
        let audit = crosscheck(&outcome.report, &report);
        prop_assert!(audit.fully_explains(), "{:#?}", audit.discrepancies);
    }
}
