//! Pins profiling as strictly observational: the same run executed
//! untraced, traced with a disabled profiler, and traced with an enabled
//! profiler produces identical delivery reports and identical event
//! streams. Wall-clock span recording must never leak into simulated
//! behaviour — the digests in `tests/contract_digests.rs` and every figure
//! depend on it.

use desim::SimDuration;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{KafkaRun, RunSpec};
use kafkasim::source::SourceSpec;
use netsim::{ConditionTimeline, NetCondition};
use obs::{NoopSink, Profiler, RingBufferSink};

fn spec(semantics: DeliverySemantics, loss: f64) -> RunSpec {
    RunSpec {
        producer: ProducerConfig::builder()
            .semantics(semantics)
            .batch_size(4)
            .build()
            .expect("valid producer config"),
        source: SourceSpec::fixed_rate(500, 200, 500.0),
        network: ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(40), loss)),
        ..RunSpec::default()
    }
}

#[test]
fn disabled_profiler_is_bit_identical_to_untraced() {
    for (semantics, loss, seed) in [
        (DeliverySemantics::AtMostOnce, 0.15, 7),
        (DeliverySemantics::AtLeastOnce, 0.15, 7),
        (DeliverySemantics::All, 0.0, 11),
    ] {
        let plain = KafkaRun::new(spec(semantics, loss), seed).execute();
        let (profiled, _) = KafkaRun::new(spec(semantics, loss), seed)
            .execute_profiled(Box::new(NoopSink), Profiler::disabled());
        assert_eq!(
            plain.report, profiled.report,
            "disabled profiler changed the {semantics} outcome"
        );
    }
}

#[test]
fn enabled_profiler_changes_no_outcome_and_no_trace() {
    let seed = 13;
    let (plain, mut plain_sink) = KafkaRun::new(spec(DeliverySemantics::AtLeastOnce, 0.2), seed)
        .execute_traced(Box::new(RingBufferSink::new(1 << 20)));
    let prof = Profiler::enabled();
    let (profiled, mut prof_sink) = KafkaRun::new(spec(DeliverySemantics::AtLeastOnce, 0.2), seed)
        .execute_profiled(Box::new(RingBufferSink::new(1 << 20)), prof.clone());

    assert_eq!(
        plain.report, profiled.report,
        "profiling changed the outcome"
    );
    assert_eq!(
        plain_sink.drain(),
        prof_sink.drain(),
        "profiling changed the simulated event stream"
    );

    // The profiled run actually recorded the instrumented phases.
    let snap = prof.snapshot();
    assert!(snap.spans.iter().any(|s| s.name == "kafkasim.setup"));
    assert!(snap.spans.iter().any(|s| s.name == "desim.run-slice"));
    assert!(snap.spans.iter().any(|s| s.name == "kafkasim.audit"));
    assert!(
        snap.spans.iter().any(|s| s.depth > 0),
        "phases nest under the loop"
    );
}
