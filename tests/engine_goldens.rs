//! Parent-pinned goldens of the three event engines' results, and the
//! smallest valid fleets.
//!
//! The scheduler under `EventSim` and `ShardedSim` may be any correct
//! priority queue over `(time, seq)`: every such queue pops the same
//! sequence, so every RNG draw and therefore every outcome below is fixed.
//! The constants were written by the commit *before* the scheduler gained
//! its delay-class lanes; a scheduler change that moves one of them has
//! changed the pop order.

use desim::{SimDuration, SimTime};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::fleet::{
    ChurnAction, ChurnEvent, FleetConfig, FleetOutcome, FleetRun, PartitionStrategy, Population,
    PopulationEntry, StreamClass,
};
use kafkasim::runtime::{KafkaRun, RunSpec};
use kafkasim::source::{SizeSpec, SourceSpec};
use netsim::{ConditionTimeline, NetCondition};

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// FNV-1a of the value's `Debug` rendering: every field, floats included.
fn debug_digest(value: &impl core::fmt::Debug) -> u64 {
    fnv1a(format!("{value:?}").as_bytes())
}

fn class(name: &str, rate_hz: f64, weight: f64) -> PopulationEntry {
    PopulationEntry {
        class: StreamClass {
            name: name.into(),
            size: SizeSpec::Fixed(200),
            rate_hz,
            timeliness: SimDuration::from_secs(30),
        },
        weight,
    }
}

/// A fleet small enough for tier-1 yet with every event kind in play:
/// 300 producers of two classes in all eight flush phases, two churn steps
/// (a join and a leave, each a rebalance), consume ticks and window closes.
fn pinned_fleet(strategy: PartitionStrategy) -> FleetConfig {
    FleetConfig {
        producers: 300,
        partitions: 12,
        strategy,
        population: Population::new(vec![class("slow", 0.7, 3.0), class("fast", 4.0, 1.0)])
            .expect("valid mix"),
        churn: vec![
            ChurnEvent {
                at: SimTime::from_secs(7),
                action: ChurnAction::Join,
                member: 4,
            },
            ChurnEvent {
                at: SimTime::from_secs(13),
                action: ChurnAction::Leave,
                member: 1,
            },
        ],
        duration: SimDuration::from_secs(20),
        ..FleetConfig::default()
    }
}

const STRATEGIES: [PartitionStrategy; 3] = [
    PartitionStrategy::RoundRobin,
    PartitionStrategy::KeyHash,
    PartitionStrategy::Locality,
];

/// `(events_fired, produced, delivered, duplicated, Debug digest)` of one
/// fleet outcome.
type FleetPin = (u64, u64, u64, u64, u64);

fn fleet_pin(o: &FleetOutcome) -> FleetPin {
    (
        o.events_fired,
        o.totals.produced,
        o.totals.delivered,
        o.totals.duplicated,
        debug_digest(o),
    )
}

/// The sequential fleet engine (`EventSim`), three partitioners, seed 7.
#[test]
fn sequential_fleet_outcomes_are_pinned() {
    let want = [
        SEQUENTIAL_ROUND_ROBIN,
        SEQUENTIAL_KEY_HASH,
        SEQUENTIAL_LOCALITY,
    ];
    for (strategy, want) in STRATEGIES.into_iter().zip(want) {
        let outcome = FleetRun::new(pinned_fleet(strategy), 7).execute();
        assert_eq!(fleet_pin(&outcome), want, "{strategy:?}");
    }
}

/// The sharded fleet engine (`ShardedSim`), same fleets, at one and at
/// three threads.
#[test]
fn sharded_fleet_outcomes_are_pinned() {
    let want = [SHARDED_ROUND_ROBIN, SHARDED_KEY_HASH, SHARDED_LOCALITY];
    for (strategy, want) in STRATEGIES.into_iter().zip(want) {
        for threads in [1, 3] {
            let outcome = FleetRun::new(pinned_fleet(strategy), 7).execute_sharded(threads);
            assert_eq!(
                fleet_pin(&outcome),
                want,
                "{strategy:?} at {threads} threads"
            );
        }
    }
}

/// A per-message run on a lossy network, so request timeouts, retries,
/// connection resets and housekeeping all schedule.
fn pinned_run(semantics: DeliverySemantics) -> RunSpec {
    RunSpec {
        source: SourceSpec::fixed_rate(2_500, 400, 40.0),
        network: ConditionTimeline::constant(NetCondition::new(SimDuration::from_millis(50), 0.22)),
        producer: ProducerConfig::builder()
            .semantics(semantics)
            .batch_size(3)
            .message_timeout(SimDuration::from_millis(2_000))
            .build()
            .expect("valid producer config"),
        ..RunSpec::default()
    }
}

/// The typed engine under `KafkaRun`: `(events_fired, Debug digest)` of the
/// whole `RunOutcome`, one at-least-once and one at-most-once run.
#[test]
fn kafka_run_outcomes_are_pinned() {
    for (semantics, want) in [
        (DeliverySemantics::AtLeastOnce, RUN_AT_LEAST_ONCE),
        (DeliverySemantics::AtMostOnce, RUN_AT_MOST_ONCE),
    ] {
        let outcome = KafkaRun::new(pinned_run(semantics), 11).execute();
        assert_eq!(
            (outcome.events_fired, debug_digest(&outcome)),
            want,
            "{semantics:?}"
        );
    }
}

// Written by the parent commit (plain `MinQueue` under every engine). The
// static partitioners never cross shards, so the sharded engine repeats the
// sequential one exactly; round-robin does, and fires the extra
// `AppendBatch` events.
const SEQUENTIAL_ROUND_ROBIN: FleetPin = (30_168, 8_850, 8_354, 303, 481979365943894936);
const SEQUENTIAL_KEY_HASH: FleetPin = (30_168, 8_850, 8_240, 312, 16919420233190634965);
const SEQUENTIAL_LOCALITY: FleetPin = (30_168, 8_850, 6_823, 281, 2492325219751143578);
const SHARDED_ROUND_ROBIN: FleetPin = (40_557, 8_850, 8_135, 304, 1073205715706533283);
const SHARDED_KEY_HASH: FleetPin = (30_168, 8_850, 8_240, 312, 16919420233190634965);
const SHARDED_LOCALITY: FleetPin = (30_168, 8_850, 6_823, 281, 2492325219751143578);
const RUN_AT_LEAST_ONCE: (u64, u64) = (11_484, 17741149464509989960);
const RUN_AT_MOST_ONCE: (u64, u64) = (7_690, 10932670437184555871);

/// Runs `cfg` on both fleet engines and checks termination (the calls
/// return) and conservation: every produced message is delivered or lost
/// with a cause, per tenant and in total, and first copies land in
/// exactly one partition.
fn assert_terminates_and_conserves(cfg: &FleetConfig) {
    let outcomes = [
        FleetRun::new(cfg.clone(), 3).execute(),
        FleetRun::new(cfg.clone(), 3).execute_sharded(1),
        FleetRun::new(cfg.clone(), 3).execute_sharded(2),
    ];
    for o in &outcomes {
        assert_eq!(o.tenants.len(), cfg.producers);
        for t in &o.tenants {
            assert_eq!(t.produced, t.delivered + t.lost(), "tenant {}", t.tenant);
        }
        assert_eq!(
            o.totals.produced,
            o.tenants.iter().map(|t| t.produced).sum::<u64>()
        );
        assert_eq!(o.totals.produced, o.totals.delivered + o.totals.lost());
        assert_eq!(o.partition_appends.iter().sum::<u64>(), o.totals.delivered);
        assert_eq!(o.windows.total_produced(), o.totals.produced);
    }
    assert_eq!(
        outcomes[1], outcomes[2],
        "sharded engine is thread-invariant"
    );
}

/// The run ends before the first flush phase (25 ms): no tenant ever
/// flushes, the only events are the ones seeded at time zero.
#[test]
fn fleet_shorter_than_the_first_flush_phase() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            duration: SimDuration::from_millis(20),
            window: SimDuration::from_millis(20),
            ..FleetConfig::default()
        };
        assert_terminates_and_conserves(&cfg);
        assert_eq!(FleetRun::new(cfg, 3).execute().totals.produced, 0);
    }
}

/// The run length is not a multiple of the 200 ms flush interval, so the
/// last flush of each phase lands at a different distance from the end.
#[test]
fn fleet_duration_off_the_flush_grid() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            duration: SimDuration::from_millis(1_370),
            window: SimDuration::from_millis(685),
            ..FleetConfig::default()
        };
        assert_terminates_and_conserves(&cfg);
    }
}

/// One producer: one flush chain, and on the sharded engine every shard
/// but one holds no tenant at all.
#[test]
fn fleet_of_one_producer() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            producers: 1,
            ..FleetConfig::default()
        };
        assert_terminates_and_conserves(&cfg);
        assert!(FleetRun::new(cfg, 3).execute().totals.produced > 0);
    }
}

/// Churn at the earliest instant a config may carry it (`validate` rejects
/// time zero itself): the rebalance fires before any flush.
#[test]
fn fleet_with_churn_at_the_first_instant() {
    let at_zero = FleetConfig {
        churn: vec![ChurnEvent {
            at: SimTime::ZERO,
            action: ChurnAction::Join,
            member: 9,
        }],
        ..FleetConfig::default()
    };
    assert!(at_zero.validate().is_err());
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            churn: vec![
                ChurnEvent {
                    at: SimTime::from_micros(1),
                    action: ChurnAction::Join,
                    member: 9,
                },
                ChurnEvent {
                    at: SimTime::from_micros(1),
                    action: ChurnAction::Leave,
                    member: 0,
                },
            ],
            ..FleetConfig::default()
        };
        assert_terminates_and_conserves(&cfg);
        let outcome = FleetRun::new(cfg, 3).execute();
        assert_eq!(outcome.rebalances.len(), 2);
    }
}
