//! Parent-pinned goldens of the fleet engine's and the per-message
//! engine's results, and the smallest and most degenerate valid fleets.
//!
//! The scheduler under `EventSim` may be any correct priority queue over
//! `(time, seq)`: every such queue pops the same sequence, so every RNG
//! draw and therefore every outcome below is fixed. Each constant was
//! written by the commit *before* the change it guards (the scheduler's
//! delay-class lanes; the fleet engine's one-step append of a flush's
//! survivors); a change that moves one of them has changed the model.
//! A fleet pin digests its outcome with `events_fired` masked and pins the
//! count beside it, so an engine change that drops events which change
//! nothing moves the count alone (the fleet engine's one event per flush
//! phase did).

#[path = "support/fnv1a.rs"]
mod fnv1a;

use fnv1a::fnv1a;

use desim::{SimDuration, SimTime};
use kafkasim::broker::BrokerId;
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::fleet::{
    ChurnAction, ChurnEvent, FleetConfig, FleetOutcome, FleetRun, PartitionStrategy, Population,
    PopulationEntry, StreamClass,
};
use kafkasim::runtime::{BrokerFault, KafkaRun, RunSpec};
use kafkasim::source::{SizeSpec, SourceSpec};
use netsim::{ConditionTimeline, NetCondition};
use testbed::experiment::ExperimentPoint;
use testbed::Calibration;

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
/// fleet outcome, the digest taken with `events_fired` masked.
type FleetPin = (u64, u64, u64, u64, u64);

fn fleet_pin(o: &FleetOutcome) -> FleetPin {
    (
        o.events_fired,
        o.totals.produced,
        o.totals.delivered,
        o.totals.duplicated,
        debug_digest(&masked(o)),
    )
}

/// The `FleetOutcome` fields that carry a leaf, in declaration order.
const LEAF_FIELDS: [&str; 6] = [
    "tenants",
    "totals",
    "classes",
    "partition_appends",
    "rebalances",
    "windows",
];

/// One `Debug` digest per field of [`LEAF_FIELDS`]: when a fleet pin
/// moves, the leaves that moved name the fields it moved in.
type FleetLeaves = [u64; 6];

fn fleet_leaves(o: &FleetOutcome) -> FleetLeaves {
    [
        debug_digest(&o.tenants),
        debug_digest(&o.totals),
        debug_digest(&o.classes),
        debug_digest(&o.partition_appends),
        debug_digest(&o.rebalances),
        debug_digest(&o.windows),
    ]
}

/// Asserts an outcome's leaves before its pin is asserted, so that a
/// moved pin fails here, naming the fields that moved, unless only
/// `events_fired` did.
fn assert_leaves(o: &FleetOutcome, want: FleetLeaves, what: impl core::fmt::Debug) {
    let got = fleet_leaves(o);
    let moved: Vec<&str> = (LEAF_FIELDS.iter().zip(got.iter().zip(&want)))
        .filter(|(_, (got, want))| got != want)
        .map(|(field, _)| *field)
        .collect();
    assert!(
        moved.is_empty(),
        "{what:?}: the leaves of {moved:?} moved; leaves now {got:?}"
    );
}

/// The outcome with `events_fired` set to 0. The digests pin what a run
/// computed and the count, pinned beside them, how many events it took:
/// an engine change that drops events which change nothing moves the count
/// alone.
fn masked(o: &FleetOutcome) -> FleetOutcome {
    FleetOutcome {
        events_fired: 0,
        ..o.clone()
    }
}

/// The fleet engine at the committed scenarios' rates (at most one message
/// a flush), three partitioners, seed 7.
#[test]
fn sequential_fleet_outcomes_are_pinned() {
    let want = [
        SEQUENTIAL_ROUND_ROBIN,
        SEQUENTIAL_KEY_HASH,
        SEQUENTIAL_LOCALITY,
    ];
    for ((strategy, want), leaves) in STRATEGIES.into_iter().zip(want).zip(SEQUENTIAL_LEAVES) {
        let outcome = FleetRun::new(pinned_fleet(strategy), 7).execute();
        assert_leaves(&outcome, leaves, strategy);
        assert_eq!(fleet_pin(&outcome), want, "{strategy:?}");
    }
}

/// `pinned_fleet` where most flushes append nothing: 1 and 3 Hz against the
/// 200 ms flush leave most of them empty and a 30 % network loss empties
/// more, over buckets whose refill steps (11 Hz x 0.2 s) are not exact in
/// binary. Such a flush must leave its partition's bucket alone: a refill
/// there splits a later one in two, `t + c·e₁ + c·e₂` is not
/// `t + c·(e₁ + e₂)` in floats, and the key-hash and locality rows move.
#[test]
fn sparse_fleet_outcomes_are_pinned() {
    let want = [SPARSE_ROUND_ROBIN, SPARSE_KEY_HASH, SPARSE_LOCALITY];
    for ((strategy, want), leaves) in STRATEGIES.into_iter().zip(want).zip(SPARSE_LEAVES) {
        let cfg = FleetConfig {
            population: Population::new(vec![class("slow", 1.0, 3.0), class("fast", 3.0, 1.0)])
                .expect("valid mix"),
            partition_capacity_hz: 11.0,
            base_loss: 0.3,
            ..pinned_fleet(strategy)
        };
        let outcome = FleetRun::new(cfg, 7).execute();
        assert_leaves(&outcome, leaves, strategy);
        assert_eq!(fleet_pin(&outcome), want, "{strategy:?}");
    }
}

/// The one golden where a flush carries several messages (30 and 60 Hz
/// against the 200 ms flush: 6 to 12), buckets accept part of a flush and
/// two rebalances open re-read windows, so the only one that reaches the
/// one-step append of a flush's survivors with `count > 1`.
fn high_rate_fleet(strategy: PartitionStrategy) -> FleetConfig {
    FleetConfig {
        producers: 2_000,
        partitions: 32,
        strategy,
        population: Population::new(vec![
            class("web-access-records", 30.0, 0.5),
            class("game-events", 60.0, 0.5),
        ])
        .expect("valid mix"),
        churn: vec![
            ChurnEvent {
                at: SimTime::from_secs(10),
                action: ChurnAction::Join,
                member: 4,
            },
            ChurnEvent {
                at: SimTime::from_secs(20),
                action: ChurnAction::Leave,
                member: 1,
            },
        ],
        partition_capacity_hz: 2_000.0,
        base_loss: 0.01,
        ..FleetConfig::default()
    }
}

/// FNV-1a of the outcome's JSON at seed 61 with `events_fired` masked,
/// and the count on its own. Key-hash is the ROADMAP's "sharded" contract
/// digest: the deleted sharded engine equalled this one on static
/// partitioners. The other seven live in `tests/contract_digests.rs`.
#[test]
fn high_rate_fleet_outcomes_are_pinned() {
    let want = [
        HIGH_RATE_ROUND_ROBIN,
        HIGH_RATE_KEY_HASH,
        HIGH_RATE_LOCALITY,
    ];
    for ((strategy, want), leaves) in STRATEGIES.into_iter().zip(want).zip(HIGH_RATE_LEAVES) {
        let outcome = FleetRun::new(high_rate_fleet(strategy), 61).execute();
        assert_leaves(&outcome, leaves, strategy);
        let json = serde_json::to_string(&masked(&outcome)).expect("outcome serialises");
        let digest = format!("{:016x}", fnv1a(json.as_bytes()));
        assert_eq!(
            (outcome.events_fired, digest.as_str()),
            want,
            "{strategy:?}"
        );
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

/// A protocol run with a mid-run broker crash, replicated topic and
/// at-least-once producer.
fn crash_run() -> RunSpec {
    let mut run = RunSpec {
        source: SourceSpec::fixed_rate(2_000, 200, 400.0),
        ..RunSpec::default()
    };
    run.cluster.replication.factor = 3;
    run.producer = ProducerConfig::builder()
        .semantics(DeliverySemantics::AtLeastOnce)
        .message_timeout(SimDuration::from_millis(2_000))
        .build()
        .expect("valid producer config");
    run.faults.push(BrokerFault::crash(
        BrokerId(0),
        SimTime::from_secs(2),
        SimDuration::from_millis(3_000),
    ));
    run.failover_after = Some(SimDuration::from_millis(500));
    run
}

/// A protocol run with a flapping broker under acks=all.
fn flapping_run() -> RunSpec {
    let mut run = RunSpec {
        source: SourceSpec::fixed_rate(2_000, 100, 400.0),
        ..RunSpec::default()
    };
    run.cluster.replication.factor = 3;
    run.producer = ProducerConfig::builder()
        .semantics(DeliverySemantics::All)
        .message_timeout(SimDuration::from_millis(2_000))
        .build()
        .expect("valid producer config");
    run.faults.push(BrokerFault {
        broker: BrokerId(1),
        at: SimTime::from_secs(1),
        down_for: SimDuration::from_millis(500),
        flaps: 3,
        up_for: SimDuration::from_millis(800),
    });
    run
}

/// The two broker-fault scenarios at seed 77, pinned like the runs above;
/// a fault that perturbs nothing would pin nothing worth holding.
#[test]
fn broker_fault_run_outcomes_are_pinned() {
    for (name, spec, want) in [
        ("crash", crash_run(), RUN_CRASH),
        ("flapping", flapping_run(), RUN_FLAPPING),
    ] {
        spec.validate().expect("fault scenario is valid");
        let outcome = KafkaRun::new(spec, 77).execute();
        assert!(
            outcome.report.lost > 0 || outcome.report.duplicated > 0,
            "{name}: the fault must actually perturb delivery"
        );
        assert_eq!(
            (outcome.events_fired, debug_digest(&outcome)),
            want,
            "{name}"
        );
    }
}

// The fleet pins. Each masked digest was taken by the new test body run
// against the code of the commit before the one-event-per-flush-phase
// engine, where it equals the commit's own; the `events_fired` beside it is
// the one-event-per-phase engine's count (the per-tenant engine fired
// 30 168 for SEQUENTIAL_* and SPARSE_*, 15 297 for EMPTIED_*, 15 298 for
// REJOINED_* and 300 057 for HIGH_RATE_*).
const HIGH_RATE_ROUND_ROBIN: (u64, &str) = (1_506, "0b92f1163540a77a");
const HIGH_RATE_KEY_HASH: (u64, &str) = (1_506, "1858f997c04997a5");
const HIGH_RATE_LOCALITY: (u64, &str) = (1_506, "08dc08ab0232a428");
const SEQUENTIAL_ROUND_ROBIN: FleetPin = (1_004, 8_850, 8_354, 303, 15063813961409042244);
const SEQUENTIAL_KEY_HASH: FleetPin = (1_004, 8_850, 8_240, 312, 3177815102412245109);
const SEQUENTIAL_LOCALITY: FleetPin = (1_004, 8_850, 6_823, 281, 16761185891686279950);
const SPARSE_ROUND_ROBIN: FleetPin = (1_004, 8_700, 2_584, 87, 17412885148997987731);
const SPARSE_KEY_HASH: FleetPin = (1_004, 8_700, 2_299, 76, 13678607953845202718);
const SPARSE_LOCALITY: FleetPin = (1_004, 8_700, 1_741, 59, 13905668148238668206);
const EMPTIED_ROUND_ROBIN: FleetPin = (1_508, 4_475, 4_467, 293, 15488851164864974739);
const EMPTIED_KEY_HASH: FleetPin = (1_508, 4_475, 4_467, 306, 6418305801036084622);
const EMPTIED_LOCALITY: FleetPin = (1_508, 4_475, 4_222, 271, 9850945848356422926);
const REJOINED_ROUND_ROBIN: FleetPin = (1_509, 4_475, 4_467, 643, 16727170421687350577);
const REJOINED_KEY_HASH: FleetPin = (1_509, 4_475, 4_467, 656, 10919830876759430337);
const REJOINED_LOCALITY: FleetPin = (1_509, 4_475, 4_222, 595, 2993912956029324531);
// The leaves of the fleet pins above, one array per test in `STRATEGIES`
// order, written by the commit before the fleet engine's carry per (flush
// phase, class).
const SEQUENTIAL_LEAVES: [FleetLeaves; 3] = [
    [
        13349088204594822949,
        11592404284611189950,
        2266227011674887132,
        10816706595274561023,
        4593402475678906925,
        9661794627082622911,
    ],
    [
        10825861464286119346,
        12635973783297515082,
        13931643071977389408,
        10439615447962179528,
        4593402475678906925,
        7306857305430501628,
    ],
    [
        15859404294887809640,
        18093986245226060371,
        7667494951195813634,
        3778901741948053949,
        4593402475678906925,
        5699717464120361255,
    ],
];
const SPARSE_LEAVES: [FleetLeaves; 3] = [
    [
        18372224751832549567,
        16391461430305688723,
        15893871376097647655,
        14752253488215834191,
        4593402475678906925,
        6886184719592834364,
    ],
    [
        15340802589424724449,
        452955997157337319,
        14194104559506594002,
        2657576192576211730,
        4593402475678906925,
        14864837159437826017,
    ],
    [
        8728172954189498025,
        4704879744633859566,
        14440153030568558074,
        18260894714577377434,
        4593402475678906925,
        14135525337197427094,
    ],
];
const HIGH_RATE_LEAVES: [FleetLeaves; 3] = [
    [
        13542659298542479093,
        15212118359928949061,
        10786620361163483446,
        15238048137379005741,
        1398588170972679717,
        15140784336670407548,
    ],
    [
        6718213198244257138,
        15915029964685515389,
        2356481690553659002,
        2218776898902619153,
        1398588170972679717,
        14545892878981184920,
    ],
    [
        15019050198593789581,
        11828248041743058602,
        12813865347245434017,
        3986238611300470909,
        1398588170972679717,
        3455302434438629694,
    ],
];
const EMPTIED_LEAVES: [FleetLeaves; 3] = [
    [
        12134685719750145028,
        18287406122901074038,
        3628479370675642408,
        14829013782130335760,
        18251025337931885836,
        16148961448792247597,
    ],
    [
        16034593150747681085,
        3178553653578064903,
        2064583425088336823,
        1731008558800626505,
        18251025337931885836,
        15837981945326810284,
    ],
    [
        7256002807361797782,
        10855094985297417740,
        11783119289017284349,
        8062188413603716431,
        18251025337931885836,
        15431018970136718906,
    ],
];
const REJOINED_LEAVES: [FleetLeaves; 3] = [
    [
        2890476610803353845,
        16202239808615688971,
        13233101307670723207,
        14829013782130335760,
        10600441490062053225,
        11004172045085954457,
    ],
    [
        12551702965845496818,
        3772224534366523933,
        14194989931779518264,
        1731008558800626505,
        10600441490062053225,
        13751741471613824256,
    ],
    [
        6842143479012974285,
        4272319513914471671,
        18332970336197573878,
        8062188413603716431,
        10600441490062053225,
        3106233760229872877,
    ],
];
// Written by the parent commit (plain `MinQueue` under every engine).
const RUN_AT_LEAST_ONCE: (u64, u64) = (11_484, 17741149464509989960);
const RUN_AT_MOST_ONCE: (u64, u64) = (7_690, 10932670437184555871);
// Written by the parent commit, whose one-thread path was today's only path.
const RUN_CRASH: (u64, u64) = (21_510, 3650946061504918518);
const RUN_FLAPPING: (u64, u64) = (14_907, 11802491271031039536);

/// Runs `cfg` and checks termination (the call returns) and conservation:
/// every produced message is delivered or lost with a cause, per tenant
/// and in total, and first copies land in exactly one partition.
fn assert_terminates_and_conserves(cfg: &FleetConfig) -> FleetOutcome {
    let o = FleetRun::new(cfg.clone(), 3).execute();
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
    o
}

/// The run ends before the first flush phase (25 ms): no phase is seeded,
/// the only events are the first consume tick and the window close at the
/// end, and nothing is produced, at 1 Hz or at 100 Hz a producer (where a
/// phase seeded past the end would emit its tenants' 2–20 messages after
/// the last window closed, into no window).
#[test]
fn fleet_shorter_than_the_first_flush_phase() {
    for strategy in STRATEGIES {
        for rate_hz in [1.0, 100.0] {
            let cfg = FleetConfig {
                strategy,
                duration: SimDuration::from_millis(20),
                window: SimDuration::from_millis(20),
                population: Population::new(vec![class("steady", rate_hz, 1.0)])
                    .expect("valid mix"),
                ..FleetConfig::default()
            };
            assert_eq!(cfg.producers, 100);
            let o = assert_terminates_and_conserves(&cfg);
            assert_eq!(o.totals.produced, 0, "{strategy:?}, {rate_hz} Hz");
            assert_eq!(o.events_fired, events_of(&cfg));
        }
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
        assert_eq!(
            assert_terminates_and_conserves(&cfg).events_fired,
            events_of(&cfg)
        );
    }
}

/// One producer: one flush chain.
#[test]
fn fleet_of_one_producer() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            producers: 1,
            ..FleetConfig::default()
        };
        let o = assert_terminates_and_conserves(&cfg);
        assert!(o.totals.produced > 0);
        assert_eq!(o.events_fired, events_of(&cfg));
    }
}

/// Seven producers: one flush phase of the eight has no tenant and fires
/// no event.
#[test]
fn fleet_of_fewer_producers_than_flush_phases() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            producers: 7,
            ..FleetConfig::default()
        };
        let o = assert_terminates_and_conserves(&cfg);
        assert!(o.tenants.iter().all(|t| t.produced > 0), "{strategy:?}");
        assert_eq!(o.events_fired, events_of(&cfg));
    }
}

/// One KPI window as long as the run: one row a class, closed at the end.
#[test]
fn fleet_whose_window_is_the_whole_run() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            duration: SimDuration::from_millis(2_300),
            window: SimDuration::from_millis(2_300),
            churn: vec![],
            ..pinned_fleet(strategy)
        };
        let o = assert_terminates_and_conserves(&cfg);
        assert_eq!(o.windows.rows.len(), 2, "{strategy:?}");
        assert!(o.totals.produced > 0);
        assert_eq!(o.events_fired, events_of(&cfg));
    }
}

/// A class of rate zero is refused by `Population::new`, naming the class.
/// The nearest valid one, a rate too small to emit one message in the run,
/// terminates and conserves, and its producers produce nothing.
#[test]
fn zero_rate_class_is_refused_and_an_idle_class_conserves() {
    let err = Population::new(vec![class("idle", 0.0, 1.0), class("busy", 2.0, 1.0)]).unwrap_err();
    assert!(err.contains("'idle'") && err.contains("rate"), "{err}");
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            population: Population::new(vec![
                class("idle", f64::MIN_POSITIVE, 1.0),
                class("busy", 2.0, 1.0),
            ])
            .expect("valid mix"),
            ..FleetConfig::default()
        };
        let o = assert_terminates_and_conserves(&cfg);
        assert_eq!(o.classes[0].produced, 0, "{strategy:?}");
        assert!(o.classes[1].produced > 0, "{strategy:?}");
    }
}

/// Events a fleet run fires: each of the `min(8, producers)` flush phases
/// ticks every 200 ms from `(phase + 1) · 25 ms`, the group drains every
/// 100 ms, a window closes every `window`, and each churn step fires once.
/// A flush phase is seeded only if its first tick is before the end; the
/// first consume tick and window close are seeded at time zero and fire
/// even past the end. Each kind re-arms while the next instant is before
/// the end (a window close, at or before it).
fn events_of(cfg: &FleetConfig) -> u64 {
    let end = cfg.duration.as_micros();
    let ticks = |first: u64, every: u64, upto_end: bool| {
        let more = (1..).map(|k| first + k * every);
        1 + more
            .take_while(|&t| t < end || upto_end && t == end)
            .count() as u64
    };
    let flushes: u64 = (1..=cfg.producers.min(8) as u64)
        .filter(|phase| 25_000 * phase < end)
        .map(|phase| ticks(25_000 * phase, 200_000, false))
        .sum();
    let window = cfg.window.as_micros();
    flushes + ticks(100_000, 100_000, false) + ticks(window, window, true) + cfg.churn.len() as u64
}

/// The fleet engine's event count grows with simulated time, not with the
/// fleet: 8 and 2 000 producers over the same run fire the same events, one
/// a flush phase tick, consume tick, window close and churn step.
#[test]
fn fleet_events_scale_with_time_not_tenants() {
    for strategy in STRATEGIES {
        let fleet = |producers| FleetConfig {
            producers,
            ..pinned_fleet(strategy)
        };
        let want = events_of(&fleet(8));
        assert_eq!(want, 799 + 199 + 4 + 2);
        for producers in [8, 2_000] {
            let o = FleetRun::new(fleet(producers), 7).execute();
            assert_eq!(o.events_fired, want, "{strategy:?}, {producers} producers");
        }
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
        assert_eq!(assert_terminates_and_conserves(&cfg).rebalances.len(), 2);
    }
}

/// The network loses every message: each flush takes the path that
/// appends nothing, and no partition is ever touched.
#[test]
fn fleet_that_loses_every_message() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            base_loss: 1.0,
            ..FleetConfig::default()
        };
        let outcome = assert_terminates_and_conserves(&cfg);
        assert!(outcome.totals.produced > 0);
        assert_eq!(outcome.totals.lost_network, outcome.totals.produced);
    }
}

/// All four consumers leave, one a second from 6 s: from 9 s no partition
/// has an owner, so nothing is consumed and the backlog only grows. Two
/// classes, so that locality routes differently from key-hash.
fn emptied_group(strategy: PartitionStrategy) -> FleetConfig {
    FleetConfig {
        strategy,
        population: Population::new(vec![class("slow", 0.7, 3.0), class("fast", 4.0, 1.0)])
            .expect("valid mix"),
        churn: (0..4)
            .map(|member| ChurnEvent {
                at: SimTime::from_secs(6 + u64::from(member)),
                action: ChurnAction::Leave,
                member,
            })
            .collect(),
        ..FleetConfig::default()
    }
}

/// `emptied_group`, then a new consumer joins the empty group at 17 s.
fn rejoined_group(strategy: PartitionStrategy) -> FleetConfig {
    let mut cfg = emptied_group(strategy);
    cfg.churn.push(ChurnEvent {
        at: SimTime::from_secs(17),
        action: ChurnAction::Join,
        member: 7,
    });
    cfg
}

/// Churn that empties the consumer group: the leave of the last member is
/// a rebalance to no members that moves nothing, every window closed while
/// the group is empty counts no members, and the backlog grows through them.
#[test]
fn fleet_whose_churn_empties_the_group() {
    let want = [EMPTIED_ROUND_ROBIN, EMPTIED_KEY_HASH, EMPTIED_LOCALITY];
    for ((strategy, want), leaves) in STRATEGIES.into_iter().zip(want).zip(EMPTIED_LEAVES) {
        let o = assert_terminates_and_conserves(&emptied_group(strategy));
        let last = o.rebalances.last().expect("four leaves rebalance");
        assert_eq!(o.rebalances.len(), 4, "{strategy:?}");
        assert!(last.members.is_empty() && last.moved.is_empty(), "{last:?}");
        // One row a cohort a window; the backlog is the fleet's, so one
        // cohort's rows see all of it.
        let empty: Vec<_> = (o.windows.rows.iter())
            .filter(|r| r.window >= 1 && r.cohort == "slow")
            .collect();
        assert!(empty.iter().all(|r| r.group_members == 0), "{strategy:?}");
        assert!(
            empty.windows(2).all(|w| w[0].backlog < w[1].backlog),
            "{strategy:?}: nothing drains an empty group"
        );
        assert_leaves(&o, leaves, strategy);
        assert_eq!(fleet_pin(&o), want, "{strategy:?}");
    }
}

/// A consumer joining the emptied group takes every partition in one
/// rebalance, and once the hand-off pause is over it drains the backlog the
/// empty group left.
#[test]
fn fleet_whose_emptied_group_recovers_on_a_rejoin() {
    let want = [REJOINED_ROUND_ROBIN, REJOINED_KEY_HASH, REJOINED_LOCALITY];
    for ((strategy, want), leaves) in STRATEGIES.into_iter().zip(want).zip(REJOINED_LEAVES) {
        let cfg = rejoined_group(strategy);
        let o = assert_terminates_and_conserves(&cfg);
        assert_eq!(o.rebalances.len(), 5, "{strategy:?}");
        let (emptied, rejoined) = (&o.rebalances[3], &o.rebalances[4]);
        assert!(emptied.members.is_empty(), "{emptied:?}");
        assert_eq!(rejoined.members, vec![7]);
        assert_eq!(rejoined.moved, (0..cfg.partitions).collect::<Vec<_>>());
        // The window closed at 15 s, empty since 9 s, and the last one.
        let peak = o.windows.rows.iter().find(|r| r.window == 2).unwrap();
        let end = o.windows.rows.last().unwrap();
        assert_eq!((peak.group_members, end.group_members), (0, 1));
        assert!(
            end.backlog * 4 < peak.backlog,
            "{strategy:?}: backlog {} at 15 s, {} at the end",
            peak.backlog,
            end.backlog
        );
        assert_leaves(&o, leaves, strategy);
        assert_eq!(fleet_pin(&o), want, "{strategy:?}");
    }
}

/// Ten messages a flush against a burst bucket of one token: every append
/// is accepted in part, the rest of the flush is overload loss.
#[test]
fn fleet_with_flushes_larger_than_the_burst_bucket() {
    for strategy in STRATEGIES {
        let cfg = FleetConfig {
            strategy,
            population: Population::new(vec![class("hot", 50.0, 1.0)]).expect("valid mix"),
            partition_capacity_hz: 4.0,
            ..FleetConfig::default()
        };
        let totals = assert_terminates_and_conserves(&cfg).totals;
        assert!(totals.delivered > 0 && totals.lost_overload > totals.delivered);
    }
}

/// Every source message is accounted for exactly once and every loss
/// carries a cause.
fn assert_conserves_and_attributes(report: &kafkasim::audit::DeliveryReport, case: &str) {
    assert_eq!(report.n_source, 500, "{case}");
    assert_eq!(
        report.delivered_once + report.lost + report.duplicated,
        report.n_source,
        "{case}"
    );
    assert_eq!(
        report.loss_reasons.values().sum::<u64>(),
        report.lost,
        "{case}"
    );
}

/// The per-message engine on scenarios where nothing can be delivered:
/// the call returns, every source message is accounted for exactly once,
/// every loss carries a cause, and the causes are the ones the semantics
/// can produce — a silent reset loss or an expiry under at-most-once,
/// exhausted retries or an expiry under at-least-once.
#[test]
fn per_message_engine_terminates_and_conserves_when_nothing_gets_through() {
    use kafkasim::audit::LossReason;
    let every_packet_lost = ExperimentPoint {
        loss_rate: 1.0,
        ..ExperimentPoint::default()
    };
    let scenarios = [
        ("L = 100 %, paced", every_packet_lost.clone()),
        (
            "L = 100 %, full load",
            ExperimentPoint {
                poll_interval: SimDuration::ZERO,
                ..every_packet_lost
            },
        ),
        (
            "T_o = 1 ms",
            ExperimentPoint {
                message_timeout: SimDuration::from_millis(1),
                ..ExperimentPoint::default()
            },
        ),
        (
            "T_o = 20 ms < δ, D = 100 ms",
            ExperimentPoint {
                delay: SimDuration::from_millis(100),
                message_timeout: SimDuration::from_millis(20),
                ..ExperimentPoint::default()
            },
        ),
    ];
    let cal = Calibration::paper();
    for (name, point) in scenarios {
        for (semantics, allowed) in [
            (
                DeliverySemantics::AtMostOnce,
                [LossReason::ConnectionReset, LossReason::ExpiredInBuffer],
            ),
            (
                DeliverySemantics::AtLeastOnce,
                [LossReason::RetriesExhausted, LossReason::ExpiredInBuffer],
            ),
        ] {
            let point = ExperimentPoint {
                semantics,
                ..point.clone()
            };
            let report = point.run(&cal, 500, 5).report;
            let case = format!("{name}, {semantics:?}: {report:?}");
            assert_conserves_and_attributes(&report, &case);
            assert_eq!(report.delivered_once, 0, "{case}");
            assert!(
                report.loss_reasons.keys().all(|r| allowed.contains(r)),
                "{case}"
            );
        }
    }
}

/// Zero bandwidth is not a scenario: `RunSpec::validate` refuses a link
/// rate that is zero, negative or not finite and names the field, where
/// `execute` used to panic inside `Link::new`. The nearest valid scenario,
/// a link of one byte a second, is degenerate the way nothing getting
/// through is: the call returns, every source message is accounted for
/// exactly once, every loss carries a cause, and what is delivered is the
/// one request each connection had serialised before its queue filled.
#[test]
fn zero_bandwidth_is_refused_and_a_starved_link_terminates_and_conserves() {
    let cal = Calibration::paper();
    let with_rate = |semantics, rate| {
        let point = ExperimentPoint {
            semantics,
            ..ExperimentPoint::default()
        };
        let mut spec = point.to_run_spec(&cal, 500);
        spec.channel.link.rate_bytes_per_sec = rate;
        spec
    };
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ] {
        for rate in [0.0, -12.5e6, f64::NAN, f64::INFINITY] {
            let err = with_rate(semantics, rate).validate().unwrap_err();
            assert!(err.contains("channel.link.rate_bytes_per_sec"), "{err}");
        }
        let spec = with_rate(semantics, 1.0);
        spec.validate().expect("a slow link is a valid one");
        let report = KafkaRun::new(spec, 5).execute().report;
        let case = format!("{semantics:?}: {report:?}");
        assert_conserves_and_attributes(&report, &case);
        assert!(report.lost > report.n_source * 9 / 10, "{case}");
    }
}

/// A replication factor above the broker count is refused by
/// `RunSpec::validate`, naming the field; at the broker count it is valid.
#[test]
fn replication_factor_beyond_the_brokers_is_refused() {
    let mut spec = RunSpec::default();
    spec.cluster.brokers = 2;
    spec.cluster.replication.factor = 3;
    let err = spec.validate().unwrap_err();
    assert!(err.contains("cluster.replication.factor"), "{err}");
    spec.cluster.replication.factor = 2;
    spec.validate()
        .expect("a factor equal to the broker count is valid");
}

/// Every broker down from the first instant to the end of the horizon:
/// no request is ever answered or appended. The call returns, every source
/// message is lost exactly once, and every loss carries a cause.
#[test]
fn every_broker_down_for_the_whole_run_terminates_conserves_and_attributes() {
    let cal = Calibration::paper();
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ] {
        let point = ExperimentPoint {
            semantics,
            ..ExperimentPoint::default()
        };
        let mut spec = point.to_run_spec(&cal, 500);
        spec.faults = (0..spec.cluster.brokers)
            .map(|b| BrokerFault::crash(BrokerId(b), SimTime::ZERO, spec.max_duration))
            .collect();
        spec.validate()
            .expect("a cluster that never comes up is valid");
        let report = KafkaRun::new(spec, 5).execute().report;
        let case = format!("{semantics:?}: {report:?}");
        assert_conserves_and_attributes(&report, &case);
        assert_eq!(report.lost, report.n_source, "{case}");
    }
}

/// `pinned_run`'s at-least-once run with NetEm jitter: each packet's
/// propagation delay is drawn from a normal around 50 ms (σ = 20 ms), so
/// segments and ACKs overtake one another on the wire (the receivers
/// stash about twice the out-of-order segments of the unjittered run,
/// where only loss leaves gaps) and the channels' queues place arrivals
/// behind later-sent ones. No other golden and no benchmark workload
/// reorders packets.
fn jittered_run() -> RunSpec {
    RunSpec {
        network: ConditionTimeline::constant(
            NetCondition::new(SimDuration::from_millis(50), 0.22)
                .with_jitter(SimDuration::from_millis(20)),
        ),
        ..pinned_run(DeliverySemantics::AtLeastOnce)
    }
}

#[test]
fn jittered_run_outcome_is_pinned() {
    let outcome = KafkaRun::new(jittered_run(), 11).execute();
    assert_eq!((outcome.events_fired, debug_digest(&outcome)), RUN_JITTERED);
}

// Written by the parent commit (desim's `MinQueue` a bare 4-ary heap).
const RUN_JITTERED: (u64, u64) = (11_576, 12578257555607608498);
