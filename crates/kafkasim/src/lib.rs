//! `kafkasim` — a discrete-event simulated Apache Kafka.
//!
//! The paper ("Learning to Reliably Deliver Streaming Data with Apache
//! Kafka", DSN 2020) measures two reliability metrics of a Kafka producer —
//! the probability of message loss `P_l` and of message duplication `P_d` —
//! on a Docker testbed. This crate replaces the Docker testbed with a
//! protocol-level simulation that exercises exactly the message state
//! machine the paper analyses (its Fig. 2 / Table I):
//!
//! * a **producer** ([`producer`]) with the paper's configurable features:
//!   delivery semantics (`acks=0` at-most-once, `acks=1` at-least-once,
//!   and — beyond the paper — `acks=all`), batch size `B`, polling
//!   interval `δ`, message timeout `T_o`, retries `τ_r`, plus request
//!   timeouts and in-flight limits;
//! * **brokers** ([`broker`]) with per-partition append-only logs
//!   ([`log`]), organised into a [`cluster`] with intra-cluster
//!   **replication**: follower fetch rounds, an in-sync replica set with
//!   `replica.lag.time.max` eviction, and clean vs unclean leader
//!   elections ([`cluster::ReplicationSpec`]);
//! * a **consumer + audit** ([`consumer`], [`audit`]) that replays the
//!   paper's methodology: compare the unique keys of the source stream with
//!   the keys found in the topic, count `N_l` and `N_d`, and classify every
//!   message into one of Table I's five delivery cases;
//! * a **runtime** ([`runtime`]): one deterministic event loop over the
//!   producer, a [`netsim::DuplexChannel`] per broker and the cluster, one
//!   module per seam (sender, connection, brokers, online control), with
//!   NetEm-style faults from a [`netsim::ConditionTimeline`], broker
//!   crash/restart/flapping ([`runtime::BrokerFault`]) and mid-run
//!   reconfiguration (the paper's §V dynamic configuration);
//! * **observability** — the runtime is instrumented with [`obs`]
//!   lifecycle trace events ([`runtime::KafkaRun::execute_traced`]), and
//!   [`explain`] cross-checks a reconstructed trace against the audit so
//!   every lost or duplicated message has a concrete traced cause;
//! * a **fleet layer** ([`fleet`]) that scales from one producer to
//!   populations of thousands: weighted stream-class mixes, pluggable
//!   partitioners (round-robin / key-hash / locality), consumer groups
//!   with join/leave churn and range/sticky rebalancing, and per-tenant
//!   loss/duplication ledgers that sum exactly to the fleet totals.
//!
//! # Example
//!
//! ```
//! use kafkasim::config::{DeliverySemantics, ProducerConfig};
//! use kafkasim::runtime::{KafkaRun, RunSpec};
//! use kafkasim::source::SourceSpec;
//!
//! let spec = RunSpec {
//!     producer: ProducerConfig::builder()
//!         .semantics(DeliverySemantics::AtLeastOnce)
//!         .batch_size(4)
//!         .build()
//!         .unwrap(),
//!     source: SourceSpec::fixed_rate(1_000, 200, 500.0),
//!     ..RunSpec::default()
//! };
//! let outcome = KafkaRun::new(spec, 42).execute();
//! assert_eq!(outcome.report.n_source, 1_000);
//! assert!(outcome.report.p_loss() < 0.05, "clean network loses almost nothing");
//! ```
//!
//! # Example: replication rides out a broker crash
//!
//! With a replication factor above one, `acks=all` holds producer acks
//! until every in-sync replica has the records, so a crash of the leader
//! followed by a *clean* election (a fully-caught-up ISR member takes
//! over) loses nothing:
//!
//! ```
//! use desim::{SimDuration, SimTime};
//! use kafkasim::broker::BrokerId;
//! use kafkasim::config::{DeliverySemantics, ProducerConfig};
//! use kafkasim::runtime::{BrokerFault, KafkaRun, RunSpec};
//! use kafkasim::source::SourceSpec;
//!
//! let mut spec = RunSpec {
//!     source: SourceSpec::fixed_rate(500, 200, 100.0),
//!     ..RunSpec::default()
//! };
//! spec.cluster.partitions = 1;
//! spec.cluster.replication.factor = 3;
//! spec.producer = ProducerConfig::builder()
//!     .semantics(DeliverySemantics::All)
//!     .max_in_flight(64)
//!     .build()
//!     .unwrap();
//! spec.faults = vec![BrokerFault::crash(
//!     BrokerId(0),
//!     SimTime::from_secs(2),
//!     SimDuration::from_secs(2),
//! )];
//! spec.failover_after = Some(SimDuration::from_millis(500));
//!
//! let outcome = KafkaRun::new(spec, 7).execute();
//! assert_eq!(outcome.brokers.clean_elections, 1);
//! assert_eq!(outcome.report.lost, 0, "acks=all + clean election loses nothing");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod broker;
pub mod cluster;
pub mod config;
pub mod consumer;
pub mod explain;
pub mod fleet;
pub mod log;
pub mod message;
pub mod producer;
pub mod runtime;
pub mod source;
pub mod state;
pub mod wire;

pub use audit::{DeliveryReport, LossReason};
pub use config::ConfigError;
pub use explain::crosscheck;
pub use runtime::RunOutcome;
