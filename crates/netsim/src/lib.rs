//! `netsim` — the simulated network substrate of the Kafka-reliability
//! reproduction.
//!
//! The paper ("Learning to Reliably Deliver Streaming Data with Apache
//! Kafka", DSN 2020) runs a real Kafka cluster in Docker and injects network
//! faults with Linux **NetEm**; the shapes of its reliability curves are
//! driven by the interaction between Kafka's producer protocol and **TCP's**
//! retransmission behaviour under loss. This crate provides faithful,
//! deterministic stand-ins for both layers below Kafka:
//!
//! * [`link`] — a fluid model of a finite-rate, drop-tail link with a
//!   constant propagation delay and an i.i.d. packet loss rate.
//! * `netem` — NetEm-style conditions, one delay `D` and one loss rate `L`,
//!   which set the links' two values, and piecewise-constant timelines of
//!   them (the Fig. 9 network).
//! * [`tcp`] — a sans-IO TCP sender/receiver pair: cumulative ACKs, RTT
//!   estimation, RTO with exponential backoff, fast retransmit, slow start
//!   and AIMD congestion avoidance.
//! * [`channel`] — a full-duplex channel gluing two links and two TCP
//!   streams together, exposing record-oriented delivery with an internal
//!   event queue (`next_wakeup`/`advance`) so a discrete-event simulation
//!   can drive it deterministically.
//! * [`trace`] — the Fig. 9 generator: once per interval it samples a
//!   heavy-tailed **Pareto** delay and a loss level from a two-state
//!   **Gilbert–Elliott** chain. These processes live only here; no packet
//!   draws from them.
//!
//! # Example
//!
//! ```
//! use desim::{SimRng, SimTime};
//! use netsim::channel::{ChannelConfig, DuplexChannel, Endpoint};
//!
//! let mut ch = DuplexChannel::new(ChannelConfig::default(), SimRng::seed_from_u64(1));
//! let now = SimTime::ZERO;
//! ch.send_record(Endpoint::A, 0, 1_000, now).unwrap();
//! // Drive the channel to completion.
//! let mut delivered = Vec::new();
//! while let Some(t) = ch.next_wakeup() {
//!     for ev in ch.advance(t) {
//!         if let netsim::channel::ChannelEvent::RecordDelivered { id, .. } = ev {
//!             delivered.push(id);
//!         }
//!     }
//! }
//! assert_eq!(delivered, vec![0]);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod channel;
pub mod link;
pub(crate) mod netem;
pub mod tcp;
pub mod trace;

pub use channel::{ChannelConfig, ChannelEvent, DuplexChannel, Endpoint};
pub use netem::{ConditionTimeline, NetCondition};
