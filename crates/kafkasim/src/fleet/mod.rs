//! Fleet-scale simulation: producer populations, consumer groups, and
//! rebalancing.
//!
//! The protocol-level simulator ([`crate::runtime`]) models *one*
//! producer in wire-level detail; this module models *many* — the fleets
//! the paper's reliability model is ultimately meant to serve. A fleet
//! run instantiates:
//!
//! * a **population** ([`Population`]) of N producers drawn from a
//!   weighted mix of stream classes (the paper's Table II workloads),
//!   apportioned deterministically (largest-remainder, interleaved);
//! * a partitioned topic with **keyed routing** under a pluggable
//!   [`Partitioner`] — round-robin, key-hash, or the locality strategy
//!   after Raptis & Passarella ([`PartitionStrategy`]) — the sweep axis
//!   that makes partition *skew* visible;
//! * a **consumer group** with scripted join/leave churn and
//!   deterministic rebalance under range or sticky assignment
//!   ([`GroupCoordinator`], [`Assignor`]), whose ownership moves are the
//!   "rebalance storms" the fleet figure plots;
//! * **per-tenant reliability accounting** ([`TenantLedger`]): every
//!   message of every producer is attributed to delivered, network loss,
//!   overload loss, or duplicate — and the per-tenant ledgers sum
//!   exactly to the fleet totals.
//!
//! The engine ([`FleetRun`]) emits `obs` consumer-group trace events
//! and a windowed per-tenant KPI series ([`obs::TenantSeries`]); runs
//! are bit-identical at a fixed seed. See `DESIGN.md` §6 for the
//! architecture.
//!
//! # Example
//!
//! ```
//! use desim::SimTime;
//! use kafkasim::fleet::{ChurnAction, ChurnEvent, FleetConfig, FleetRun};
//!
//! let mut cfg = FleetConfig::default();
//! cfg.churn = vec![ChurnEvent {
//!     at: SimTime::from_secs(10),
//!     action: ChurnAction::Join,
//!     member: 4,
//! }];
//! let outcome = FleetRun::new(cfg, 42).execute();
//! assert_eq!(outcome.rebalances.len(), 1, "the join rebalanced the group");
//! assert_eq!(
//!     outcome.totals.produced,
//!     outcome.totals.delivered + outcome.totals.lost(),
//! );
//! ```

mod engine;
mod group;
mod partition;
mod population;

pub use engine::{
    ChurnAction, ChurnEvent, ClassSummary, FleetConfig, FleetOutcome, FleetRun, FleetTotals,
    RebalanceRecord, TenantLedger,
};
pub use group::{Assignor, GroupCoordinator, Rebalance};
pub use partition::{PartitionStrategy, Partitioner};
pub use population::{Population, PopulationEntry, StreamClass};
