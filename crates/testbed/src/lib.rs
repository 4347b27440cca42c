//! `testbed` — the experiment harness of the reproduction.
//!
//! Mirrors the paper's testbed methodology (§III-E/F) on top of the
//! simulated stack: each experiment starts a **fresh** cluster and topic,
//! feeds `N` uniquely-keyed messages through the producer while network
//! faults are injected, drains, and audits — yielding one `(features →
//! P_l, P_d)` data point.
//!
//! Modules:
//!
//! * [`calibration`] — the frozen "fixed hardware" constants shared by every
//!   experiment (host cost model, link, TCP, cluster, protocol sizing).
//! * [`experiment`] — [`experiment::ExperimentPoint`]: the paper's feature
//!   tuple `(M, S, D, L, semantics, B, δ, T_o)` — extended beyond the
//!   paper with a replication factor, an injected broker-crash downtime
//!   and an unclean-election switch — and its execution.
//! * [`sweep`] — parallel execution of experiment grids.
//! * [`dataset`] — persistence of collected results with provenance.
//! * [`sensitivity`] — the §III-D ±50 % feature-selection analysis.
//! * [`scenarios`] — the three Table II application workloads (social-media
//!   messages, web-server access records, game traffic) with their KPI
//!   weights.
//! * [`dynamic`] — the §V dynamic-configuration experiment: replay a Fig. 9
//!   network trace against a [`dynamic::ConfigPlanner`] and compare against
//!   the static default configuration.
//!
//! # Example
//!
//! ```
//! use testbed::experiment::ExperimentPoint;
//! use testbed::calibration::Calibration;
//!
//! let cal = Calibration::paper();
//! let point = ExperimentPoint {
//!     replication_factor: 3,
//!     ..ExperimentPoint::default()
//! };
//! let result = point.run(&cal, 500, 42);
//! assert_eq!(result.report.n_source, 500);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod calibration;
pub mod dataset;
pub mod dynamic;
pub mod experiment;
pub mod scenarios;
pub mod sensitivity;
pub mod sweep;

pub use calibration::Calibration;
pub use experiment::ExperimentResult;
