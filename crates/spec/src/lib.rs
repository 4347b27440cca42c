//! `spec` — declarative scenario documents for the experiment pipeline.
//!
//! One typed document ([`Spec`]) describes a complete experiment of the
//! paper reproduction — workload (message sizes, rates, Table II
//! streams), network (constant NetEm conditions, Pareto + Gilbert–Elliott
//! generated traces), cluster (brokers, replication, fault injection),
//! the producer-configuration grid ([`ConfigGrid`], the single source of
//! the §V search space), KPI weights, seeds and sweep axes — and loads
//! from TOML or JSON with **field-path validation errors**
//! (`SpecError`: `experiment.Sweep.base.loss_rate: loss rate must be
//! within [0, 1]`).
//!
//! The pipeline, end to end:
//!
//! ```text
//! scenarios/*.toml ──io::load──▶ Spec ──validate──▶ bench::exec ──▶ figure/table
//!        │                        ▲
//!        └─ include_str! ─ builtin┘   (the named `repro` targets: same files, embedded)
//! ```
//!
//! * [`document`] — the [`Spec`] / [`ExperimentSpec`] types;
//! * `point` — the serializable operating point ([`PointSpec`]);
//! * [`grid`] — [`GridAxis`] and [`ConfigGrid`] (every parameter grid in
//!   the repository derives from these);
//! * [`collection`] — the Fig. 3 training-data collection design;
//! * [`builtin`] — the committed corpus, embedded: one spec per `repro` target;
//! * [`io`] — TOML/JSON load + save (`LoadError`);
//! * `toml` — the self-contained TOML subset parser/writer.
//!
//! # Example
//!
//! ```
//! use spec::{ExperimentSpec, Spec};
//!
//! let doc = Spec::builtin("fig4").expect("built-in scenario");
//! doc.validate().expect("corpus is valid");
//! let text = spec::io::to_toml_string(&doc);
//! let back = spec::io::from_toml_str(&text).expect("round-trips");
//! assert_eq!(back, doc);
//! assert!(matches!(back.experiment, ExperimentSpec::Sweep(_)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod builtin;
pub mod collection;
pub mod document;
pub mod error;
pub mod grid;
pub mod io;
pub(crate) mod point;
pub(crate) mod toml;

pub use collection::CollectionDesign;
pub use document::{
    AdaptiveConfig, BanditConfig, BrokerFaultMatrixSpec, ExperimentSpec, FleetPopulationEntry,
    FleetSpec, GroupChurnSpec, KpiGridSpec, NetworkTraceSpec, OnlineCompareSpec, OverlaySpec,
    PolicyKind, PolicySpec, RegimeShiftSpec, ReportSpec, SensitivitySpec, SeriesSpec, Spec,
    SweepAxis, SweepMode, SweepSpec, Table1Spec, Table2Spec, TraceDemoSpec, TraceScenarioSpec,
};
pub use grid::{ConfigGrid, GridAxis};
pub use point::PointSpec;
