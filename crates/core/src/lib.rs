//! `kafka-predict` — reliability prediction and configuration tuning for
//! Kafka producers.
//!
//! This crate is the reproduction's implementation of the paper's primary
//! contribution ("Learning to Reliably Deliver Streaming Data with Apache
//! Kafka", DSN 2020): given the stream type (message size `M`, timeliness
//! `S`), the network condition (delay `D`, loss rate `L`) and the producer
//! configuration (delivery semantics, batch size `B`, polling interval
//! `δ`, message timeout `T_o`), predict the two reliability metrics
//!
//! ```text
//! {P̂_l, P̂_d} = f(M, S, D, L, Confs)            (Eq. 1)
//! ```
//!
//! with an artificial neural network, combine them with the performance
//! metrics of the simulated producer's host and wire model into the
//! weighted KPI
//!
//! ```text
//! γ = ω₁·φ + ω₂·μ + ω₃·(1 − P_l) + ω₄·(1 − P_d)   (Eq. 2)
//! ```
//!
//! and select configurations by stepwise search until γ meets the user's
//! requirement (§V).
//!
//! Modules:
//!
//! * [`features`] — the feature vector, its Fig. 3 value ranges and the
//!   fixed min–max scaling derived from them;
//! * [`model`] — [`ReliabilityModel`]: one ANN head per delivery semantics
//!   (at-most-once predicts only `P_l`; at-least-once predicts `P_l` and
//!   `P_d`), exactly as §III-G prescribes;
//! * [`train`] — the training pipeline from testbed experiment results,
//!   with held-out MAE evaluation (the paper reports MAE < 0.02);
//! * [`kpi`] — Eq. 2 evaluation, with `φ` and `μ` read from kafkasim's
//!   `HostModel` and `WireFormat` (the crate-private `bandwidth` and
//!   `service` modules hold the two terms' formulas);
//! * [`recommend`] — the §V stepwise configuration search;
//! * [`planner`] — a [`testbed::dynamic::ConfigPlanner`] that drives the
//!   dynamic-configuration experiment from the trained model;
//! * [`online`] — the *online* controller the paper deferred to future
//!   work: it estimates the network from the producer's own counters and
//!   reconfigures via the same KPI search — the one planning loop;
//! * [`policy`] — control plane v2: [`policy::Policy`], the run loop's
//!   `OnlineController` plus a kind, a model generation and a γ trace,
//!   with the frozen planner and an online-adaptive policy (drift
//!   detection + incremental refits) over that loop and a UCB1 bandit
//!   baseline beside it.
//!
//! # Example
//!
//! ```
//! use kafka_predict::prelude::*;
//! use kafkasim::config::DeliverySemantics;
//!
//! // A tiny model trained on a tiny grid — enough to smoke-test the API.
//! let cal = Calibration::paper();
//! let results = quick_grid(&cal, 200, 3);
//! let mut options = TrainOptions::fast();
//! options.test_fraction = 0.25;
//! let trained = train_model(&results, &options, 7).unwrap();
//! let features = Features {
//!     semantics: DeliverySemantics::AtLeastOnce,
//!     ..Features::default()
//! };
//! let p = trained.model.predict(&features);
//! assert!((0.0..=1.0).contains(&p.p_loss));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bandwidth;
pub mod features;
pub mod kpi;
pub mod model;
pub mod online;
pub mod planner;
pub mod policy;
pub mod recommend;
mod service;
pub mod train;

/// Convenient glob import of the main types.
pub mod prelude {
    pub use crate::features::Features;
    pub use crate::kpi::{fleet_gammas, KpiModel};

    pub use crate::model::{Predictor, ReliabilityModel};
    pub use crate::online::OnlineModelController;

    pub use crate::planner::{ModelPlanner, PlannerMode};
    pub use crate::policy::{
        AdaptiveConfig, BanditConfig, BanditPolicy, FrozenPolicy, GammaSample,
        OnlineAdaptivePolicy, Policy,
    };

    pub use crate::recommend::{Recommender, SearchSpace};
    pub use crate::train::{quick_grid, train_model, TrainOptions, TrainedModel};
    pub use testbed::calibration::Calibration;
}

pub use features::Features;
pub use model::{Prediction, Predictor, ReliabilityModel};
pub use policy::{
    AdaptiveConfig, BanditConfig, BanditPolicy, FrozenPolicy, GammaSample, OnlineAdaptivePolicy,
    Policy,
};
pub use train::{train_model, TrainOptions, TrainedModel};
