//! The weighted KPI of Eq. 2.
//!
//! `γ = ω₁·φ + ω₂·μ + ω₃·(1 − P_l) + ω₄·(1 − P_d)` with `Σωᵢ = 1`.
//! The performance metrics come from the simulated producer's own cost
//! model, standing in for the authors' queueing model (ref. \[6\]): `μ` is
//! the service rate of kafkasim's [`HostModel`] and `φ` the offered wire
//! traffic of its [`WireFormat`] over the link capacity. The reliability
//! metrics come from a [`Predictor`]. The paper's empirical default
//! weights are `(0.3, 0.3, 0.3, 0.1)` "since duplicated messages can be
//! tolerated by most applications due to idempotent mechanism".

use desim::SimDuration;
use kafkasim::config::HostModel;
use kafkasim::fleet::FleetOutcome;
use kafkasim::wire::WireFormat;
use serde::{Deserialize, Serialize};
use testbed::scenarios::{ApplicationScenario, KpiWeights};
use testbed::Calibration;

use crate::features::Features;
use crate::model::{Prediction, Predictor};
use crate::{bandwidth, service};

/// The four KPI ingredients for one configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KpiInputs {
    /// Bandwidth utilisation `φ ∈ [0, 1]`.
    pub phi: f64,
    /// Normalised service rate `μ ∈ [0, 1]`.
    pub mu: f64,
    /// Predicted `P_l`.
    pub p_loss: f64,
    /// Predicted `P_d`.
    pub p_dup: f64,
}

/// Computes Eq. 2 from calibration constants and a reliability predictor.
#[derive(Debug, Clone)]
pub struct KpiModel {
    host: HostModel,
    wire: WireFormat,
    link_capacity: f64,
    packet_header: f64,
    mss: f64,
}

impl KpiModel {
    /// Builds the KPI model from the testbed calibration.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated link capacity is not strictly positive.
    #[must_use]
    pub fn from_calibration(cal: &Calibration) -> Self {
        let link_capacity = cal.channel.link.rate_bytes_per_sec;
        assert!(link_capacity > 0.0, "link capacity must be positive");
        KpiModel {
            host: cal.host,
            wire: cal.wire,
            link_capacity,
            packet_header: cal.channel.tcp.header_bytes as f64,
            mss: cal.channel.tcp.mss as f64,
        }
    }

    /// Wire bytes per message: the request's bytes plus one TCP/IP header
    /// per `mss`-sized segment, amortised over the batch.
    fn wire_bytes_per_message(&self, features: &Features) -> f64 {
        let batch = features.batch_size.max(1);
        let request_bytes = self
            .wire
            .request_bytes_uniform(batch, features.message_size) as f64;
        bandwidth::wire_bytes_per_message(request_bytes, batch, self.packet_header, self.mss)
    }

    /// Computes the four ingredients for `features`, asking `predictor` for
    /// the reliability pair.
    #[must_use]
    pub fn inputs(&self, predictor: &dyn Predictor, features: &Features) -> KpiInputs {
        self.inputs_with(predictor.predict(features), features)
    }

    /// Computes the four ingredients from an already-obtained reliability
    /// `prediction` (the batched-inference path: predict once per batch,
    /// score each row with this method). Bit-identical to
    /// [`KpiModel::inputs`] given the prediction for `features`.
    #[must_use]
    pub fn inputs_with(&self, prediction: Prediction, features: &Features) -> KpiInputs {
        let mu = service::service_rate(&self.host, features.message_size, features.batch_size);
        // The arrival rate `δ` implies, bounded by the service rate: under
        // full load the producer saturates its own service rate.
        let rate = if features.poll_interval_ms <= 0.0 {
            mu
        } else {
            (1e3 / features.poll_interval_ms).min(mu)
        };
        KpiInputs {
            phi: bandwidth::utilisation(
                rate,
                self.wire_bytes_per_message(features),
                self.link_capacity,
            ),
            mu: service::normalized_rate(&self.host, mu),
            p_loss: prediction.p_loss,
            p_dup: prediction.p_dup,
        }
    }

    /// Evaluates `γ` for `features` under `weights`.
    #[must_use]
    pub fn gamma(
        &self,
        predictor: &dyn Predictor,
        features: &Features,
        weights: &KpiWeights,
    ) -> f64 {
        let i = self.inputs(predictor, features);
        weights.gamma(i.phi, i.mu, i.p_loss, i.p_dup)
    }

    /// Evaluates `γ` from an already-obtained reliability prediction.
    /// Bit-identical to [`KpiModel::gamma`] given the prediction for
    /// `features`.
    #[must_use]
    pub fn gamma_with(
        &self,
        prediction: Prediction,
        features: &Features,
        weights: &KpiWeights,
    ) -> f64 {
        let i = self.inputs_with(prediction, features);
        weights.gamma(i.phi, i.mu, i.p_loss, i.p_dup)
    }
}

/// The Eq. 2 KPI of one fleet tenant class against its Table II
/// requirement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TenantGamma {
    /// Stream-class slug (e.g. `"social-media"`).
    pub class: String,
    /// Achieved `γ` of the class over the run.
    pub gamma: f64,
    /// The `γ` the class demands (Table II's requirement; `0.8` for
    /// classes without a Table II entry).
    pub requirement: f64,
}

impl TenantGamma {
    /// Whether the class met its requirement.
    #[must_use]
    pub fn met(&self) -> bool {
        self.gamma >= self.requirement
    }
}

/// Evaluates Eq. 2 per tenant class of a fleet run.
///
/// The reliability pair is exact — `P_l` and `P_d` come straight from
/// the class's conserved ledger sums. The performance pair is a *proxy*
/// (the flow-level fleet engine has no per-class queueing model):
/// `φ` is the class's share of the topic's aggregate append capacity
/// (`delivered rate / (partitions × capacity)`), and `μ` is the
/// fraction of delivered records the consumer group had drained by the
/// end of the run (`1 − backlog/delivered`, read from the final KPI
/// window). Both are clamped to `[0, 1]`. EXPERIMENTS.md documents the
/// caveats.
///
/// Classes whose slug matches a Table II scenario use that scenario's
/// weights and γ requirement; others fall back to the paper's default
/// weights and a `0.8` requirement.
///
/// # Example
///
/// ```
/// use kafka_predict::fleet_gammas;
/// use kafkasim::fleet::{FleetConfig, FleetRun};
///
/// let cfg = FleetConfig::default();
/// let (capacity, duration, partitions) =
///     (cfg.partition_capacity_hz, cfg.duration, cfg.partitions);
/// let outcome = FleetRun::new(cfg, 42).execute();
/// let gammas = fleet_gammas(&outcome, partitions, capacity, duration);
/// assert_eq!(gammas.len(), outcome.classes.len());
/// assert!(gammas.iter().all(|g| (0.0..=1.0).contains(&g.gamma)));
/// ```
#[must_use]
pub fn fleet_gammas(
    outcome: &FleetOutcome,
    partitions: u32,
    partition_capacity_hz: f64,
    duration: SimDuration,
) -> Vec<TenantGamma> {
    let secs = duration.as_secs_f64();
    let topic_capacity = f64::from(partitions) * partition_capacity_hz;
    let backlog_end = outcome.windows.rows.last().map_or(0, |r| r.backlog) as f64;
    let delivered_total = outcome.totals.delivered as f64;
    let mu = if delivered_total > 0.0 {
        (1.0 - backlog_end / delivered_total).clamp(0.0, 1.0)
    } else {
        0.0
    };
    outcome
        .classes
        .iter()
        .map(|c| {
            let (weights, requirement) = match ApplicationScenario::by_slug(&c.class) {
                Some(s) => (s.weights, s.gamma_requirement),
                None => (KpiWeights::paper_default(), 0.8),
            };
            let produced = c.produced as f64;
            let (p_loss, p_dup) = if produced > 0.0 {
                (
                    (c.lost_network + c.lost_overload) as f64 / produced,
                    c.duplicated as f64 / produced,
                )
            } else {
                (0.0, 0.0)
            };
            let phi = if secs > 0.0 && topic_capacity > 0.0 {
                (c.delivered as f64 / secs / topic_capacity).clamp(0.0, 1.0)
            } else {
                0.0
            };
            TenantGamma {
                class: c.class.clone(),
                gamma: weights.gamma(phi, mu, p_loss, p_dup),
                requirement,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FnPredictor, Prediction};
    use kafkasim::fleet::{ClassSummary, FleetTotals};
    use obs::TenantSeries;

    fn oracle() -> FnPredictor<impl Fn(&Features) -> Prediction> {
        FnPredictor(|f: &Features| Prediction {
            p_loss: f.loss_rate,
            p_dup: 0.01,
        })
    }

    #[test]
    fn gamma_is_unit_bounded() {
        let kpi = KpiModel::from_calibration(&Calibration::paper());
        let weights = KpiWeights::paper_default();
        for loss in [0.0, 0.2, 0.5] {
            let f = Features {
                loss_rate: loss,
                ..Features::default()
            };
            let g = kpi.gamma(&oracle(), &f, &weights);
            assert!((0.0..=1.0).contains(&g), "γ = {g}");
        }
    }

    #[test]
    fn worse_reliability_lowers_gamma() {
        let kpi = KpiModel::from_calibration(&Calibration::paper());
        let weights = KpiWeights::paper_default();
        let clean = kpi.gamma(
            &oracle(),
            &Features {
                loss_rate: 0.0,
                ..Features::default()
            },
            &weights,
        );
        let lossy = kpi.gamma(
            &oracle(),
            &Features {
                loss_rate: 0.4,
                ..Features::default()
            },
            &weights,
        );
        assert!(lossy < clean);
    }

    #[test]
    fn batching_trades_mu_for_phi() {
        let kpi = KpiModel::from_calibration(&Calibration::paper());
        let single = kpi.inputs(&oracle(), &Features::default());
        let batched = kpi.inputs(
            &oracle(),
            &Features {
                batch_size: 10,
                ..Features::default()
            },
        );
        // Batching amortises per-request CPU → higher normalised μ, and
        // fewer wire bytes per message → lower φ at the same rate.
        assert!(batched.mu > single.mu);
        assert!(batched.phi <= single.phi);
        let wire = |batch_size| {
            kpi.wire_bytes_per_message(&Features {
                message_size: 100,
                batch_size,
                ..Features::default()
            })
        };
        // One segment: 94 + 140 request bytes and a 66-byte header. Payload
        // and record overhead (140 bytes) are the irreducible floor.
        assert_eq!(wire(1), 300.0);
        assert!(wire(10) < wire(1) && wire(10) > 140.0);
    }

    #[test]
    fn phi_grows_with_rate_and_clamps_to_one() {
        let mut cal = Calibration::paper();
        let phi = |cal: &Calibration, poll_interval_ms| {
            let f = Features {
                poll_interval_ms,
                ..Features::default()
            };
            KpiModel::from_calibration(cal).inputs(&oracle(), &f).phi
        };
        assert!(phi(&cal, 1_000.0) < phi(&cal, 100.0));
        assert!(phi(&cal, 100.0) < phi(&cal, 10.0) && phi(&cal, 10.0) < 1.0);
        cal.channel.link.rate_bytes_per_sec = 1.0;
        assert_eq!(phi(&cal, 10.0), 1.0);
    }

    #[test]
    #[should_panic(expected = "link capacity must be positive")]
    fn zero_link_capacity_is_refused() {
        let mut cal = Calibration::paper();
        cal.channel.link.rate_bytes_per_sec = 0.0;
        let _ = KpiModel::from_calibration(&cal);
    }

    #[test]
    fn full_load_caps_rate_at_service_rate() {
        let kpi = KpiModel::from_calibration(&Calibration::paper());
        let full = Features {
            poll_interval_ms: 0.0,
            ..Features::default()
        };
        let throttled = Features {
            poll_interval_ms: 1_000.0,
            ..Features::default()
        };
        let phi_full = kpi.inputs(&oracle(), &full).phi;
        let phi_throttled = kpi.inputs(&oracle(), &throttled).phi;
        assert!(phi_full >= phi_throttled);
    }

    fn synthetic_outcome() -> FleetOutcome {
        FleetOutcome {
            tenants: vec![],
            totals: FleetTotals {
                produced: 1_000,
                delivered: 950,
                lost_network: 30,
                lost_overload: 20,
                duplicated: 10,
            },
            classes: vec![
                ClassSummary {
                    class: "social-media".into(),
                    producers: 10,
                    produced: 600,
                    delivered: 570,
                    lost_network: 20,
                    lost_overload: 10,
                    duplicated: 5,
                },
                ClassSummary {
                    class: "bespoke".into(),
                    producers: 5,
                    produced: 400,
                    delivered: 380,
                    lost_network: 10,
                    lost_overload: 10,
                    duplicated: 5,
                },
            ],
            partition_appends: vec![500, 450],
            rebalances: vec![],
            windows: TenantSeries::new(SimDuration::from_secs(5)),
            events_fired: 0,
        }
    }

    #[test]
    fn fleet_gammas_use_table2_requirements_and_exact_reliability() {
        let out = synthetic_outcome();
        let gammas = fleet_gammas(&out, 2, 100.0, SimDuration::from_secs(10));
        assert_eq!(gammas.len(), 2);
        let social = &gammas[0];
        assert_eq!(social.class, "social-media");
        assert_eq!(social.requirement, 0.80);
        // Exact reliability pair; empty series → zero backlog → μ = 1;
        // φ = 570 delivered / 10 s / 200 msg/s topic capacity.
        let w = ApplicationScenario::social_media().weights;
        let expect = w.gamma(570.0 / 10.0 / 200.0, 1.0, 30.0 / 600.0, 5.0 / 600.0);
        assert!((social.gamma - expect).abs() < 1e-12);
        // Unknown class falls back to the defaults.
        assert_eq!(gammas[1].requirement, 0.8);
        assert_eq!(gammas[1].met(), gammas[1].gamma >= 0.8);
    }

    #[test]
    fn fleet_gammas_are_unit_bounded_on_a_real_run() {
        use kafkasim::fleet::{FleetConfig, FleetRun};
        let cfg = FleetConfig::default();
        let (partitions, cap, dur) = (cfg.partitions, cfg.partition_capacity_hz, cfg.duration);
        let out = FleetRun::new(cfg, 3).execute();
        let gammas = fleet_gammas(&out, partitions, cap, dur);
        assert!(!gammas.is_empty());
        for g in &gammas {
            assert!(
                (0.0..=1.0).contains(&g.gamma),
                "{}: γ = {}",
                g.class,
                g.gamma
            );
        }
    }

    #[test]
    fn weights_shift_the_tradeoff() {
        let kpi = KpiModel::from_calibration(&Calibration::paper());
        let f = Features {
            loss_rate: 0.3,
            ..Features::default()
        };
        let loss_averse = KpiWeights::new(0.05, 0.05, 0.85, 0.05).unwrap();
        let perf_hungry = KpiWeights::new(0.45, 0.45, 0.05, 0.05).unwrap();
        let g_averse = kpi.gamma(&oracle(), &f, &loss_averse);
        let g_hungry = kpi.gamma(&oracle(), &f, &perf_hungry);
        // With 30% predicted loss, the loss-averse γ suffers more relative
        // to its clean-network value.
        let clean = Features {
            loss_rate: 0.0,
            ..Features::default()
        };
        let drop_averse = kpi.gamma(&oracle(), &clean, &loss_averse) - g_averse;
        let drop_hungry = kpi.gamma(&oracle(), &clean, &perf_hungry) - g_hungry;
        assert!(drop_averse > drop_hungry);
    }
}
