//! The three Table II application scenarios.
//!
//! The dynamic-configuration evaluation (§V) runs three kinds of data
//! streams through the unstable Fig. 9 network:
//!
//! | Stream | Character | Weights ω (φ, μ, 1−P_l, 1−P_d) |
//! |---|---|---|
//! | Social-media messages | fast delivery, lowest loss | 0.4, 0.3, 0.2, 0.1 |
//! | Web-server access records | timeliness lax, completeness strict | 0.1, 0.1, 0.7, 0.1 |
//! | Game-traffic messages | tiny, real-time, accurate | 0.2, 0.4, 0.2, 0.2 |

use desim::{SimDuration, SimTime};
use kafkasim::source::{RateSpec, SizeSpec, SourceSpec};
use serde::{Deserialize, Serialize};

/// KPI weights `(ω₁, ω₂, ω₃, ω₄)` for `(φ, μ, 1−P_l, 1−P_d)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct KpiWeights {
    /// Weight of bandwidth utilisation `φ`.
    pub bandwidth: f64,
    /// Weight of service rate `μ`.
    pub service_rate: f64,
    /// Weight of `1 − P_l`.
    pub no_loss: f64,
    /// Weight of `1 − P_d`.
    pub no_duplicate: f64,
}

impl KpiWeights {
    /// Creates weights, checking they sum to 1.
    ///
    /// # Errors
    ///
    /// Returns an error message when any weight is negative or the sum is
    /// not 1 (within 1e-9).
    pub fn new(
        bandwidth: f64,
        service_rate: f64,
        no_loss: f64,
        no_duplicate: f64,
    ) -> Result<Self, String> {
        let w = [bandwidth, service_rate, no_loss, no_duplicate];
        if w.iter().any(|x| !x.is_finite() || *x < 0.0) {
            return Err("weights must be finite and non-negative".into());
        }
        let sum: f64 = w.iter().sum();
        if (sum - 1.0).abs() > 1e-9 {
            return Err(format!("weights must sum to 1 (got {sum})"));
        }
        Ok(KpiWeights {
            bandwidth,
            service_rate,
            no_loss,
            no_duplicate,
        })
    }

    /// The paper's empirical default `(0.3, 0.3, 0.3, 0.1)`.
    #[must_use]
    pub fn paper_default() -> Self {
        KpiWeights::new(0.3, 0.3, 0.3, 0.1).expect("valid by construction")
    }

    /// Evaluates Eq. 2: `γ = ω₁φ + ω₂μ + ω₃(1−P_l) + ω₄(1−P_d)`.
    #[must_use]
    pub fn gamma(&self, phi: f64, mu: f64, p_loss: f64, p_dup: f64) -> f64 {
        self.bandwidth * phi
            + self.service_rate * mu
            + self.no_loss * (1.0 - p_loss)
            + self.no_duplicate * (1.0 - p_dup)
    }
}

/// One Table II application scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplicationScenario {
    /// Human-readable name.
    pub name: String,
    /// Message-size model.
    pub size: SizeSpec,
    /// Timeliness requirement `S`.
    pub timeliness: SimDuration,
    /// KPI weights from Table II.
    pub weights: KpiWeights,
    /// Workload `λ(t)` breakpoints in messages/second.
    pub rate_timeline: Vec<(SimTime, f64)>,
    /// The minimum KPI `γ` the user demands of a configuration.
    pub gamma_requirement: f64,
}

impl ApplicationScenario {
    /// Social-media text messages: "must be delivered quickly with the
    /// lowest loss rate".
    #[must_use]
    pub fn social_media() -> Self {
        ApplicationScenario {
            name: "messages from social media".into(),
            size: SizeSpec::Uniform {
                low: 120,
                high: 400,
            },
            timeliness: SimDuration::from_secs(2),
            weights: KpiWeights::new(0.4, 0.3, 0.2, 0.1).expect("valid"),
            rate_timeline: bursty_rate(42.0, 16.0),
            gamma_requirement: 0.80,
        }
    }

    /// Web-server access records: "timeliness … is not strict but the
    /// messages are required to be complete, while duplicates can be
    /// acceptable due to idempotent processes".
    #[must_use]
    pub fn web_access_records() -> Self {
        ApplicationScenario {
            name: "web server access records".into(),
            size: SizeSpec::Fixed(200),
            timeliness: SimDuration::from_secs(30),
            weights: KpiWeights::new(0.1, 0.1, 0.7, 0.1).expect("valid"),
            rate_timeline: bursty_rate(30.0, 10.0),
            gamma_requirement: 0.85,
        }
    }

    /// Game-traffic messages: "small … delivered accurately in real-time".
    #[must_use]
    pub fn game_traffic() -> Self {
        ApplicationScenario {
            name: "game traffic messages".into(),
            size: SizeSpec::Uniform { low: 40, high: 100 },
            timeliness: SimDuration::from_millis(300),
            weights: KpiWeights::new(0.2, 0.4, 0.2, 0.2).expect("valid"),
            rate_timeline: bursty_rate(40.0, 12.0),
            gamma_requirement: 0.80,
        }
    }

    /// All three Table II scenarios, in the table's column order.
    #[must_use]
    pub fn table2() -> Vec<ApplicationScenario> {
        vec![
            ApplicationScenario::social_media(),
            ApplicationScenario::web_access_records(),
            ApplicationScenario::game_traffic(),
        ]
    }

    /// The scenario's stable kebab-case identifier, used by fleet
    /// population specs (`scenarios/fleet.toml`) to reference Table II
    /// classes by name.
    ///
    /// # Example
    ///
    /// The slug names the scenario's fleet stream class.
    ///
    /// ```
    /// use testbed::scenarios::ApplicationScenario;
    ///
    /// assert_eq!(ApplicationScenario::social_media().stream_class(1.0).name, "social-media");
    /// ```
    #[must_use]
    pub(crate) fn slug(&self) -> &'static str {
        // Matched on the human-readable name so the three constructors
        // stay the single source of truth.
        match self.name.as_str() {
            "messages from social media" => "social-media",
            "web server access records" => "web-access-records",
            "game traffic messages" => "game-traffic",
            _ => "custom",
        }
    }

    /// Looks a Table II scenario up by its `slug`.
    ///
    /// # Example
    ///
    /// ```
    /// use testbed::scenarios::ApplicationScenario;
    ///
    /// let game = ApplicationScenario::by_slug("game-traffic").unwrap();
    /// assert!(game.mean_size() < 100);
    /// assert!(ApplicationScenario::by_slug("nope").is_none());
    /// ```
    #[must_use]
    pub fn by_slug(slug: &str) -> Option<ApplicationScenario> {
        ApplicationScenario::table2()
            .into_iter()
            .find(|s| s.slug() == slug)
    }

    /// Projects the scenario into a fleet [`kafkasim::fleet::StreamClass`] at the given
    /// per-producer rate.
    ///
    /// A Table II scenario describes *one aggregate stream* (its
    /// `rate_timeline` peaks around 40–55 msg/s); a fleet splits that
    /// stream across many small producers, so the per-producer rate is a
    /// separate knob supplied by the fleet spec.
    ///
    /// # Example
    ///
    /// ```
    /// use testbed::scenarios::ApplicationScenario;
    ///
    /// let class = ApplicationScenario::social_media().stream_class(1.5);
    /// assert_eq!(class.name, "social-media");
    /// assert_eq!(class.rate_hz, 1.5);
    /// ```
    #[must_use]
    pub fn stream_class(&self, rate_hz: f64) -> kafkasim::fleet::StreamClass {
        kafkasim::fleet::StreamClass {
            name: self.slug().to_string(),
            size: self.size,
            rate_hz,
            timeliness: self.timeliness,
        }
    }

    /// The source spec feeding `n_messages` through this workload.
    #[must_use]
    pub(crate) fn source(&self, n_messages: u64) -> SourceSpec {
        SourceSpec {
            n_messages,
            size: self.size,
            rate: RateSpec::Timeline(self.rate_timeline.clone()),
            timeliness: Some(self.timeliness),
        }
    }

    /// Mean message size of the scenario.
    #[must_use]
    pub fn mean_size(&self) -> u64 {
        self.size.mean().round() as u64
    }
}

/// A deterministic bursty `λ(t)`: alternating 60-second periods of `base`
/// and `base + burst` messages/second over a 10-minute horizon.
fn bursty_rate(base: f64, burst: f64) -> Vec<(SimTime, f64)> {
    (0..10)
        .map(|i| {
            let rate = if i % 2 == 0 { base } else { base + burst };
            (SimTime::from_secs(i * 60), rate)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_weights_sum_to_one() {
        for s in ApplicationScenario::table2() {
            let w = s.weights;
            let sum = w.bandwidth + w.service_rate + w.no_loss + w.no_duplicate;
            assert!((sum - 1.0).abs() < 1e-12, "{}", s.name);
        }
        let d = KpiWeights::paper_default();
        assert_eq!((d.bandwidth, d.no_duplicate), (0.3, 0.1));
    }

    #[test]
    fn invalid_weights_rejected() {
        assert!(KpiWeights::new(0.5, 0.5, 0.5, 0.5).is_err());
        assert!(KpiWeights::new(-0.1, 0.5, 0.5, 0.1).is_err());
        assert!(KpiWeights::new(f64::NAN, 0.4, 0.3, 0.3).is_err());
    }

    #[test]
    fn gamma_matches_equation_two() {
        let w = KpiWeights::paper_default();
        // φ=1, μ=1, P_l=0, P_d=0 → γ = 1.
        assert!((w.gamma(1.0, 1.0, 0.0, 0.0) - 1.0).abs() < 1e-12);
        // Perfect reliability but zero performance → ω₃ + ω₄.
        assert!((w.gamma(0.0, 0.0, 0.0, 0.0) - 0.4).abs() < 1e-12);
        // Losing everything costs ω₃.
        assert!((w.gamma(1.0, 1.0, 1.0, 0.0) - 0.7).abs() < 1e-12);
    }

    #[test]
    fn scenario_characteristics_match_paper() {
        let game = ApplicationScenario::game_traffic();
        assert!(game.mean_size() < 100, "game messages are under 100 bytes");
        assert!(game.timeliness < SimDuration::from_secs(1));
        let web = ApplicationScenario::web_access_records();
        assert!(
            web.weights.no_loss > 0.5,
            "web logs prioritise completeness"
        );
        assert!(web.timeliness > SimDuration::from_secs(10));
        let social = ApplicationScenario::social_media();
        assert!(social.weights.bandwidth >= social.weights.no_loss);
    }

    #[test]
    fn source_spec_is_valid() {
        for s in ApplicationScenario::table2() {
            s.source(1_000).validate().unwrap();
        }
    }

    #[test]
    fn slugs_resolve_round_trip() {
        for s in ApplicationScenario::table2() {
            let found = ApplicationScenario::by_slug(s.slug()).unwrap();
            assert_eq!(found, s);
        }
        assert!(ApplicationScenario::by_slug("unknown").is_none());
        assert_eq!(ApplicationScenario::social_media().slug(), "social-media");
        let class = ApplicationScenario::web_access_records().stream_class(0.5);
        assert_eq!(class.name, "web-access-records");
        assert_eq!(class.size, ApplicationScenario::web_access_records().size);
    }

    #[test]
    fn bursty_rate_alternates() {
        let r = bursty_rate(10.0, 5.0);
        assert_eq!(r.len(), 10);
        assert_eq!(r[0].1, 10.0);
        assert_eq!(r[1].1, 15.0);
        assert_eq!(r[1].0, SimTime::from_secs(60));
    }
}
