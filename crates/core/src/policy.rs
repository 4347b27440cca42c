//! Control plane v2 — pluggable planning policies.
//!
//! PR 4's online controller hard-wired one planning strategy: a frozen
//! offline-trained [`ReliabilityModel`] driving the Eq. 2 stepwise search.
//! This module breaks that coupling. A [`Policy`] is anything that maps a
//! window of producer statistics to a configuration decision; the
//! simulator drives it generically through [`PolicyController`] (which
//! implements the `kafkasim` [`OnlineController`] trait), so the run
//! loop no longer knows *how* decisions are made. Three policies ship:
//!
//! * [`FrozenPolicy`] — the existing frozen-ANN γ-planner, routed through
//!   the trait **bit-identically** (it delegates every decision to the
//!   unchanged [`OnlineModelController`]) while additionally recording a
//!   per-window predicted-vs-observed γ trace;
//! * [`OnlineAdaptivePolicy`] — the same planner over a *live* model:
//!   every window pairs the planner's prediction with the reliability the
//!   producer actually observed, a [`DriftDetector`] watches the
//!   prediction-error stream, and a detected drift triggers an
//!   incremental-SGD refit (via [`annet::IncrementalTrainer`]) that bumps
//!   the model generation and invalidates the PR-4 feature cache;
//! * [`BanditPolicy`] — a deterministic UCB1 baseline over a coarse arm
//!   grid drawn from the [`SearchSpace`], with the *observed* Eq. 2 γ as
//!   reward: no reliability model at all, the head-to-head control the
//!   paper does not have.
//!
//! ```text
//!   kafkasim online_tick ──► OnlineController (trait)
//!                                 │
//!                          PolicyController<P>
//!                                 │ delegates
//!                            Policy (trait)
//!                      ┌──────────┼───────────────┐
//!                FrozenPolicy  OnlineAdaptivePolicy  BanditPolicy
//!                 (ANN, γ)     (ANN + drift/refit)   (UCB1 on γ_obs)
//! ```

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use annet::{Dataset, IncrementalTrainer, TrainConfig};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::{OnlineController, WindowStats};
use obs::{MetricsRegistry, TraceEvent};
use serde::{Deserialize, Serialize};
use testbed::scenarios::KpiWeights;
use testbed::Calibration;

use crate::features::Features;
use crate::kpi::KpiModel;
use crate::model::{Prediction, Predictor, ReliabilityModel};
use crate::online::{CachedPredictor, NetworkEstimator, OnlineModelController, PredictionCache};
use crate::recommend::{Recommender, SearchSpace};

/// A planning policy: the control plane's replaceable brain.
///
/// Implementations must be internally synchronised (`&self` decisions) —
/// the runtime shares controllers across threads, exactly as it does the
/// [`OnlineController`] trait this generalises.
pub trait Policy: Send + Sync {
    /// Stable kind label (`"frozen"`, `"online-adaptive"`, `"bandit"`):
    /// scenario files and reports use it to say which brain ran.
    fn kind(&self) -> &'static str;

    /// The current model generation. Fixed at 0 for policies that never
    /// refit; adaptive policies bump it on every refit.
    fn generation(&self) -> u64 {
        0
    }

    /// Returns the configuration for the next window, or `None` to keep
    /// the current one. Semantics are identical to
    /// [`OnlineController::decide`].
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig>;

    /// Publishes the policy's counters into a metrics registry.
    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let _ = registry;
    }

    /// Moves buffered trace events (drift detections, refits) into `out`.
    fn drain_events(&self, out: &mut Vec<TraceEvent>) {
        let _ = out;
    }

    /// The per-window γ bookkeeping recorded so far (one sample per
    /// completed observation window). Empty for policies that don't track.
    fn gamma_trace(&self) -> Vec<GammaSample> {
        Vec::new()
    }
}

/// Drives any [`Policy`] through the `kafkasim` [`OnlineController`]
/// trait. Pure delegation — a policy behind this adapter decides exactly
/// what it would decide called directly, so routing the frozen planner
/// through it is bit-identical to the pre-refactor wiring.
pub struct PolicyController<P: Policy> {
    policy: P,
}

impl<P: Policy> PolicyController<P> {
    /// Wraps `policy` for the simulator.
    #[must_use]
    pub fn new(policy: P) -> Self {
        PolicyController { policy }
    }

    /// The wrapped policy (post-run inspection: γ traces, refit counts).
    #[must_use]
    pub fn policy(&self) -> &P {
        &self.policy
    }
}

impl<P: Policy> OnlineController for PolicyController<P> {
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        self.policy.decide(stats, current)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.policy.export_metrics(registry);
    }

    fn drain_events(&self, out: &mut Vec<TraceEvent>) {
        self.policy.drain_events(out);
    }
}

/// One window of γ bookkeeping: what the policy expected against what the
/// producer's own counters then showed.
///
/// Both γ values share the policy's analytic φ/μ for the window's
/// configuration, so `gamma_err` isolates the *reliability* prediction —
/// the part a drifting network invalidates.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct GammaSample {
    /// Window end, in seconds from run start.
    pub at_s: f64,
    /// Eq. 2 γ from the policy's predicted reliability pair.
    pub gamma_pred: f64,
    /// Eq. 2 γ from the observed reliability pair (same φ/μ).
    pub gamma_obs: f64,
    /// Predicted `P_l` for the window's configuration.
    pub p_loss_pred: f64,
    /// Observed `P_l` proxy from the window's counters.
    pub p_loss_obs: f64,
    /// Predicted `P_d`.
    pub p_dup_pred: f64,
    /// Observed `P_d` proxy.
    pub p_dup_obs: f64,
    /// Model generation in force when the prediction was made.
    pub generation: u64,
}

impl GammaSample {
    /// `|γ_pred − γ_obs|` — the per-window planning error.
    #[must_use]
    pub fn gamma_err(&self) -> f64 {
        (self.gamma_pred - self.gamma_obs).abs()
    }
}

/// Estimates the window's reliability pair `(P_l, P_d)` from the
/// producer's own counters — the observable ground truth every policy is
/// scored against.
///
/// Messages delivered ≈ acked requests × mean batch fill (fill falls back
/// to 1 when no metrics sink ran); `P_l` is the expired share of attempts
/// and `P_d` counts retried messages (each Kafka-level retry re-sends one
/// request's worth of records, any of which may already have been
/// appended). Returns `None` for windows with no traffic — an empty
/// window carries no evidence.
#[must_use]
pub fn observed_reliability(stats: &WindowStats) -> Option<(f64, f64)> {
    let fill = stats.batch_fill_mean.unwrap_or(1.0).max(1.0);
    let delivered = stats.acks_received as f64 * fill;
    let expired = stats.expired as f64;
    let attempts = delivered + expired;
    if attempts <= 0.0 {
        return None;
    }
    let p_loss = expired / attempts;
    let p_dup = (stats.retries as f64 * fill / attempts).min(1.0);
    Some((p_loss, p_dup))
}

/// What tripped the [`DriftDetector`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DriftSignal {
    /// Mean error over the recent window at the moment of detection.
    pub error: f64,
    /// The baseline mean error the detector compared against.
    pub baseline: f64,
    /// The detector's window length in samples.
    pub window: usize,
}

/// Windowed change-point detector over a prediction-error stream.
///
/// The first `window` samples establish a baseline mean error (the
/// model's normal miss on the *current* regime). After that, a sliding
/// window of the most recent `window` errors is compared against the
/// baseline: when its mean exceeds `baseline + threshold`, the detector
/// fires once and resets — the post-drift errors then build the *new*
/// baseline, so a single regime change produces exactly one detection
/// and a stationary series never fires.
#[derive(Debug, Clone)]
pub struct DriftDetector {
    window: usize,
    threshold: f64,
    baseline: Option<f64>,
    warmup: Vec<f64>,
    recent: VecDeque<f64>,
}

impl DriftDetector {
    /// A detector with the given window length and absolute threshold.
    ///
    /// # Panics
    ///
    /// Panics when `window` is zero or `threshold` is not positive.
    #[must_use]
    pub fn new(window: usize, threshold: f64) -> Self {
        assert!(window > 0, "drift window must be positive");
        assert!(threshold > 0.0, "drift threshold must be positive");
        DriftDetector {
            window,
            threshold,
            baseline: None,
            warmup: Vec::with_capacity(window),
            recent: VecDeque::with_capacity(window),
        }
    }

    /// The baseline mean error, once established.
    #[must_use]
    pub fn baseline(&self) -> Option<f64> {
        self.baseline
    }

    /// Folds one error sample in; returns the signal when drift is
    /// detected at this sample.
    pub fn observe(&mut self, err: f64) -> Option<DriftSignal> {
        match self.baseline {
            None => {
                self.warmup.push(err);
                if self.warmup.len() == self.window {
                    let mean = self.warmup.iter().sum::<f64>() / self.window as f64;
                    self.baseline = Some(mean);
                    self.warmup.clear();
                }
                None
            }
            Some(baseline) => {
                self.recent.push_back(err);
                if self.recent.len() > self.window {
                    self.recent.pop_front();
                }
                if self.recent.len() == self.window {
                    let mean = self.recent.iter().sum::<f64>() / self.window as f64;
                    if mean - baseline > self.threshold {
                        let signal = DriftSignal {
                            error: mean,
                            baseline,
                            window: self.window,
                        };
                        self.baseline = None;
                        self.recent.clear();
                        return Some(signal);
                    }
                }
                None
            }
        }
    }
}

/// γ bookkeeping shared by the model-driven policies: the plan made last
/// window, waiting for its observed outcome.
struct PendingPlan {
    features: Features,
    prediction: Prediction,
    phi: f64,
    mu: f64,
    generation: u64,
}

/// Tracker state behind the frozen policy's mutex.
struct GammaTracker {
    pending: Option<PendingPlan>,
    samples: Vec<GammaSample>,
}

/// Scores `pending` against the window's observed reliability, if any.
/// Returns the window's γ prediction error — the drift statistic.
fn settle_pending(
    pending: &mut Option<PendingPlan>,
    samples: &mut Vec<GammaSample>,
    weights: &KpiWeights,
    stats: &WindowStats,
) -> Option<f64> {
    let plan = pending.take()?;
    let (p_loss_obs, p_dup_obs) = observed_reliability(stats)?;
    let gamma_pred = weights.gamma(
        plan.phi,
        plan.mu,
        plan.prediction.p_loss,
        plan.prediction.p_dup,
    );
    let gamma_obs = weights.gamma(plan.phi, plan.mu, p_loss_obs, p_dup_obs);
    samples.push(GammaSample {
        at_s: stats.at.as_secs_f64(),
        gamma_pred,
        gamma_obs,
        p_loss_pred: plan.prediction.p_loss,
        p_loss_obs,
        p_dup_pred: plan.prediction.p_dup,
        p_dup_obs,
        generation: plan.generation,
    });
    Some((gamma_pred - gamma_obs).abs())
}

/// The frozen-ANN γ-planner as a [`Policy`].
///
/// Every decision delegates to the wrapped — numerically unchanged —
/// [`OnlineModelController`], so a run through this policy is
/// bit-identical to the pre-refactor wiring (same configs, same cache
/// counters, same metrics). On top, it keeps the per-window γ trace the
/// regime-shift comparison needs; the bookkeeping reads the planner's
/// memo cache through the non-counting peek path only.
pub struct FrozenPolicy<P> {
    controller: OnlineModelController<P>,
    kpi: KpiModel,
    weights: KpiWeights,
    tracker: Mutex<GammaTracker>,
}

impl<P: Predictor + Send + Sync> FrozenPolicy<P> {
    /// Wraps an already-built controller. `cal` and `weights` must be the
    /// ones the controller plans with (they parameterise the γ
    /// bookkeeping, not the decisions).
    #[must_use]
    pub fn new(
        controller: OnlineModelController<P>,
        cal: &Calibration,
        weights: KpiWeights,
    ) -> Self {
        FrozenPolicy {
            controller,
            kpi: KpiModel::from_calibration(cal),
            weights,
            tracker: Mutex::new(GammaTracker {
                pending: None,
                samples: Vec::new(),
            }),
        }
    }

    /// The wrapped frozen controller.
    #[must_use]
    pub fn controller(&self) -> &OnlineModelController<P> {
        &self.controller
    }
}

impl<P: Predictor + Send + Sync> Policy for FrozenPolicy<P> {
    fn kind(&self) -> &'static str {
        "frozen"
    }

    fn generation(&self) -> u64 {
        self.controller.model_generation()
    }

    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        {
            let tracker = &mut *self.tracker.lock().expect("tracker lock");
            settle_pending(
                &mut tracker.pending,
                &mut tracker.samples,
                &self.weights,
                stats,
            );
        }
        let decision = OnlineController::decide(&self.controller, stats, current);
        if let Some((rec, prediction)) = self.controller.planned_prediction() {
            let inputs = self.kpi.inputs_with(prediction, &rec.features);
            let tracker = &mut *self.tracker.lock().expect("tracker lock");
            tracker.pending = Some(PendingPlan {
                features: rec.features,
                prediction,
                phi: inputs.phi,
                mu: inputs.mu,
                generation: self.controller.model_generation(),
            });
        }
        decision
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        OnlineController::export_metrics(&self.controller, registry);
    }

    fn gamma_trace(&self) -> Vec<GammaSample> {
        self.tracker.lock().expect("tracker lock").samples.clone()
    }
}

/// Hyper-parameters of [`OnlineAdaptivePolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveConfig {
    /// Drift-detector window, in observation windows.
    pub drift_window: usize,
    /// Absolute mean-error increase over baseline that counts as drift.
    pub drift_threshold: f64,
    /// Incremental-SGD mini-batch steps per refit.
    pub refit_steps: usize,
    /// Learning rate of the refit steps.
    pub learning_rate: f64,
    /// Replay-buffer capacity, in (features, observation) pairs.
    pub replay_capacity: usize,
}

impl Default for AdaptiveConfig {
    fn default() -> Self {
        AdaptiveConfig {
            drift_window: 5,
            drift_threshold: 0.04,
            refit_steps: 60,
            learning_rate: 0.3,
            replay_capacity: 256,
        }
    }
}

impl AdaptiveConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.drift_window == 0 {
            return Err("drift_window must be positive".into());
        }
        if self.drift_threshold <= 0.0 {
            return Err("drift_threshold must be positive".into());
        }
        if self.refit_steps == 0 {
            return Err("refit_steps must be positive".into());
        }
        if self.learning_rate <= 0.0 {
            return Err("learning_rate must be positive".into());
        }
        if self.replay_capacity < 4 {
            return Err("replay_capacity must be at least 4".into());
        }
        Ok(())
    }
}

/// Mini-batch size of the refit steps (the replay buffer is chunked in
/// insertion order, so refits are deterministic).
const REFIT_BATCH: usize = 8;

/// Minimum replay samples for one head before a refit touches it.
const REFIT_MIN_SAMPLES: usize = 4;

struct AdaptiveState {
    detector: DriftDetector,
    replay: VecDeque<(Features, f64, f64)>,
    pending: Option<PendingPlan>,
    samples: Vec<GammaSample>,
    events: Vec<TraceEvent>,
    refits: u64,
    /// A drift fired and invalidated the replay buffer; the refit waits
    /// until enough post-drift samples accumulate.
    refit_armed: bool,
}

/// The online-adaptive policy: the frozen planner's search over a model
/// that *learns from the run it is steering*.
///
/// Each window pairs the previous plan's predicted reliability with the
/// observed pair, feeds the pair into a bounded replay buffer, and pushes
/// the γ prediction error into a [`DriftDetector`]. On detection the
/// policy refits the live semantics head with deterministic
/// incremental-SGD steps over the replay buffer
/// ([`annet::IncrementalTrainer`] — the same kernels as offline
/// training), bumps the model generation, and invalidates the prediction
/// memo cache, emitting [`TraceEvent::PolicyDrift`] and
/// [`TraceEvent::PolicyRefit`] into the run's trace.
pub struct OnlineAdaptivePolicy {
    model: Mutex<ReliabilityModel>,
    cal: Calibration,
    kpi: KpiModel,
    space: SearchSpace,
    weights: KpiWeights,
    gamma_requirement: f64,
    message_size: u64,
    timeliness_ms: f64,
    config: AdaptiveConfig,
    estimator: Mutex<NetworkEstimator>,
    cache: PredictionCache,
    replans: AtomicU64,
    state: Mutex<AdaptiveState>,
}

/// Memo-cache capacity (matches the frozen controller's).
const ADAPTIVE_CACHE_CAPACITY: usize = 4096;

impl OnlineAdaptivePolicy {
    /// Creates the policy around a starting model (usually the same
    /// offline-trained model the frozen policy serves).
    ///
    /// # Panics
    ///
    /// Panics when `space` or `config` fail validation.
    #[allow(clippy::too_many_arguments)]
    #[must_use]
    pub fn new(
        model: ReliabilityModel,
        cal: &Calibration,
        space: SearchSpace,
        weights: KpiWeights,
        gamma_requirement: f64,
        message_size: u64,
        timeliness_ms: f64,
        config: AdaptiveConfig,
    ) -> Self {
        space.validate().expect("invalid search space");
        config.validate().expect("invalid adaptive config");
        OnlineAdaptivePolicy {
            model: Mutex::new(model),
            kpi: KpiModel::from_calibration(cal),
            cal: cal.clone(),
            space,
            weights,
            gamma_requirement,
            message_size,
            timeliness_ms,
            estimator: Mutex::new(NetworkEstimator::new(0.5)),
            cache: PredictionCache::new(ADAPTIVE_CACHE_CAPACITY),
            state: Mutex::new(AdaptiveState {
                detector: DriftDetector::new(config.drift_window, config.drift_threshold),
                replay: VecDeque::with_capacity(config.replay_capacity),
                pending: None,
                samples: Vec::new(),
                events: Vec::new(),
                refits: 0,
                refit_armed: false,
            }),
            config,
            replans: AtomicU64::new(0),
        }
    }

    /// Refits hit so far.
    #[must_use]
    pub fn refits(&self) -> u64 {
        self.state.lock().expect("state lock").refits
    }

    /// Refits the head for `semantics` over the replay samples that used
    /// it, then invalidates the cache. Deterministic: samples are chunked
    /// in insertion order and cycled for `refit_steps` mini-batch steps.
    /// Returns `false` when the replay buffer holds too little evidence.
    ///
    /// Live samples cover only the few configurations the planner actually
    /// ran, so training on them alone flattens the head everywhere else
    /// and the next search walks into regions the model no longer
    /// understands. Each refit therefore mixes the live rows with
    /// *pseudo-rehearsal anchors*: the model's own pre-refit predictions
    /// over a lo/mid/hi configuration grid at the current network
    /// estimate. Live evidence corrects the visited region; the anchors
    /// preserve the head's shape across the rest of the search space.
    fn refit(&self, state: &mut AdaptiveState, semantics: DeliverySemantics) -> bool {
        let rows: Vec<&(Features, f64, f64)> = state
            .replay
            .iter()
            .filter(|(f, _, _)| f.semantics == semantics)
            .collect();
        if rows.len() < REFIT_MIN_SAMPLES {
            return false;
        }
        let target = |p_loss: f64, p_dup: f64| match semantics {
            DeliverySemantics::AtMostOnce => vec![p_loss],
            DeliverySemantics::AtLeastOnce | DeliverySemantics::All => vec![p_loss, p_dup],
        };
        let template = rows.last().expect("checked non-empty").0;
        let batches = axis_points(self.space.batch.0 as f64, self.space.batch.1 as f64);
        let timeouts = axis_points(self.space.timeout_ms.0, self.space.timeout_ms.1);
        let polls = axis_points(self.space.poll_ms.0, self.space.poll_ms.1);
        let mut anchors = Vec::new();
        for &batch in &batches {
            for &timeout in &timeouts {
                for &poll in &polls {
                    anchors.push(Features {
                        batch_size: batch.round() as usize,
                        message_timeout_ms: timeout,
                        poll_interval_ms: poll,
                        semantics,
                        ..template
                    });
                }
            }
        }
        let model = &mut *self.model.lock().expect("model lock");
        let mut x = Vec::new();
        let mut y = Vec::new();
        // Repeat the live rows so their gradient weight outvotes the
        // anchor grid's where the two disagree (the visited region is
        // where the evidence is).
        let repeat = (2 * anchors.len() / rows.len()).max(1);
        for &&(f, p_loss, p_dup) in &rows {
            for _ in 0..repeat {
                x.push(f.scaled_head_vector());
                y.push(target(p_loss, p_dup));
            }
        }
        for (f, p) in anchors.iter().zip(model.predict_batch(&anchors)) {
            x.push(f.scaled_head_vector());
            y.push(target(p.p_loss, p.p_dup));
        }
        let data = Dataset::from_rows(x, y).expect("aligned replay rows");
        let train = TrainConfig {
            epochs: 1,
            learning_rate: self.config.learning_rate,
            batch_size: REFIT_BATCH,
            shuffle: false,
            momentum: 0.0,
        };
        let order: Vec<usize> = (0..data.len()).collect();
        let chunks: Vec<&[usize]> = order.chunks(REFIT_BATCH).collect();
        let head = model.head_mut(semantics);
        let mut trainer = IncrementalTrainer::new(head);
        for step in 0..self.config.refit_steps {
            trainer.step(head, &data, chunks[step % chunks.len()], &train);
        }
        self.cache.bump_generation();
        state.refits += 1;
        true
    }
}

impl Policy for OnlineAdaptivePolicy {
    fn kind(&self) -> &'static str {
        "online-adaptive"
    }

    fn generation(&self) -> u64 {
        self.cache.generation()
    }

    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        {
            let state = &mut *self.state.lock().expect("state lock");
            // Score last window's plan, bank the observation, watch drift.
            let planned = state
                .pending
                .as_ref()
                .map(|p| (p.features, p.prediction.p_loss));
            if let Some(err) = {
                let AdaptiveState {
                    pending, samples, ..
                } = state;
                settle_pending(pending, samples, &self.weights, stats)
            } {
                if let Some((features, _)) = planned {
                    let sample = state.samples.last().expect("just pushed");
                    let observation = (features, sample.p_loss_obs, sample.p_dup_obs);
                    if state.replay.len() == self.config.replay_capacity {
                        state.replay.pop_front();
                    }
                    state.replay.push_back(observation);
                    if state.refit_armed {
                        // A drift already cleared the stale buffer; refit as
                        // soon as the post-drift evidence suffices. The
                        // detector stays paused until the model catches up.
                        if self.refit(state, features.semantics) {
                            state.refit_armed = false;
                            state.events.push(TraceEvent::PolicyRefit {
                                at: stats.at,
                                generation: self.cache.generation(),
                                samples: state.replay.len() as u64,
                            });
                        }
                    } else if let Some(signal) = state.detector.observe(err) {
                        state.events.push(TraceEvent::PolicyDrift {
                            at: stats.at,
                            error: signal.error,
                            baseline: signal.baseline,
                            window: signal.window as u64,
                        });
                        // The signal dates everything before it: drop the
                        // invalidated regime's samples and refit once enough
                        // fresh ones accumulate (the triggering window's
                        // observation is the first).
                        state.replay.clear();
                        state.replay.push_back(observation);
                        state.refit_armed = true;
                    }
                }
            }
        }

        // Plan exactly as the frozen controller does, over the live model.
        let estimate = {
            let mut est = self.estimator.lock().expect("estimator lock");
            est.observe(stats);
            *est
        };
        let start = Features {
            message_size: self.message_size,
            timeliness_ms: self.timeliness_ms,
            delay_ms: estimate.delay_ms,
            loss_rate: estimate.loss,
            semantics: current.semantics,
            batch_size: current.batch_size,
            poll_interval_ms: current.poll_interval.as_secs_f64() * 1e3,
            message_timeout_ms: current.message_timeout.as_secs_f64() * 1e3,
            ..Features::default()
        };
        self.replans.fetch_add(1, Ordering::Relaxed);
        let model = self.model.lock().expect("model lock");
        let cached = CachedPredictor::new(&*model, &self.cache);
        let recommender = Recommender::new(&self.kpi, &cached, self.space.clone());
        let rec = recommender.recommend(&start, &self.weights, self.gamma_requirement);
        let prediction = self
            .cache
            .peek(&rec.features)
            .unwrap_or_else(|| model.predict(&rec.features));
        drop(model);
        let inputs = self.kpi.inputs_with(prediction, &rec.features);
        {
            let state = &mut *self.state.lock().expect("state lock");
            state.pending = Some(PendingPlan {
                features: rec.features,
                prediction,
                phi: inputs.phi,
                mu: inputs.mu,
                generation: self.cache.generation(),
            });
        }
        let mut cfg = rec
            .features
            .to_experiment_point()
            .producer_config(&self.cal);
        cfg.max_retries = current.max_retries.max(self.cal.max_retries);
        Some(cfg)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.cache.export_metrics(registry);
        registry.add_to_counter("planner-replan", self.replans.load(Ordering::Relaxed));
        registry.add_to_counter("planner-refit", self.refits());
    }

    fn drain_events(&self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.state.lock().expect("state lock").events);
    }

    fn gamma_trace(&self) -> Vec<GammaSample> {
        self.state.lock().expect("state lock").samples.clone()
    }
}

/// Hyper-parameters of [`BanditPolicy`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BanditConfig {
    /// UCB1 exploration constant `c` (bonus `c·√(ln N / n_i)`).
    pub exploration: f64,
}

impl Default for BanditConfig {
    fn default() -> Self {
        BanditConfig { exploration: 0.5 }
    }
}

impl BanditConfig {
    /// Validates the hyper-parameters.
    ///
    /// # Errors
    ///
    /// Returns a description of the invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.exploration <= 0.0 {
            return Err("exploration must be positive".into());
        }
        Ok(())
    }
}

struct BanditState {
    counts: Vec<u64>,
    sums: Vec<f64>,
    total: u64,
    last_arm: Option<usize>,
    samples: Vec<GammaSample>,
}

/// Deterministic UCB1 over a coarse configuration grid, with the
/// **observed** Eq. 2 γ as reward — the model-free baseline.
///
/// Arms are the low/mid/high points of each [`SearchSpace`] axis (batch,
/// timeout, poll), crossed with the semantics the space allows. Rewards
/// credit the arm *played last window* with the γ its counters produced
/// (analytic φ/μ for the arm's configuration, observed `P_l`/`P_d`).
/// Unplayed arms are tried first in index order; ties break to the lowest
/// index — no randomness anywhere, so runs are exactly reproducible.
pub struct BanditPolicy {
    arms: Vec<Features>,
    cal: Calibration,
    kpi: KpiModel,
    weights: KpiWeights,
    config: BanditConfig,
    state: Mutex<BanditState>,
}

/// Low/mid/high subsample of one axis (deduped when the axis collapses).
fn axis_points(lo: f64, hi: f64) -> Vec<f64> {
    let mut points = vec![lo, (lo + hi) / 2.0, hi];
    points.dedup_by(|a, b| a == b);
    points
}

impl BanditPolicy {
    /// Builds the arm grid from `space` and starts with every arm
    /// unplayed.
    ///
    /// # Panics
    ///
    /// Panics when `space` or `config` fail validation.
    #[must_use]
    pub fn new(
        cal: &Calibration,
        space: &SearchSpace,
        weights: KpiWeights,
        message_size: u64,
        timeliness_ms: f64,
        config: BanditConfig,
    ) -> Self {
        space.validate().expect("invalid search space");
        config.validate().expect("invalid bandit config");
        let semantics: &[DeliverySemantics] = if space.allow_semantics_switch {
            &[
                DeliverySemantics::AtLeastOnce,
                DeliverySemantics::AtMostOnce,
            ]
        } else {
            &[DeliverySemantics::AtLeastOnce]
        };
        let batches = axis_points(space.batch.0 as f64, space.batch.1 as f64);
        let timeouts = axis_points(space.timeout_ms.0, space.timeout_ms.1);
        let polls = axis_points(space.poll_ms.0, space.poll_ms.1);
        let mut arms = Vec::new();
        for &sem in semantics {
            for &batch in &batches {
                for &timeout in &timeouts {
                    for &poll in &polls {
                        arms.push(Features {
                            message_size,
                            timeliness_ms,
                            semantics: sem,
                            batch_size: batch.round() as usize,
                            poll_interval_ms: poll,
                            message_timeout_ms: timeout,
                            ..Features::default()
                        });
                    }
                }
            }
        }
        let n = arms.len();
        BanditPolicy {
            arms,
            cal: cal.clone(),
            kpi: KpiModel::from_calibration(cal),
            weights,
            config,
            state: Mutex::new(BanditState {
                counts: vec![0; n],
                sums: vec![0.0; n],
                total: 0,
                last_arm: None,
                samples: Vec::new(),
            }),
        }
    }

    /// Number of arms in the grid.
    #[must_use]
    pub fn arm_count(&self) -> usize {
        self.arms.len()
    }

    /// UCB1 selection: unplayed arms first (index order), then the
    /// highest upper confidence bound, ties to the lowest index.
    fn select(&self, state: &BanditState) -> usize {
        if let Some(unplayed) = state.counts.iter().position(|&c| c == 0) {
            return unplayed;
        }
        let ln_total = (state.total as f64).ln();
        let mut best = 0;
        let mut best_ucb = f64::NEG_INFINITY;
        for (i, (&count, &sum)) in state.counts.iter().zip(&state.sums).enumerate() {
            let mean = sum / count as f64;
            let ucb = mean + self.config.exploration * (ln_total / count as f64).sqrt();
            if ucb > best_ucb {
                best_ucb = ucb;
                best = i;
            }
        }
        best
    }
}

impl Policy for BanditPolicy {
    fn kind(&self) -> &'static str {
        "bandit"
    }

    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        let state = &mut *self.state.lock().expect("state lock");
        // Credit last window's arm with the γ its counters produced.
        if let (Some(arm), Some((p_loss_obs, p_dup_obs))) =
            (state.last_arm, observed_reliability(stats))
        {
            let features = &self.arms[arm];
            let prior_mean = if state.counts[arm] > 0 {
                state.sums[arm] / state.counts[arm] as f64
            } else {
                0.0
            };
            let inputs = self.kpi.inputs_with(
                Prediction {
                    p_loss: p_loss_obs,
                    p_dup: p_dup_obs,
                },
                features,
            );
            let gamma_obs = self
                .weights
                .gamma(inputs.phi, inputs.mu, p_loss_obs, p_dup_obs);
            state.counts[arm] += 1;
            state.sums[arm] += gamma_obs;
            state.total += 1;
            // The bandit predicts no reliability pair: `gamma_pred` is its
            // running mean reward for the arm, and the predicted pair
            // mirrors the observation.
            state.samples.push(GammaSample {
                at_s: stats.at.as_secs_f64(),
                gamma_pred: prior_mean,
                gamma_obs,
                p_loss_pred: p_loss_obs,
                p_loss_obs,
                p_dup_pred: p_dup_obs,
                p_dup_obs,
                generation: 0,
            });
        }
        let arm = self.select(state);
        state.last_arm = Some(arm);
        let mut cfg = self.arms[arm]
            .to_experiment_point()
            .producer_config(&self.cal);
        cfg.max_retries = current.max_retries.max(self.cal.max_retries);
        Some(cfg)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let state = self.state.lock().expect("state lock");
        registry.add_to_counter("bandit-plays", state.total);
        registry.add_to_counter("bandit-arms", self.arms.len() as u64);
        let explored = state.counts.iter().filter(|&&c| c > 0).count() as u64;
        registry.add_to_counter("bandit-arms-explored", explored);
    }

    fn gamma_trace(&self) -> Vec<GammaSample> {
        self.state.lock().expect("state lock").samples.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FnPredictor;
    use desim::{SimDuration, SimRng, SimTime};
    use kafkasim::config::DeliverySemantics;

    fn window_at(secs: u64, requests: u64, retries: u64, expired: u64) -> WindowStats {
        WindowStats {
            at: SimTime::from_secs(secs),
            window: SimDuration::from_secs(30),
            requests_sent: requests,
            acks_received: requests.saturating_sub(retries),
            retries,
            connection_resets: 0,
            expired,
            backlog: 0,
            srtt_ms: Some(20.0),
            rtt_p99_ms: None,
            e2e_p99_ms: None,
            batch_fill_mean: Some(1.0),
        }
    }

    #[test]
    fn observed_reliability_derives_the_pair_from_counters() {
        let stats = window_at(60, 100, 10, 10);
        let (p_loss, p_dup) = observed_reliability(&stats).expect("traffic present");
        // 90 acked × fill 1 delivered, 10 expired → P_l = 10/100.
        assert!((p_loss - 0.1).abs() < 1e-12);
        assert!((p_dup - 0.1).abs() < 1e-12);
        // Empty windows carry no evidence.
        assert!(observed_reliability(&window_at(60, 0, 0, 0)).is_none());
    }

    #[test]
    fn drift_detector_fires_once_at_a_change_point() {
        let mut det = DriftDetector::new(4, 0.25);
        let mut fired_at = Vec::new();
        // 4 warmup + 8 stationary samples around 0.02, then a jump to 0.3.
        let series: Vec<f64> = (0..12)
            .map(|i| 0.02 + 0.001 * f64::from(i % 3))
            .chain(std::iter::repeat_n(0.3, 12))
            .collect();
        for (i, &err) in series.iter().enumerate() {
            if det.observe(err).is_some() {
                fired_at.push(i);
            }
        }
        assert_eq!(fired_at.len(), 1, "exactly one detection: {fired_at:?}");
        // Warmup consumes 4 samples; the recent window needs 4 post-jump
        // samples before its mean clears the threshold.
        assert_eq!(fired_at[0], 15, "expected detection at sample 15");
    }

    #[test]
    fn drift_detector_stays_quiet_on_stationary_series() {
        let mut det = DriftDetector::new(5, 0.05);
        for i in 0..200 {
            let err = 0.05 + 0.02 * f64::from(i % 7) / 7.0;
            assert!(det.observe(err).is_none(), "false positive at {i}");
        }
    }

    #[test]
    fn drift_detector_rebaselines_after_detection() {
        let mut det = DriftDetector::new(3, 0.05);
        let mut detections = 0;
        // Two genuine regime changes → exactly two detections.
        let series: Vec<f64> = std::iter::repeat_n(0.01, 8)
            .chain(std::iter::repeat_n(0.2, 10))
            .chain(std::iter::repeat_n(0.5, 10))
            .collect();
        for &err in &series {
            if det.observe(err).is_some() {
                detections += 1;
            }
        }
        assert_eq!(detections, 2);
    }

    fn frozen_policy() -> FrozenPolicy<FnPredictor<impl Fn(&Features) -> Prediction>> {
        let predictor = FnPredictor(|f: &Features| Prediction {
            p_loss: (f.loss_rate * 4.0 / (1.0 + (f.batch_size as f64 - 1.0))).min(1.0),
            p_dup: 0.0,
        });
        let cal = Calibration::paper();
        let weights = KpiWeights::new(0.05, 0.05, 0.85, 0.05).expect("valid");
        let controller = OnlineModelController::new(
            predictor,
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
        );
        FrozenPolicy::new(controller, &cal, weights)
    }

    #[test]
    fn frozen_policy_decides_bit_identically_to_the_bare_controller() {
        let predictor = || {
            FnPredictor(|f: &Features| Prediction {
                p_loss: (f.loss_rate * 4.0 / (1.0 + (f.batch_size as f64 - 1.0))).min(1.0),
                p_dup: 0.0,
            })
        };
        let cal = Calibration::paper();
        let weights = KpiWeights::new(0.05, 0.05, 0.85, 0.05).expect("valid");
        let bare = OnlineModelController::new(
            predictor(),
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
        );
        let wrapped = PolicyController::new(frozen_policy());
        let mut cfg_bare = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        let mut cfg_wrapped = cfg_bare.clone();
        for i in 0..8 {
            let stats = window_at(30 * (i + 1), 100, 5 * i, 0);
            cfg_bare = OnlineController::decide(&bare, &stats, &cfg_bare).expect("plans");
            cfg_wrapped = OnlineController::decide(&wrapped, &stats, &cfg_wrapped).expect("plans");
            assert_eq!(cfg_bare, cfg_wrapped, "window {i}");
        }
        // Cache traffic is identical too: the γ bookkeeping reads only
        // through the non-counting peek path.
        assert_eq!(
            bare.cache_stats(),
            wrapped.policy().controller().cache_stats()
        );
        // And both exports agree counter for counter.
        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        OnlineController::export_metrics(&bare, &mut a);
        OnlineController::export_metrics(&wrapped, &mut b);
        for name in [
            "planner-cache-hit",
            "planner-cache-miss",
            "planner-cache-evict",
            "planner-model-generation",
            "planner-replan",
        ] {
            assert_eq!(a.counter(name), b.counter(name), "{name}");
        }
    }

    #[test]
    fn frozen_policy_records_a_gamma_trace() {
        let policy = frozen_policy();
        let mut cfg = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        for i in 0..4 {
            cfg = policy
                .decide(&window_at(30 * (i + 1), 100, 2, 1), &cfg)
                .expect("plans");
        }
        let trace = policy.gamma_trace();
        // First window has no pending plan; the remaining three settle.
        assert_eq!(trace.len(), 3);
        for s in &trace {
            assert!(s.gamma_err() >= 0.0);
            assert_eq!(s.generation, 0, "frozen never refits");
        }
        assert_eq!(policy.kind(), "frozen");
        assert_eq!(policy.generation(), 0);
    }

    fn tiny_model(seed: u64) -> ReliabilityModel {
        ReliabilityModel::new(
            crate::model::Topology::Compact,
            &mut SimRng::seed_from_u64(seed),
        )
    }

    #[test]
    fn adaptive_policy_refits_on_drift_and_bumps_generation() {
        let cal = Calibration::paper();
        let policy = OnlineAdaptivePolicy::new(
            tiny_model(3),
            &cal,
            SearchSpace::default(),
            KpiWeights::paper_default(),
            0.9,
            200,
            0.0,
            AdaptiveConfig {
                drift_window: 3,
                drift_threshold: 0.02,
                refit_steps: 10,
                ..AdaptiveConfig::default()
            },
        );
        let mut cfg = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        // Heavy-loss windows build the baseline; the regime then flips to
        // clean windows, driving observed P_l away from what the model
        // learned to expect.
        for i in 0..8 {
            cfg = policy
                .decide(&window_at(30 * (i + 1), 100, 10, 900), &cfg)
                .expect("plans");
        }
        assert_eq!(policy.refits(), 0, "stationary phase must not refit");
        for i in 8..24 {
            cfg = policy
                .decide(&window_at(30 * (i + 1), 100, 0, 0), &cfg)
                .expect("plans");
            cfg.validate().expect("planned configs stay valid");
        }
        assert!(policy.refits() >= 1, "sustained drift must refit");
        assert_eq!(policy.generation(), policy.refits());
        let mut events = Vec::new();
        policy.drain_events(&mut events);
        let drifts = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PolicyDrift { .. }))
            .count();
        let refits = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::PolicyRefit { .. }))
            .count();
        assert_eq!(drifts as u64, policy.refits());
        assert_eq!(refits as u64, policy.refits());
        // Drained means drained.
        let mut again = Vec::new();
        policy.drain_events(&mut again);
        assert!(again.is_empty());
        // Counter reset-on-refit semantics: the exported generation label
        // matches, and the gamma trace spans both generations.
        let mut reg = MetricsRegistry::new();
        policy.export_metrics(&mut reg);
        assert_eq!(reg.counter("planner-model-generation"), policy.generation());
        assert_eq!(reg.counter("planner-refit"), policy.refits());
        let gens: std::collections::BTreeSet<u64> =
            policy.gamma_trace().iter().map(|s| s.generation).collect();
        assert!(gens.len() >= 2, "trace must span generations: {gens:?}");
    }

    #[test]
    fn adaptive_refit_is_deterministic() {
        let run = || {
            let cal = Calibration::paper();
            let policy = OnlineAdaptivePolicy::new(
                tiny_model(7),
                &cal,
                SearchSpace::default(),
                KpiWeights::paper_default(),
                0.9,
                200,
                0.0,
                AdaptiveConfig {
                    drift_window: 3,
                    drift_threshold: 0.02,
                    refit_steps: 12,
                    ..AdaptiveConfig::default()
                },
            );
            let mut cfg = ProducerConfig {
                semantics: DeliverySemantics::AtLeastOnce,
                ..ProducerConfig::default()
            };
            let mut configs = Vec::new();
            for i in 0..20 {
                let (retries, expired) = if i < 6 { (0, 0) } else { (10, 50) };
                cfg = policy
                    .decide(&window_at(30 * (i + 1), 100, retries, expired), &cfg)
                    .expect("plans");
                configs.push(cfg.clone());
            }
            (configs, policy.refits(), policy.gamma_trace())
        };
        let (a_cfgs, a_refits, a_trace) = run();
        let (b_cfgs, b_refits, b_trace) = run();
        assert_eq!(a_cfgs, b_cfgs);
        assert_eq!(a_refits, b_refits);
        assert_eq!(a_trace.len(), b_trace.len());
        for (x, y) in a_trace.iter().zip(&b_trace) {
            assert_eq!(x.gamma_obs.to_bits(), y.gamma_obs.to_bits());
            assert_eq!(x.gamma_pred.to_bits(), y.gamma_pred.to_bits());
        }
    }

    #[test]
    fn bandit_explores_every_arm_then_exploits_deterministically() {
        let cal = Calibration::paper();
        let policy = BanditPolicy::new(
            &cal,
            &SearchSpace::default(),
            KpiWeights::paper_default(),
            200,
            0.0,
            BanditConfig::default(),
        );
        let arms = policy.arm_count();
        assert!(arms > 1 && arms <= 64, "coarse grid: {arms} arms");
        let mut cfg = ProducerConfig::default();
        let mut chosen = Vec::new();
        for i in 0..(arms as u64 + 20) {
            cfg = policy
                .decide(&window_at(30 * (i + 1), 100, 0, 0), &cfg)
                .expect("always plays");
            cfg.validate().expect("arm configs are valid");
            chosen.push(cfg.clone());
        }
        let mut reg = MetricsRegistry::new();
        policy.export_metrics(&mut reg);
        assert_eq!(reg.counter("bandit-arms"), arms as u64);
        assert_eq!(reg.counter("bandit-arms-explored"), arms as u64);
        // Determinism: a second identical run picks identical arms.
        let policy2 = BanditPolicy::new(
            &cal,
            &SearchSpace::default(),
            KpiWeights::paper_default(),
            200,
            0.0,
            BanditConfig::default(),
        );
        let mut cfg2 = ProducerConfig::default();
        for (i, want) in chosen.iter().enumerate() {
            cfg2 = policy2
                .decide(&window_at(30 * (i as u64 + 1), 100, 0, 0), &cfg2)
                .expect("always plays");
            assert_eq!(&cfg2, want, "play {i}");
        }
        assert!(!policy.gamma_trace().is_empty());
    }
}
