//! Control plane v2 — pluggable planning policies.
//!
//! A [`Policy`] is anything that maps a window of producer statistics to a
//! configuration decision. It *is* a `kafkasim` [`OnlineController`] — the
//! run loop's one decide trait — and adds only what reports ask of a
//! policy: its kind, its model generation and its γ trace. Three policies
//! ship:
//!
//! * [`FrozenPolicy`] — the frozen-ANN γ-planner: every decision is one
//!   replan of the wrapped [`OnlineModelController`], and the plan it
//!   returns feeds a per-window predicted-vs-observed γ trace;
//! * [`OnlineAdaptivePolicy`] — the same planning loop over a *live*
//!   model: every window pairs the planner's prediction with the
//!   reliability the producer actually observed, a `DriftDetector`
//!   watches the prediction-error stream, and a detected drift triggers an
//!   incremental-SGD refit (via [`annet::IncrementalTrainer`]) that bumps
//!   the model generation and invalidates the planner's memo cache;
//! * [`BanditPolicy`] — a deterministic UCB1 baseline over a coarse arm
//!   grid drawn from the [`SearchSpace`], with the *observed* Eq. 2 γ as
//!   reward: no reliability model at all, the head-to-head control the
//!   paper does not have.
//!
//! ```text
//!   kafkasim online_tick ──► OnlineController (trait) ◄── Policy: kind,
//!                                 │                 generation, gamma_trace
//!                      ┌──────────┼───────────────┐
//!                FrozenPolicy  OnlineAdaptivePolicy  BanditPolicy
//!                      │          │ (drift/refit)    (UCB1 on γ_obs)
//!                      └────┬─────┘
//!              OnlineModelController::plan (estimate → search → config)
//! ```

use std::collections::VecDeque;
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
use crate::online::{producer_config, OnlineModelController};
use crate::recommend::SearchSpace;

/// A planning policy: an [`OnlineController`] the reports can name and
/// score.
///
/// Implementations must be internally synchronised (`&self` decisions) —
/// the runtime shares controllers across threads.
pub trait Policy: OnlineController {
    /// Stable kind label (`"frozen"`, `"online-adaptive"`, `"bandit"`):
    /// scenario files and reports use it to say which brain ran.
    fn kind(&self) -> &'static str;

    /// The current model generation. Fixed at 0 for policies that never
    /// refit; adaptive policies bump it on every refit.
    fn generation(&self) -> u64 {
        0
    }

    /// The per-window γ bookkeeping recorded so far (one sample per
    /// completed observation window).
    fn gamma_trace(&self) -> Vec<GammaSample>;
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
pub(crate) fn observed_reliability(stats: &WindowStats) -> Option<(f64, f64)> {
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
pub(crate) struct DriftSignal {
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
pub(crate) struct DriftDetector {
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
    pub(crate) fn new(window: usize, threshold: f64) -> Self {
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

    /// Folds one error sample in; returns the signal when drift is
    /// detected at this sample.
    pub(crate) fn observe(&mut self, err: f64) -> Option<DriftSignal> {
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

/// The plan made last window, waiting for its observed outcome.
struct PendingPlan {
    features: Features,
    prediction: Prediction,
    phi: f64,
    mu: f64,
    generation: u64,
}

/// γ bookkeeping shared by the model-driven policies: each decide first
/// settles the previous plan against the window's counters, then records
/// the plan [`OnlineModelController::plan`] just made.
#[derive(Default)]
struct GammaTracker {
    pending: Option<PendingPlan>,
    samples: Vec<GammaSample>,
}

impl GammaTracker {
    /// Scores the pending plan against the window's observed reliability,
    /// if any, and returns the planned features with the new sample.
    fn settle(
        &mut self,
        weights: &KpiWeights,
        stats: &WindowStats,
    ) -> Option<(Features, GammaSample)> {
        let plan = self.pending.take()?;
        let (p_loss_obs, p_dup_obs) = observed_reliability(stats)?;
        let sample = GammaSample {
            at_s: stats.at.as_secs_f64(),
            gamma_pred: weights.gamma(
                plan.phi,
                plan.mu,
                plan.prediction.p_loss,
                plan.prediction.p_dup,
            ),
            gamma_obs: weights.gamma(plan.phi, plan.mu, p_loss_obs, p_dup_obs),
            p_loss_pred: plan.prediction.p_loss,
            p_loss_obs,
            p_dup_pred: plan.prediction.p_dup,
            p_dup_obs,
            generation: plan.generation,
        };
        self.samples.push(sample);
        Some((plan.features, sample))
    }

    /// Holds the plan `controller` just made until the next window settles
    /// it.
    fn record<P: Predictor + Send + Sync>(
        &mut self,
        controller: &OnlineModelController<P>,
        features: Features,
        prediction: Prediction,
    ) {
        let inputs = controller.kpi.inputs_with(prediction, &features);
        self.pending = Some(PendingPlan {
            features,
            prediction,
            phi: inputs.phi,
            mu: inputs.mu,
            generation: controller.model_generation(),
        });
    }
}

/// The frozen-ANN γ-planner as a [`Policy`].
///
/// Every decision is one replan of the wrapped
/// [`OnlineModelController`], so a run through this policy decides, and
/// counts cache traffic, exactly as the bare controller does. On top, it
/// keeps the per-window γ trace the regime-shift comparison needs.
pub struct FrozenPolicy<P> {
    controller: OnlineModelController<P>,
    tracker: Mutex<GammaTracker>,
}

impl<P: Predictor + Send + Sync> FrozenPolicy<P> {
    /// Wraps an already-built controller. The calibration and weights
    /// arguments duplicate the controller's own and are ignored: the γ
    /// bookkeeping reads the controller's.
    #[must_use]
    pub fn new(
        controller: OnlineModelController<P>,
        _cal: &Calibration,
        _weights: KpiWeights,
    ) -> Self {
        FrozenPolicy {
            controller,
            tracker: Mutex::default(),
        }
    }
}

impl<P: Predictor + Send + Sync> OnlineController for FrozenPolicy<P> {
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        let tracker = &mut *self.tracker.lock().expect("tracker lock");
        tracker.settle(&self.controller.weights, stats);
        let (cfg, rec, prediction) = self.controller.plan(stats, current);
        tracker.record(&self.controller, rec.features, prediction);
        Some(cfg)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.controller.export_metrics(registry);
    }
}

impl<P: Predictor + Send + Sync> Policy for FrozenPolicy<P> {
    fn kind(&self) -> &'static str {
        "frozen"
    }

    fn generation(&self) -> u64 {
        self.controller.model_generation()
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
    pub(crate) fn validate(&self) -> Result<(), String> {
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
    tracker: GammaTracker,
    events: Vec<TraceEvent>,
    refits: u64,
    /// A drift fired and invalidated the replay buffer; the refit waits
    /// until enough post-drift samples accumulate.
    refit_armed: bool,
}

/// The online-adaptive policy: the frozen planner's loop over a model
/// that *learns from the run it is steering*.
///
/// Each window pairs the previous plan's predicted reliability with the
/// observed pair, feeds the pair into a bounded replay buffer, and pushes
/// the γ prediction error into a `DriftDetector`. On detection the
/// policy refits the live semantics head with deterministic
/// incremental-SGD steps over the replay buffer
/// ([`annet::IncrementalTrainer`] — the same kernels as offline
/// training), bumps the model generation, and invalidates the prediction
/// memo cache, emitting [`TraceEvent::PolicyDrift`] and
/// [`TraceEvent::PolicyRefit`] into the run's trace. Until a refit it
/// decides exactly as a [`FrozenPolicy`] over the same model.
pub struct OnlineAdaptivePolicy {
    controller: OnlineModelController<Mutex<ReliabilityModel>>,
    config: AdaptiveConfig,
    state: Mutex<AdaptiveState>,
}

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
        config.validate().expect("invalid adaptive config");
        OnlineAdaptivePolicy {
            controller: OnlineModelController::new(
                Mutex::new(model),
                cal,
                space,
                weights,
                gamma_requirement,
                message_size,
                timeliness_ms,
            ),
            state: Mutex::new(AdaptiveState {
                detector: DriftDetector::new(config.drift_window, config.drift_threshold),
                replay: VecDeque::with_capacity(config.replay_capacity),
                tracker: GammaTracker::default(),
                events: Vec::new(),
                refits: 0,
                refit_armed: false,
            }),
            config,
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
        let space = &self.controller.space;
        let batches = axis_points(space.batch.0 as f64, space.batch.1 as f64);
        let timeouts = axis_points(space.timeout_ms.0, space.timeout_ms.1);
        let polls = axis_points(space.poll_ms.0, space.poll_ms.1);
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
        let model = &mut *self.controller.predictor.lock().expect("model lock");
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
        self.controller.cache.bump_generation();
        state.refits += 1;
        true
    }
}

impl OnlineController for OnlineAdaptivePolicy {
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        let state = &mut *self.state.lock().expect("state lock");
        // Score last window's plan, bank the observation, watch drift.
        if let Some((features, sample)) = state.tracker.settle(&self.controller.weights, stats) {
            let observation = (features, sample.p_loss_obs, sample.p_dup_obs);
            if state.replay.len() == self.config.replay_capacity {
                state.replay.pop_front();
            }
            state.replay.push_back(observation);
            if state.refit_armed {
                // A drift already cleared the stale buffer; refit as soon
                // as the post-drift evidence suffices. The detector stays
                // paused until the model catches up.
                if self.refit(state, features.semantics) {
                    state.refit_armed = false;
                    state.events.push(TraceEvent::PolicyRefit {
                        at: stats.at,
                        generation: self.controller.model_generation(),
                        samples: state.replay.len() as u64,
                    });
                }
            } else if let Some(signal) = state.detector.observe(sample.gamma_err()) {
                state.events.push(TraceEvent::PolicyDrift {
                    at: stats.at,
                    error: signal.error,
                    baseline: signal.baseline,
                    window: signal.window as u64,
                });
                // The signal dates everything before it: drop the
                // invalidated regime's samples and refit once enough fresh
                // ones accumulate (the triggering window's observation is
                // the first).
                state.replay.clear();
                state.replay.push_back(observation);
                state.refit_armed = true;
            }
        }
        let (cfg, rec, prediction) = self.controller.plan(stats, current);
        state
            .tracker
            .record(&self.controller, rec.features, prediction);
        Some(cfg)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.controller.export_metrics(registry);
        registry.add_to_counter("planner-refit", self.refits());
    }

    fn drain_events(&self, out: &mut Vec<TraceEvent>) {
        out.append(&mut self.state.lock().expect("state lock").events);
    }
}

impl Policy for OnlineAdaptivePolicy {
    fn kind(&self) -> &'static str {
        "online-adaptive"
    }

    fn generation(&self) -> u64 {
        self.controller.model_generation()
    }

    fn gamma_trace(&self) -> Vec<GammaSample> {
        self.state
            .lock()
            .expect("state lock")
            .tracker
            .samples
            .clone()
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
    pub(crate) fn validate(&self) -> Result<(), String> {
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

impl OnlineController for BanditPolicy {
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
        Some(producer_config(&self.arms[arm], &self.cal, current))
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let state = self.state.lock().expect("state lock");
        registry.add_to_counter("bandit-plays", state.total);
        registry.add_to_counter("bandit-arms", self.arms.len() as u64);
        let explored = state.counts.iter().filter(|&&c| c > 0).count() as u64;
        registry.add_to_counter("bandit-arms-explored", explored);
    }
}

impl Policy for BanditPolicy {
    fn kind(&self) -> &'static str {
        "bandit"
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
        let wrapped = frozen_policy();
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
        assert_eq!(bare.cache_stats(), wrapped.controller.cache_stats());
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

    /// With a detector that cannot fire, the adaptive policy is the frozen
    /// planner over a model behind a lock: same configurations, same γ
    /// trace, same cache traffic, same counters but its refit tally.
    #[test]
    fn adaptive_policy_without_drift_decides_like_the_frozen_policy() {
        let cal = Calibration::paper();
        let weights = KpiWeights::paper_default();
        let controller = OnlineModelController::new(
            tiny_model(3),
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
        );
        let frozen = FrozenPolicy::new(controller, &cal, weights);
        let adaptive = OnlineAdaptivePolicy::new(
            tiny_model(3),
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
            AdaptiveConfig {
                drift_window: 3,
                drift_threshold: 1e9,
                refit_steps: 10,
                ..AdaptiveConfig::default()
            },
        );
        let mut cfg_frozen = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        let mut cfg_adaptive = cfg_frozen.clone();
        // The model, stream and detector window that refit in the test
        // above once the threshold lets them.
        for i in 0..24 {
            let (retries, expired) = if i < 8 { (10, 900) } else { (0, 0) };
            let stats = window_at(30 * (i + 1), 100, retries, expired);
            cfg_frozen = frozen.decide(&stats, &cfg_frozen).expect("plans");
            cfg_adaptive = adaptive.decide(&stats, &cfg_adaptive).expect("plans");
            assert_eq!(cfg_frozen, cfg_adaptive, "window {i}");
        }
        assert_eq!(adaptive.refits(), 0);
        assert_eq!(frozen.gamma_trace(), adaptive.gamma_trace());
        assert_eq!(
            frozen.controller.cache_stats(),
            adaptive.controller.cache_stats()
        );
        let (mut a, mut b) = (MetricsRegistry::new(), MetricsRegistry::new());
        frozen.export_metrics(&mut a);
        adaptive.export_metrics(&mut b);
        let mut counters = b.counters().clone();
        assert_eq!(counters.remove("planner-refit"), Some(0));
        assert_eq!(a.counters(), &counters);
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
