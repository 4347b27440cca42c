//! EXT-3 — *online* dynamic configuration.
//!
//! The paper's §V scheme assumes "the network status to be known" and
//! generates configurations offline, explicitly deferring the online
//! algorithm ("running an online algorithm for dynamic configuration is
//! beyond the scope of this paper"). This module implements that deferred
//! piece: a feedback controller that *estimates* the network condition from
//! the producer's own observable statistics (retry fraction, transport RTT)
//! and re-runs the stepwise KPI search on the estimate at every window.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use desim::fasthash::FastMap;
use kafkasim::config::ProducerConfig;
use kafkasim::runtime::{OnlineController, WindowStats};
use obs::{MetricsRegistry, Profiler};
use serde::{Deserialize, Serialize};
use testbed::scenarios::KpiWeights;
use testbed::Calibration;

use crate::features::Features;
use crate::kpi::KpiModel;
use crate::model::{Prediction, Predictor};
use crate::recommend::{Recommendation, Recommender, SearchSpace};

/// Exponentially-weighted estimator of the network condition from
/// producer-observable signals.
///
/// * **Loss**: under `acks=1`, every Kafka-level retry is a request whose
///   first attempt failed; the per-request failure fraction is (for the
///   roughly one-segment requests used here) a direct estimate of the
///   packet-loss rate. Connection resets without retries (fire-and-forget)
///   contribute through the reset count.
/// * **Delay**: the transport's smoothed RTT halves to a one-way estimate.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkEstimator {
    /// Current loss estimate `L̂`.
    pub loss: f64,
    /// Current one-way delay estimate in milliseconds.
    pub delay_ms: f64,
}

/// The estimator's smoothing factor: each window carries half the weight.
const ALPHA: f64 = 0.5;

impl NetworkEstimator {
    /// A fresh estimator assuming a healthy network.
    #[allow(clippy::new_without_default)]
    #[must_use]
    pub fn new() -> Self {
        NetworkEstimator {
            loss: 0.0,
            delay_ms: 1.0,
        }
    }

    /// Folds one window of statistics into the estimate.
    pub fn observe(&mut self, stats: &WindowStats) {
        if stats.requests_sent > 0 {
            let failures = stats.retries + stats.connection_resets;
            let raw = (failures as f64 / stats.requests_sent as f64).clamp(0.0, 0.6);
            self.loss = (1.0 - ALPHA) * self.loss + ALPHA * raw;
        }
        if let Some(srtt) = stats.srtt_ms {
            let one_way = (srtt / 2.0).max(0.1);
            self.delay_ms = (1.0 - ALPHA) * self.delay_ms + ALPHA * one_way;
        }
    }
}

/// The producer configuration that runs a planned point: its batching,
/// polling and timeout under `cal`, keeping the current retry budget (no
/// planner tunes it).
pub(crate) fn producer_config(
    features: &Features,
    cal: &Calibration,
    current: &ProducerConfig,
) -> ProducerConfig {
    let mut cfg = features.to_experiment_point().producer_config(cal);
    cfg.max_retries = current.max_retries.max(cal.max_retries);
    cfg
}

/// Quantum for the loss-rate axis of [`CacheKey`]: 0.1 percentage points.
/// Coarse enough that a converged estimator lands repeatedly in the same
/// cell across replan intervals, far finer than any loss difference that
/// would change a plan.
const LOSS_QUANTUM: f64 = 1e-3;

/// Quantum for every millisecond-valued axis of [`CacheKey`]: 0.1 ms.
const MS_QUANTUM: f64 = 0.1;

/// A [`Features`] value quantized onto the memo-cache lattice.
///
/// Exact fields stay exact; float fields round to their quantum, so
/// near-identical planner queries (successive network estimates that
/// differ in the noise) share a cell. All search-lattice values (batch,
/// timeout, poll steps) sit far apart relative to the quanta, so two
/// *distinct* candidates of one planning problem never collide.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    message_size: u64,
    timeliness: i64,
    delay: i64,
    loss: i64,
    semantics: u8,
    batch_size: usize,
    poll: i64,
    timeout: i64,
    replication_factor: u32,
    fault: i64,
    allow_unclean: bool,
}

impl CacheKey {
    fn quantize(f: &Features) -> Self {
        let q = |x: f64, quantum: f64| (x / quantum).round() as i64;
        CacheKey {
            message_size: f.message_size,
            timeliness: q(f.timeliness_ms, MS_QUANTUM),
            delay: q(f.delay_ms, MS_QUANTUM),
            loss: q(f.loss_rate, LOSS_QUANTUM),
            semantics: f.semantics as u8,
            batch_size: f.batch_size,
            poll: q(f.poll_interval_ms, MS_QUANTUM),
            timeout: q(f.message_timeout_ms, MS_QUANTUM),
            replication_factor: f.replication_factor,
            fault: q(f.fault_downtime_ms, MS_QUANTUM),
            allow_unclean: f.allow_unclean,
        }
    }
}

/// A snapshot of the cache's traffic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to run the model.
    pub misses: u64,
    /// Entries displaced by the capacity bound.
    pub evictions: u64,
    /// Entries currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// `hits / (hits + misses)`, or 0 for an untouched cache.
    #[must_use]
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded memo cache of reliability predictions, keyed by quantized
/// [`Features`] and persisting across replan intervals.
///
/// FIFO eviction keeps the implementation deterministic; the capacity is
/// generous relative to a planning problem's candidate count, so eviction
/// only matters when the network estimate wanders across many cells.
/// Lookups and insertions are thread-safe (single mutex — the map
/// operations are two orders of magnitude cheaper than the inference they
/// shortcut).
#[derive(Debug)]
pub struct PredictionCache {
    inner: Mutex<CacheInner>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    generation: AtomicU64,
}

#[derive(Debug)]
struct CacheInner {
    map: FastMap<CacheKey, Prediction>,
    order: VecDeque<CacheKey>,
}

impl PredictionCache {
    /// An empty cache holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        PredictionCache {
            inner: Mutex::new(CacheInner {
                map: FastMap::default(),
                order: VecDeque::new(),
            }),
            capacity,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            generation: AtomicU64::new(0),
        }
    }

    /// The model generation the cached predictions belong to. Starts at 0
    /// and increments once per [`PredictionCache::bump_generation`].
    #[must_use]
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Invalidates the whole cache after a model refit: every resident
    /// entry is dropped (its predictions came from the previous weights),
    /// the traffic counters reset — hit/miss/evict tallies always describe
    /// the *current* generation, never a mixture — and the generation
    /// counter increments. Closes the silent-staleness window where a
    /// cached γ could outlive the model that produced it.
    pub fn bump_generation(&self) {
        let mut inner = self.inner.lock().expect("cache lock");
        inner.map.clear();
        inner.order.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::Relaxed);
    }

    /// Looks `features` up **without** counting a hit or miss — for
    /// observational reads (γ bookkeeping of an already-planned
    /// configuration) that must not perturb the traffic counters.
    #[must_use]
    pub fn peek(&self, features: &Features) -> Option<Prediction> {
        let key = CacheKey::quantize(features);
        self.inner
            .lock()
            .expect("cache lock")
            .map
            .get(&key)
            .copied()
    }

    /// Looks `features` up, counting the hit or miss.
    pub fn get(&self, features: &Features) -> Option<Prediction> {
        self.get_key(&CacheKey::quantize(features))
    }

    fn get_key(&self, key: &CacheKey) -> Option<Prediction> {
        let found = self.inner.lock().expect("cache lock").map.get(key).copied();
        match found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Stores a prediction, evicting the oldest entry at capacity.
    pub fn insert(&self, features: &Features, prediction: Prediction) {
        self.insert_key(CacheKey::quantize(features), prediction);
    }

    fn insert_key(&self, key: CacheKey, prediction: Prediction) {
        let mut inner = self.inner.lock().expect("cache lock");
        if inner.map.insert(key, prediction).is_none() {
            inner.order.push_back(key);
            if inner.order.len() > self.capacity {
                if let Some(oldest) = inner.order.pop_front() {
                    inner.map.remove(&oldest);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
    }

    /// The current traffic counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: self.inner.lock().expect("cache lock").map.len(),
        }
    }

    /// Publishes the traffic counters into a metrics registry under
    /// `planner-cache-hit` / `planner-cache-miss` / `planner-cache-evict`,
    /// plus the `planner-model-generation` label those counters belong to
    /// (they reset on every generation bump, so the triple always
    /// describes one generation).
    pub fn export_metrics(&self, registry: &mut MetricsRegistry) {
        let stats = self.stats();
        registry.add_to_counter("planner-cache-hit", stats.hits);
        registry.add_to_counter("planner-cache-miss", stats.misses);
        registry.add_to_counter("planner-cache-evict", stats.evictions);
        registry.add_to_counter("planner-model-generation", self.generation());
    }
}

/// Wraps a predictor with a [`PredictionCache`].
///
/// Scalar lookups memoise one row at a time; batched lookups split the
/// batch into hits and misses and run **one** inner `predict_batch` over
/// the misses only. Rows of one batch that share a quantization cell
/// resolve to the first such row's prediction — exactly what sequential
/// scalar calls through the cache would produce.
pub struct CachedPredictor<'a> {
    inner: &'a dyn Predictor,
    cache: &'a PredictionCache,
    prof: Profiler,
}

impl<'a> CachedPredictor<'a> {
    /// Couples `inner` with `cache`.
    #[must_use]
    pub fn new(inner: &'a dyn Predictor, cache: &'a PredictionCache) -> Self {
        CachedPredictor::with_profiler(inner, cache, Profiler::disabled())
    }

    /// [`CachedPredictor::new`] with a span profiler attached: cache
    /// probes and inner-model evaluations of misses get their own spans
    /// (`core.cache-probe`, `core.predict-miss`).
    #[must_use]
    pub fn with_profiler(
        inner: &'a dyn Predictor,
        cache: &'a PredictionCache,
        prof: Profiler,
    ) -> Self {
        CachedPredictor { inner, cache, prof }
    }
}

impl Predictor for CachedPredictor<'_> {
    fn predict(&self, features: &Features) -> Prediction {
        let _probe_guard = self.prof.span("core.cache-probe");
        if let Some(hit) = self.cache.get(features) {
            return hit;
        }
        let prediction = {
            let _miss_guard = self.prof.span("core.predict-miss");
            self.inner.predict(features)
        };
        self.cache.insert(features, prediction);
        prediction
    }

    fn predict_batch(&self, features: &[Features]) -> Vec<Prediction> {
        let probe_guard = self.prof.span("core.cache-probe");
        // Each key is quantized once. A row is a hit, or the index into
        // `missed` of the first row of its cell (first occurrence wins).
        let mut miss_index: FastMap<CacheKey, usize> = FastMap::default();
        let mut missed_keys: Vec<CacheKey> = Vec::new();
        let mut missed: Vec<Features> = Vec::new();
        let rows: Vec<Result<Prediction, usize>> = features
            .iter()
            .map(|f| {
                let key = CacheKey::quantize(f);
                self.cache.get_key(&key).ok_or_else(|| {
                    *miss_index.entry(key).or_insert_with(|| {
                        missed_keys.push(key);
                        missed.push(*f);
                        missed.len() - 1
                    })
                })
            })
            .collect();
        drop(probe_guard);
        let mut fresh = Vec::new();
        if !missed.is_empty() {
            let _miss_guard = self.prof.span("core.predict-miss");
            fresh = self.inner.predict_batch(&missed);
            for (key, p) in missed_keys.into_iter().zip(&fresh) {
                self.cache.insert_key(key, *p);
            }
        }
        rows.into_iter()
            .map(|row| row.unwrap_or_else(|i| fresh[i]))
            .collect()
    }
}

/// The online controller: estimator + predictor + stepwise KPI search.
///
/// Owns its predictor (the runtime shares controllers across threads), so
/// hand it the trained [`crate::ReliabilityModel`] by value or any other
/// `Predictor + Send + Sync`. It is the one planning loop: the frozen and
/// online-adaptive policies of [`crate::policy`] plan through it.
pub struct OnlineModelController<P> {
    pub(crate) predictor: P,
    cal: Calibration,
    pub(crate) kpi: KpiModel,
    pub(crate) space: SearchSpace,
    pub(crate) weights: KpiWeights,
    gamma_requirement: f64,
    message_size: u64,
    timeliness_ms: f64,
    estimator: Mutex<NetworkEstimator>,
    pub(crate) cache: PredictionCache,
    replans: AtomicU64,
    prof: Profiler,
}

/// Memo-cache capacity of [`OnlineModelController`]: a planning problem
/// evaluates at most a few hundred distinct candidates per interval, so
/// this comfortably holds many intervals' worth of network-estimate cells.
const CONTROLLER_CACHE_CAPACITY: usize = 4096;

impl<P: Predictor + Send + Sync> OnlineModelController<P> {
    /// Creates a controller for a stream of `message_size`-byte messages
    /// with the given KPI weights and requirement.
    ///
    /// # Panics
    ///
    /// Panics when `space` fails validation.
    #[must_use]
    pub fn new(
        predictor: P,
        cal: &Calibration,
        space: SearchSpace,
        weights: KpiWeights,
        gamma_requirement: f64,
        message_size: u64,
        timeliness_ms: f64,
    ) -> Self {
        space.validate().expect("invalid search space");
        OnlineModelController {
            predictor,
            kpi: KpiModel::from_calibration(cal),
            cal: cal.clone(),
            space,
            weights,
            gamma_requirement,
            message_size,
            timeliness_ms,
            estimator: Mutex::new(NetworkEstimator::new()),
            cache: PredictionCache::new(CONTROLLER_CACHE_CAPACITY),
            replans: AtomicU64::new(0),
            prof: Profiler::disabled(),
        }
    }

    /// Attaches a span profiler: every replan gets a `core.replan` span,
    /// with `core.cache-probe` / `core.predict-miss` children from the
    /// memo-cached predictor. Profiling is observational only — decisions
    /// are identical with the profiler enabled, disabled, or absent.
    #[must_use]
    pub fn with_profiler(mut self, prof: Profiler) -> Self {
        self.prof = prof;
        self
    }

    /// The current network estimate (for inspection and tests).
    #[must_use]
    pub fn estimate(&self) -> NetworkEstimator {
        *self.estimator.lock().expect("estimator lock")
    }

    /// Traffic counters of the prediction memo cache, which persists
    /// across replan intervals.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// The generation of the model the memo cache currently serves: 0
    /// until a refit of the predictor bumps it.
    #[must_use]
    pub fn model_generation(&self) -> u64 {
        self.cache.generation()
    }

    /// One replan: folds `stats` into the network estimate, runs the
    /// memo-cached stepwise search from the current configuration, and
    /// returns the configuration to run with the recommendation behind it
    /// and the reliability prediction the planner saw for it. That last
    /// read goes through [`PredictionCache::peek`], so the cache traffic
    /// counters count the search alone.
    pub(crate) fn plan(
        &self,
        stats: &WindowStats,
        current: &ProducerConfig,
    ) -> (ProducerConfig, Recommendation, Prediction) {
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
        let _replan_guard = self.prof.span("core.replan");
        let cached =
            CachedPredictor::with_profiler(&self.predictor, &self.cache, self.prof.clone());
        let recommender = Recommender::new(&self.kpi, &cached, self.space.clone());
        let rec = recommender.recommend(&start, &self.weights, self.gamma_requirement);
        let prediction = self
            .cache
            .peek(&rec.features)
            .unwrap_or_else(|| self.predictor.predict(&rec.features));
        let cfg = producer_config(&rec.features, &self.cal, current);
        (cfg, rec, prediction)
    }
}

impl<P: Predictor + Send + Sync> OnlineController for OnlineModelController<P> {
    fn decide(&self, stats: &WindowStats, current: &ProducerConfig) -> Option<ProducerConfig> {
        Some(self.plan(stats, current).0)
    }

    fn export_metrics(&self, registry: &mut MetricsRegistry) {
        self.cache.export_metrics(registry);
        registry.add_to_counter("planner-replan", self.replans.load(Ordering::Relaxed));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FnPredictor, Prediction};
    use desim::{SimDuration, SimTime};
    use kafkasim::config::DeliverySemantics;

    fn window(requests: u64, retries: u64, srtt_ms: Option<f64>) -> WindowStats {
        WindowStats {
            at: SimTime::from_secs(60),
            window: SimDuration::from_secs(60),
            requests_sent: requests,
            acks_received: requests.saturating_sub(retries),
            retries,
            connection_resets: 0,
            expired: 0,
            backlog: 0,
            srtt_ms,
            rtt_p99_ms: None,
            e2e_p99_ms: None,
            batch_fill_mean: None,
        }
    }

    #[test]
    fn estimator_converges_to_observed_failure_fraction() {
        let mut est = NetworkEstimator::new();
        for _ in 0..12 {
            est.observe(&window(100, 20, Some(200.0)));
        }
        assert!((est.loss - 0.20).abs() < 0.01, "L̂ = {}", est.loss);
        assert!((est.delay_ms - 100.0).abs() < 1.0, "D̂ = {}", est.delay_ms);
    }

    #[test]
    fn estimator_recovers_when_network_heals() {
        let mut est = NetworkEstimator::new();
        for _ in 0..8 {
            est.observe(&window(100, 30, Some(300.0)));
        }
        let sick = est.loss;
        for _ in 0..8 {
            est.observe(&window(100, 0, Some(4.0)));
        }
        assert!(est.loss < sick / 10.0, "estimate must decay: {}", est.loss);
        assert!(est.delay_ms < 5.0);
    }

    #[test]
    fn empty_windows_leave_the_estimate_alone() {
        let mut est = NetworkEstimator::new();
        est.observe(&window(100, 40, None));
        let loss = est.loss;
        let delay = est.delay_ms;
        est.observe(&window(0, 0, None));
        assert_eq!(est.loss, loss);
        assert_eq!(est.delay_ms, delay);
    }

    fn controller() -> OnlineModelController<FnPredictor<impl Fn(&Features) -> Prediction>> {
        let predictor = FnPredictor(|f: &Features| Prediction {
            p_loss: (f.loss_rate * 4.0 / (1.0 + (f.batch_size as f64 - 1.0))).min(1.0),
            p_dup: 0.0,
        });
        // Loss-dominated weights: a healthy network already satisfies the
        // requirement unbatched, so only genuine failure feedback should
        // move the configuration.
        OnlineModelController::new(
            predictor,
            &Calibration::paper(),
            SearchSpace::default(),
            KpiWeights::new(0.05, 0.05, 0.85, 0.05).expect("valid"),
            0.9,
            200,
            0.0,
        )
    }

    #[test]
    fn lossy_windows_trigger_batching() {
        let c = controller();
        let base = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        // Healthy windows first: the plan stays light.
        let healthy = c
            .decide(&window(100, 0, Some(4.0)), &base)
            .expect("always plans");
        // Now heavy failure windows: the plan batches up.
        let mut sick = healthy.clone();
        for _ in 0..10 {
            sick = c
                .decide(&window(100, 35, Some(250.0)), &sick)
                .expect("always plans");
        }
        assert!(
            sick.batch_size > healthy.batch_size,
            "failure feedback must increase batching: {} vs {}",
            sick.batch_size,
            healthy.batch_size
        );
        sick.validate().expect("planned configs are valid");
    }

    #[test]
    fn estimate_accessor_reflects_observations() {
        let c = controller();
        let base = ProducerConfig::default();
        let _ = c.decide(&window(100, 50, Some(100.0)), &base);
        assert!(c.estimate().loss > 0.1);
    }

    fn feat(loss: f64, batch: usize) -> Features {
        Features {
            loss_rate: loss,
            batch_size: batch,
            semantics: DeliverySemantics::AtLeastOnce,
            ..Features::default()
        }
    }

    #[test]
    fn cache_counts_hits_misses_and_evictions() {
        let cache = PredictionCache::new(2);
        let p = Prediction {
            p_loss: 0.25,
            p_dup: 0.0,
        };
        assert!(cache.get(&feat(0.1, 1)).is_none());
        cache.insert(&feat(0.1, 1), p);
        assert_eq!(cache.get(&feat(0.1, 1)), Some(p));
        // Within half a quantum of the stored loss rate: same cell.
        assert_eq!(cache.get(&feat(0.1 + LOSS_QUANTUM / 4.0, 1)), Some(p));
        // Two more distinct cells displace the first (FIFO, capacity 2).
        cache.insert(&feat(0.2, 1), p);
        cache.insert(&feat(0.3, 1), p);
        assert!(cache.get(&feat(0.1, 1)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.evictions, 1);
        assert_eq!(stats.entries, 2);
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn generation_bump_clears_entries_and_resets_counters() {
        let cache = PredictionCache::new(8);
        let p = Prediction {
            p_loss: 0.25,
            p_dup: 0.0,
        };
        assert_eq!(cache.generation(), 0);
        cache.insert(&feat(0.1, 1), p);
        cache.insert(&feat(0.2, 1), p);
        assert_eq!(cache.get(&feat(0.1, 1)), Some(p));
        assert!(cache.get(&feat(0.3, 1)).is_none());
        cache.bump_generation();
        // Entries are invalid under the new model generation, and the
        // hit/miss/evict counters restart so exported rates describe the
        // new generation only.
        assert_eq!(cache.generation(), 1);
        let stats = cache.stats();
        assert_eq!(stats.entries, 0);
        assert_eq!(stats.hits, 0);
        assert_eq!(stats.misses, 0);
        assert_eq!(stats.evictions, 0);
        assert!(cache.get(&feat(0.1, 1)).is_none());
        let mut registry = MetricsRegistry::default();
        cache.export_metrics(&mut registry);
        assert_eq!(registry.counter("planner-model-generation"), 1);
        assert_eq!(registry.counter("planner-cache-miss"), 1);
    }

    #[test]
    fn peek_reads_without_touching_counters() {
        let cache = PredictionCache::new(8);
        let p = Prediction {
            p_loss: 0.4,
            p_dup: 0.1,
        };
        cache.insert(&feat(0.1, 2), p);
        assert_eq!(cache.peek(&feat(0.1, 2)), Some(p));
        assert!(cache.peek(&feat(0.9, 2)).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 0, "peek must not count as a hit");
        assert_eq!(stats.misses, 0, "peek must not count as a miss");
    }

    #[test]
    fn cached_predictor_batch_matches_sequential_scalar() {
        let evaluated = AtomicU64::new(0);
        let inner = FnPredictor(|f: &Features| {
            evaluated.fetch_add(1, Ordering::Relaxed);
            Prediction {
                p_loss: (f.loss_rate * 3.0).min(1.0),
                p_dup: 0.01 * f.batch_size as f64,
            }
        });
        let rows: Vec<Features> = vec![
            feat(0.05, 1),
            feat(0.10, 4),
            feat(0.05, 1), // same cell as row 0 within one batch
            feat(0.20, 8),
        ];
        let scalar_cache = PredictionCache::new(64);
        let scalar = CachedPredictor::new(&inner, &scalar_cache);
        let want: Vec<Prediction> = rows.iter().map(|f| scalar.predict(f)).collect();

        let batch_cache = PredictionCache::new(64);
        let batched = CachedPredictor::new(&inner, &batch_cache);
        let got = batched.predict_batch(&rows);
        for (w, g) in want.iter().zip(&got) {
            assert_eq!(w.p_loss.to_bits(), g.p_loss.to_bits());
            assert_eq!(w.p_dup.to_bits(), g.p_dup.to_bits());
        }
        // The duplicate row hit in cache (scalar path) / deduped (batch
        // path): both report exactly one hit and three misses.
        assert_eq!(scalar_cache.stats().hits, 1);
        assert_eq!(batch_cache.stats().hits, 0);
        assert_eq!(batch_cache.stats().misses, rows.len() as u64);
        assert_eq!(batch_cache.stats().entries, 3);
        // The model ran once per cell on each path, never on the duplicate.
        assert_eq!(evaluated.load(Ordering::Relaxed), 3 + 3);
        // A second identical batch is answered entirely from cache.
        let again = batched.predict_batch(&rows);
        assert_eq!(batch_cache.stats().hits, rows.len() as u64);
        for (w, g) in want.iter().zip(&again) {
            assert_eq!(w.p_loss.to_bits(), g.p_loss.to_bits());
        }
    }

    #[test]
    fn controller_reuses_cache_across_replans_and_exports_metrics() {
        let c = controller();
        let base = ProducerConfig {
            semantics: DeliverySemantics::AtLeastOnce,
            ..ProducerConfig::default()
        };
        // Repeated identical windows converge the estimator; once the
        // estimate settles into a quantization cell, further replans
        // revisit the same candidates and hit the memo cache.
        let mut cfg = base;
        let mut replans = 0u64;
        for _ in 0..12 {
            cfg = c.decide(&window(100, 0, Some(4.0)), &cfg).unwrap();
            replans += 1;
        }
        let warm = c.cache_stats();
        assert!(warm.misses > 0, "a cold cache must miss");
        let _ = c.decide(&window(100, 0, Some(4.0)), &cfg);
        replans += 1;
        let after = c.cache_stats();
        assert!(
            after.hits > warm.hits,
            "steady-state replans must hit the memo cache: {after:?}"
        );
        assert_eq!(after.misses, warm.misses, "no new cells at steady state");
        let mut registry = MetricsRegistry::default();
        c.export_metrics(&mut registry);
        assert_eq!(registry.counter("planner-cache-hit"), after.hits);
        assert_eq!(registry.counter("planner-cache-miss"), after.misses);
        assert_eq!(registry.counter("planner-replan"), replans);
    }
}
