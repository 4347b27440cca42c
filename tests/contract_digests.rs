//! The digest contract: what the sweep runner, the trainer, the three
//! prediction paths, both planners and the three control-plane policies
//! produce on fixed inputs, bit for bit.
//!
//! Every constant was recorded at one worker thread by the commit before
//! the one that moved it here, and has been the ROADMAP's contract since
//! the PR named beside it. A change that moves one has changed what the
//! repo computes, whatever it did to speed; `benchmark/` is where speed is
//! measured. The sweep and the grid planner are asserted at 1 and 4
//! threads against those same constants, so each assertion is both the pin
//! and the thread-invariance gate. `ci.sh` runs this file again under
//! `--release`, the profile every measured run executes.
//!
//! The inputs are deliberately full size (48 points × 4 000 messages,
//! 512 rows × 40 epochs on the paper topology): the root manifest builds
//! `annet` at `opt-level = 2` under the dev profile to afford them.

#[path = "support/fnv1a.rs"]
mod fnv1a;

use fnv1a::fnv1a;

use annet::{Dataset, NetworkBuilder, TrainConfig};
use desim::{SimDuration, SimRng, SimTime};
use kafka_predict::kpi::KpiModel;
use kafka_predict::model::{ReliabilityModel, Topology};
use kafka_predict::online::{CachedPredictor, OnlineModelController, PredictionCache};
use kafka_predict::recommend::{Recommendation, Recommender, SearchSpace};
use kafka_predict::{
    train_model, AdaptiveConfig, BanditConfig, BanditPolicy, Features, FrozenPolicy,
    OnlineAdaptivePolicy, Policy, Prediction, Predictor, TrainOptions, TrainedModel,
};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::WindowStats;
use testbed::experiment::ExperimentPoint;
use testbed::scenarios::KpiWeights;
use testbed::sweep::run_sweep;
use testbed::Calibration;

/// FNV-1a 64-bit digest, as the 16 hex digits the docs quote.
fn hex_digest(bytes: &[u8]) -> String {
    format!("{:016x}", fnv1a(bytes))
}

/// The deterministic sweep grid: 48 points covering both semantics, loss,
/// batching, message size, and polling interval.
fn grid() -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for semantics in [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ] {
        for &loss in &[0.0, 0.12, 0.25] {
            for &batch in &[1usize, 6] {
                for &m in &[100u64, 400] {
                    for &poll_ms in &[0u64, 60] {
                        points.push(ExperimentPoint {
                            message_size: m,
                            delay: SimDuration::from_millis(50),
                            loss_rate: loss,
                            semantics,
                            batch_size: batch,
                            poll_interval: SimDuration::from_millis(poll_ms),
                            message_timeout: SimDuration::from_millis(2_000),
                            ..ExperimentPoint::default()
                        });
                    }
                }
            }
        }
    }
    points
}

/// Since PR 3. Half the grid is past the Fig. 7 knee (12–25 % loss), so
/// retries, resets and duplicates are all in the digested results.
#[test]
fn sweep_results_are_pinned_at_one_and_four_threads() {
    let (points, cal) = (grid(), Calibration::paper());
    assert_eq!(points.len(), 48);
    for threads in [1, 4] {
        let results = run_sweep(&points, &cal, 4_000, 99, threads);
        let json = serde_json::to_string(&results).expect("results serialise");
        assert_eq!(
            hex_digest(json.as_bytes()),
            "653d57b1f236a349",
            "{threads} threads"
        );
    }
}

/// A deterministic synthetic regression dataset shaped like the paper's
/// training data: `dims` scaled features in `[0, 1]`, two smooth targets.
fn synth_dataset(samples: usize, dims: usize, seed: u64) -> Dataset {
    let mut rng = SimRng::seed_from_u64(seed);
    let mut x = Vec::with_capacity(samples);
    let mut y = Vec::with_capacity(samples);
    for _ in 0..samples {
        let row: Vec<f64> = (0..dims).map(|_| rng.next_f64()).collect();
        let s: f64 = row.iter().sum::<f64>() / dims as f64;
        let t0 = (s * std::f64::consts::PI).sin().abs();
        let t1 = (row[0] * 0.7 + row[dims - 1] * 0.3).clamp(0.0, 1.0);
        x.push(row);
        y.push(vec![t0, t1]);
    }
    Dataset::from_rows(x, y).expect("aligned synthetic rows")
}

/// Since PR 3: every kernel, layout and scratch change under `annet` since
/// has had to leave these weights where they were.
#[test]
fn trained_weights_are_pinned() {
    let dims = 11;
    let data = synth_dataset(512, dims, 42);
    let mut rng = SimRng::seed_from_u64(17);
    let mut net = NetworkBuilder::paper_topology(dims, 2).build(&mut rng);
    let config = TrainConfig {
        epochs: 40,
        learning_rate: 0.5,
        batch_size: 32,
        shuffle: true,
        momentum: 0.0,
    };
    net.train(&data, &config, &mut rng);
    let json = net.to_json().expect("serialisable network");
    assert_eq!(hex_digest(json.as_bytes()), "7ca78f69a03c7cd7");
}

/// The trained model's weights JSON followed by the `Debug` of its three
/// head evaluations, as one digest.
fn trained_model_digest(trained: &TrainedModel) -> String {
    let mut bytes = trained
        .model
        .to_json()
        .expect("serialisable model")
        .into_bytes();
    let evals = format!("{:?}{:?}{:?}", trained.amo, trained.alo, trained.all);
    bytes.extend_from_slice(evals.as_bytes());
    hex_digest(&bytes)
}

/// Recorded on the sequential trainer, before the heads trained
/// concurrently. `grid()` has no `acks=all` point, so the third head stays
/// untrained.
#[test]
fn train_model_without_acks_all_rows_is_pinned() {
    let results = run_sweep(&grid(), &Calibration::paper(), 600, 7, 2);
    let trained = train_model(&results, &TrainOptions::fast(), 3).expect("both heads train");
    assert!(trained.all.is_none());
    assert_eq!(trained_model_digest(&trained), "e18ee4a68aacfed4");
}

/// Recorded on the sequential trainer, before the heads trained
/// concurrently: the paper topology, with twelve `acks=all` points beside
/// `grid()`, so all three heads train.
#[test]
fn train_model_with_acks_all_rows_is_pinned() {
    let mut points = grid();
    for &loss in &[0.0, 0.12, 0.25] {
        for &batch in &[1usize, 6] {
            for &m in &[100u64, 400] {
                points.push(ExperimentPoint {
                    message_size: m,
                    delay: SimDuration::from_millis(50),
                    loss_rate: loss,
                    semantics: DeliverySemantics::All,
                    batch_size: batch,
                    message_timeout: SimDuration::from_millis(2_000),
                    ..ExperimentPoint::default()
                });
            }
        }
    }
    let results = run_sweep(&points, &Calibration::paper(), 600, 7, 2);
    let mut options = TrainOptions::paper();
    options.sgd.epochs = 20;
    let trained = train_model(&results, &options, 3).expect("all three heads train");
    assert!(trained.all.expect("the acks=all head trains").train_samples >= 8);
    assert_eq!(trained_model_digest(&trained), "d27c7474d9ab1f3b");
}

/// Deterministic feature rows shaped like planner candidates: every axis
/// inside its Fig. 3 range, all three semantics represented.
fn infer_workload(n: usize, seed: u64) -> Vec<Features> {
    let mut rng = SimRng::seed_from_u64(seed);
    let semantics = [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
        DeliverySemantics::All,
    ];
    (0..n)
        .map(|i| Features {
            message_size: 50 + (rng.next_f64() * 950.0) as u64,
            timeliness_ms: rng.next_f64() * 5_000.0,
            delay_ms: rng.next_f64() * 200.0,
            loss_rate: rng.next_f64() * 0.5,
            semantics: semantics[i % semantics.len()],
            batch_size: 1 + (rng.next_f64() * 9.0) as usize,
            poll_interval_ms: rng.next_f64() * 90.0,
            message_timeout_ms: 200.0 + rng.next_f64() * 2_800.0,
            ..Features::default()
        })
        .collect()
}

/// FNV-1a over the raw bits of a prediction vector, in row order.
fn predictions_digest(preds: &[Prediction]) -> String {
    let mut bytes = Vec::with_capacity(preds.len() * 16);
    for p in preds {
        bytes.extend_from_slice(&p.p_loss.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.p_dup.to_bits().to_le_bytes());
    }
    hex_digest(&bytes)
}

/// Since PR 4. The cached path runs twice, answering once from the model
/// (all misses) and once from the memo (all hits).
#[test]
fn scalar_batched_and_cached_predictions_are_one_pinned_digest() {
    const WANT: &str = "b80b5fec2eab0240";
    let workload = infer_workload(512, 23);
    let mut rng = SimRng::seed_from_u64(5);
    let model = ReliabilityModel::new(Topology::Paper, &mut rng);
    let scalar: Vec<_> = workload.iter().map(|f| model.predict(f)).collect();
    assert_eq!(predictions_digest(&scalar), WANT, "scalar");
    let batched = model.predict_batch(&workload);
    assert_eq!(predictions_digest(&batched), WANT, "batched");
    let cache = PredictionCache::new(8_192);
    let cached = CachedPredictor::new(&model, &cache);
    for pass in ["all misses", "all hits"] {
        let memoised = cached.predict_batch(&workload);
        assert_eq!(predictions_digest(&memoised), WANT, "cached, {pass}");
    }
    let stats = cache.stats();
    assert_eq!((stats.misses, stats.hits), (512, 512));
}

/// What the planner digest covers of one recommendation.
fn push_recommendation(bytes: &mut Vec<u8>, rec: &Recommendation) {
    bytes.extend_from_slice(&rec.gamma.to_bits().to_le_bytes());
    bytes.extend_from_slice(&(rec.features.batch_size as u64).to_le_bytes());
    bytes.extend_from_slice(&rec.features.message_timeout_ms.to_bits().to_le_bytes());
}

/// Since PR 4: 12 greedy replans, then 3 exhaustive grid replans, over
/// network conditions that worsen step by step. The grid scan shards its
/// candidates over `threads` workers; the recommendation may not move.
#[test]
fn planner_recommendations_are_pinned_at_one_and_four_threads() {
    let mut rng = SimRng::seed_from_u64(5);
    let model = ReliabilityModel::new(Topology::Paper, &mut rng);
    let kpi = KpiModel::from_calibration(&Calibration::paper());
    let weights = KpiWeights::paper_default();
    let recommender = Recommender::new(&kpi, &model, SearchSpace::default());
    let starts: Vec<Features> = (0..12)
        .map(|i| Features {
            message_size: 200,
            delay_ms: 10.0 + 15.0 * i as f64,
            loss_rate: 0.04 * i as f64,
            semantics: DeliverySemantics::AtLeastOnce,
            batch_size: 1,
            poll_interval_ms: 0.0,
            message_timeout_ms: 2_000.0,
            ..Features::default()
        })
        .collect();
    let mut greedy = Vec::new();
    for s in &starts {
        push_recommendation(&mut greedy, &recommender.recommend(s, &weights, 0.9));
    }
    for threads in [1, 4] {
        let mut bytes = greedy.clone();
        for s in &starts[..3] {
            let rec = recommender.recommend_grid(s, &weights, 0.9, threads);
            push_recommendation(&mut bytes, &rec);
        }
        assert_eq!(hex_digest(&bytes), "749d4a159b87c5b5", "{threads} threads");
    }
}

/// The synthetic per-window producer counters the policies plan against:
/// a lossy first half, then a calm regime for the rest. The order matters:
/// the untrained model predicts heavy loss everywhere, so the lossy phase
/// is the low-error baseline and the calm phase is the error *increase*
/// the drift detector fires on — which puts the refit path inside what the
/// online digest covers.
fn planner_windows(windows: usize) -> Vec<WindowStats> {
    (0..windows)
        .map(|i| {
            let (retries, expired) = if i < windows / 2 { (30, 5) } else { (0, 0) };
            WindowStats {
                at: SimTime::from_secs(30 * (i as u64 + 1)),
                window: SimDuration::from_secs(30),
                requests_sent: 100,
                acks_received: 100 - retries,
                retries,
                connection_resets: 0,
                expired,
                backlog: 0,
                srtt_ms: Some(20.0 + i as f64),
                rtt_p99_ms: None,
                e2e_p99_ms: None,
                batch_fill_mean: Some(1.0),
            }
        })
        .collect()
}

/// Drives one freshly-built policy through the 48-window stream and
/// digests the configuration in force after every window.
fn drive_policy<P: Policy>(policy: &P) -> String {
    let mut cfg = ProducerConfig {
        semantics: DeliverySemantics::AtLeastOnce,
        ..ProducerConfig::default()
    };
    let mut bytes = Vec::new();
    for stats in &planner_windows(48) {
        if let Some(next) = policy.decide(stats, &cfg) {
            cfg = next;
        }
        bytes.extend_from_slice(&(cfg.batch_size as u64).to_le_bytes());
        bytes.extend_from_slice(&cfg.poll_interval.as_micros().to_le_bytes());
        bytes.extend_from_slice(&cfg.message_timeout.as_micros().to_le_bytes());
        bytes.extend_from_slice(&u64::from(cfg.max_retries).to_le_bytes());
        bytes.push(cfg.semantics as u8);
    }
    hex_digest(&bytes)
}

/// The untrained paper-topology model every policy below starts from.
fn policy_model() -> ReliabilityModel {
    ReliabilityModel::new(Topology::Paper, &mut SimRng::seed_from_u64(11))
}

/// Since PR 10.
#[test]
fn frozen_policy_configs_are_pinned() {
    let (cal, weights) = (Calibration::paper(), KpiWeights::paper_default());
    let controller = OnlineModelController::new(
        policy_model(),
        &cal,
        SearchSpace::default(),
        weights,
        0.9,
        200,
        0.0,
    );
    let policy = FrozenPolicy::new(controller, &cal, weights);
    assert_eq!(drive_policy(&policy), "bfba7a4b4c622bfc");
    assert_eq!(policy.generation(), 0, "the frozen policy never refits");
}

/// Since PR 10. The stream must drive at least one refit, and each refit
/// must bump the prediction cache's generation, or the configurations after
/// it were planned against stale memoised predictions.
#[test]
fn online_policy_configs_are_pinned_across_a_refit() {
    let adaptive = AdaptiveConfig {
        drift_window: 3,
        drift_threshold: 0.02,
        refit_steps: 40,
        ..AdaptiveConfig::default()
    };
    let policy = OnlineAdaptivePolicy::new(
        policy_model(),
        &Calibration::paper(),
        SearchSpace::default(),
        KpiWeights::paper_default(),
        0.9,
        200,
        0.0,
        adaptive,
    );
    assert_eq!(drive_policy(&policy), "a4504944ff46a3a8");
    assert!(policy.refits() >= 1, "the calm half must trigger a refit");
    assert_eq!(
        policy.refits(),
        policy.generation(),
        "one generation per refit"
    );
}

/// Since PR 10.
#[test]
fn bandit_policy_configs_are_pinned() {
    let policy = BanditPolicy::new(
        &Calibration::paper(),
        &SearchSpace::default(),
        KpiWeights::paper_default(),
        200,
        0.0,
        BanditConfig::default(),
    );
    assert_eq!(policy.arm_count(), 54);
    assert_eq!(drive_policy(&policy), "c9fdd55109607630");
}
