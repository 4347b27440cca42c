//! `perfbase` — the tracked performance baseline.
//!
//! Emits `BENCH_sim.json`, `BENCH_train.json` and `BENCH_infer.json` so
//! every PR has a trajectory to beat:
//!
//! * **sim**: wall-clock and msgs/sec for a deterministic sweep grid plus a
//!   single large run, and the `obs` overhead of a Noop-sink traced run
//!   versus the untraced path (both must be within noise of each other).
//! * **train**: wall-clock and epochs/sec for SGD on the paper topology,
//!   plus a digest of the trained weights so speedups can be shown to
//!   preserve bit-identical results.
//! * **infer**: predictions/sec through the paper-topology reliability
//!   model via the scalar, batched, and memo-cached paths (interleaved
//!   A/B/C rounds), plus greedy and grid planner replans/sec. One digest
//!   covers all three prediction paths — they are asserted bit-identical
//!   before it is written.
//!
//! All files carry FNV-1a digests of the results; two builds that disagree
//! on a digest did *not* run the same computation, whatever their speed.
//!
//! ```text
//! perfbase [--smoke] [--out-dir DIR] [--threads N]
//! ```
//!
//! `--smoke` shrinks every workload to a few seconds for CI; the digests
//! remain deterministic per mode.

use std::time::Instant;

use annet::{Dataset, NetworkBuilder, TrainConfig};
use desim::SimTime;
use desim::{SimDuration, SimRng};
use kafka_predict::kpi::KpiModel;
use kafka_predict::model::{ReliabilityModel, Topology};
use kafka_predict::online::{CachedPredictor, OnlineModelController, PredictionCache};
use kafka_predict::recommend::{Recommender, SearchSpace};
use kafka_predict::{
    AdaptiveConfig, BanditConfig, BanditPolicy, Features, FrozenPolicy, OnlineAdaptivePolicy,
    Policy, Predictor,
};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::KafkaRun;
use kafkasim::runtime::WindowStats;
use testbed::experiment::ExperimentPoint;
use testbed::scenarios::KpiWeights;
use testbed::sweep::run_sweep;
use testbed::Calibration;

/// PR 8's tracked full-mode single-run throughput (msgs/sec), carried
/// forward in the `baselines` block of `BENCH_sim.json` so CI can compare a
/// fresh build against the last pre-refactor baseline.
const PR8_SINGLE_RUN_MSGS_PER_SEC: f64 = 2_301_490.9;
/// PR 8's tracked full-mode sweep throughput (msgs/sec).
const PR8_SWEEP_MSGS_PER_SEC: f64 = 956_563.2;

/// FNV-1a 64-bit digest of a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Peak resident set size in kilobytes (`VmHWM` from `/proc/self/status`),
/// or 0 where the proc filesystem is unavailable.
fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
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

struct SimNumbers {
    mode: &'static str,
    threads: usize,
    points: usize,
    n_messages: u64,
    sweep_wall_s: f64,
    sweep_msgs_per_sec: f64,
    results_digest: u64,
    single_run_msgs: u64,
    single_run_wall_s: f64,
    single_run_msgs_per_sec: f64,
    obs_reps: usize,
    obs_untraced_wall_s: f64,
    obs_noop_wall_s: f64,
    obs_overhead_ratio: f64,
}

fn bench_sim(smoke: bool, threads: usize) -> SimNumbers {
    let cal = Calibration::paper();
    let points = grid();
    let n_messages: u64 = if smoke { 200 } else { 4_000 };

    let start = Instant::now();
    let results = run_sweep(&points, &cal, n_messages, 99, threads);
    let sweep_wall_s = start.elapsed().as_secs_f64();
    let json = serde_json::to_string(&results).expect("results serialize");
    let results_digest = fnv1a(json.as_bytes());

    // One big single-threaded full-load run: raw simulator throughput.
    let single_run_msgs: u64 = if smoke { 2_000 } else { 60_000 };
    let point = ExperimentPoint {
        batch_size: 8,
        poll_interval: SimDuration::ZERO,
        loss_rate: 0.02,
        delay: SimDuration::from_millis(20),
        ..ExperimentPoint::default()
    };
    let start = Instant::now();
    let single = point.run(&cal, single_run_msgs, 7);
    let single_run_wall_s = start.elapsed().as_secs_f64();
    assert_eq!(single.report.n_source, single_run_msgs);

    // obs overhead: untraced execute vs Noop-sink traced execute must be
    // within noise of each other once event construction is gated off.
    // Interleaved min-of-N: each repetition times both paths back to
    // back and the per-path minimum is kept, so one-off scheduler or
    // thermal drift can neither masquerade as tracing overhead nor hide
    // it (a single-shot measurement reported ratios as low as 0.89 on
    // otherwise identical code).
    let obs_msgs: u64 = if smoke { 2_000 } else { 30_000 };
    let obs_reps = if smoke { 3 } else { 5 };
    let spec = point.to_run_spec(&cal, obs_msgs);
    let mut obs_untraced_wall_s = f64::INFINITY;
    let mut obs_noop_wall_s = f64::INFINITY;
    for _ in 0..obs_reps {
        let start = Instant::now();
        let untraced = KafkaRun::new(spec.clone(), 11).execute();
        obs_untraced_wall_s = obs_untraced_wall_s.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let (noop, _) = KafkaRun::new(spec.clone(), 11).execute_traced(Box::new(obs::NoopSink));
        obs_noop_wall_s = obs_noop_wall_s.min(start.elapsed().as_secs_f64());
        assert_eq!(
            untraced.report, noop.report,
            "Noop-sink run must match untraced run exactly"
        );
    }
    let obs_overhead_ratio = obs_noop_wall_s / obs_untraced_wall_s;
    assert!(
        (0.75..=2.5).contains(&obs_overhead_ratio),
        "obs noop/untraced ratio {obs_overhead_ratio:.3} is outside the sane band \
         [0.75, 2.5]: either the measurement is still noise or sink gating regressed"
    );

    SimNumbers {
        mode: if smoke { "smoke" } else { "full" },
        threads,
        points: points.len(),
        n_messages,
        sweep_wall_s,
        sweep_msgs_per_sec: (points.len() as u64 * n_messages) as f64 / sweep_wall_s,
        results_digest,
        single_run_msgs,
        single_run_wall_s,
        single_run_msgs_per_sec: single_run_msgs as f64 / single_run_wall_s,
        obs_reps,
        obs_untraced_wall_s,
        obs_noop_wall_s,
        obs_overhead_ratio,
    }
}

struct TrainNumbers {
    mode: &'static str,
    samples: usize,
    epochs: usize,
    wall_s: f64,
    epochs_per_sec: f64,
    final_mse: f64,
    weights_digest: u64,
}

fn bench_train(smoke: bool) -> TrainNumbers {
    let dims = ExperimentPoint::FEATURES;
    let samples = if smoke { 64 } else { 512 };
    let epochs = if smoke { 3 } else { 40 };
    let data = synth_dataset(samples, dims, 42);
    let mut rng = SimRng::seed_from_u64(17);
    let mut net = NetworkBuilder::paper_topology(dims, 2).build(&mut rng);
    let config = TrainConfig {
        epochs,
        learning_rate: 0.5,
        batch_size: 32,
        shuffle: true,
        momentum: 0.0,
    };
    let start = Instant::now();
    let report = net.train(&data, &config, &mut rng);
    let wall_s = start.elapsed().as_secs_f64();
    let weights_digest = fnv1a(net.to_json().expect("serializable network").as_bytes());
    TrainNumbers {
        mode: if smoke { "smoke" } else { "full" },
        samples,
        epochs,
        wall_s,
        epochs_per_sec: epochs as f64 / wall_s,
        final_mse: report.final_loss(),
        weights_digest,
    }
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
fn predictions_digest(preds: &[kafka_predict::Prediction]) -> u64 {
    let mut bytes = Vec::with_capacity(preds.len() * 16);
    for p in preds {
        bytes.extend_from_slice(&p.p_loss.to_bits().to_le_bytes());
        bytes.extend_from_slice(&p.p_dup.to_bits().to_le_bytes());
    }
    fnv1a(&bytes)
}

struct InferNumbers {
    mode: &'static str,
    rows: usize,
    reps: usize,
    scalar_wall_s: f64,
    batched_wall_s: f64,
    cached_wall_s: f64,
    scalar_preds_per_sec: f64,
    batched_preds_per_sec: f64,
    cached_preds_per_sec: f64,
    cache_hits: u64,
    cache_misses: u64,
    cache_hit_rate: f64,
    predictions_digest: u64,
    greedy_replans: usize,
    greedy_replans_per_sec: f64,
    grid_replans: usize,
    grid_replans_per_sec: f64,
    grid_threads: usize,
    planner_digest: u64,
}

fn bench_infer(smoke: bool, threads: usize) -> InferNumbers {
    let rows = if smoke { 128 } else { 512 };
    let reps = if smoke { 4 } else { 40 };
    let workload = infer_workload(rows, 23);
    let mut rng = SimRng::seed_from_u64(5);
    let model = ReliabilityModel::new(Topology::Paper, &mut rng);

    // Interleaved A/B/C rounds: each repetition times all three paths back
    // to back, so drift (thermal, scheduler) hits them equally.
    let cache = PredictionCache::new(8_192);
    let cached = CachedPredictor::new(&model, &cache);
    let mut scalar_wall_s = 0.0;
    let mut batched_wall_s = 0.0;
    let mut cached_wall_s = 0.0;
    let mut digest: Option<u64> = None;
    for _ in 0..reps {
        let start = Instant::now();
        let scalar: Vec<_> = workload.iter().map(|f| model.predict(f)).collect();
        scalar_wall_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let batched = model.predict_batch(&workload);
        batched_wall_s += start.elapsed().as_secs_f64();

        let start = Instant::now();
        let memoised = cached.predict_batch(&workload);
        cached_wall_s += start.elapsed().as_secs_f64();

        let d = predictions_digest(&scalar);
        assert_eq!(
            d,
            predictions_digest(&batched),
            "batched predictions must be bit-identical to scalar"
        );
        assert_eq!(
            d,
            predictions_digest(&memoised),
            "cached predictions must be bit-identical to scalar"
        );
        if let Some(prev) = digest {
            assert_eq!(prev, d, "repetitions must be deterministic");
        }
        digest = Some(d);
    }
    let stats = cache.stats();
    let total_preds = (rows * reps) as f64;

    // Planner replans: distinct network conditions drive the same search a
    // controller would run per interval. The digest pins the recommended
    // configurations, so planner speedups are provably behaviour-preserving.
    let cal = Calibration::paper();
    let kpi = KpiModel::from_calibration(&cal);
    let weights = KpiWeights::paper_default();
    let recommender = Recommender::new(&kpi, &model, SearchSpace::default());
    let greedy_replans = if smoke { 3 } else { 12 };
    let grid_replans = if smoke { 1 } else { 3 };
    let starts: Vec<Features> = (0..greedy_replans.max(grid_replans))
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
    let mut planner_bytes = Vec::new();
    let start = Instant::now();
    for s in starts.iter().take(greedy_replans) {
        let rec = recommender.recommend(s, &weights, 0.9);
        planner_bytes.extend_from_slice(&rec.gamma.to_bits().to_le_bytes());
        planner_bytes.extend_from_slice(&(rec.features.batch_size as u64).to_le_bytes());
        planner_bytes.extend_from_slice(&rec.features.message_timeout_ms.to_bits().to_le_bytes());
    }
    let greedy_wall_s = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for s in starts.iter().take(grid_replans) {
        let rec = recommender.recommend_grid(s, &weights, 0.9, threads);
        planner_bytes.extend_from_slice(&rec.gamma.to_bits().to_le_bytes());
        planner_bytes.extend_from_slice(&(rec.features.batch_size as u64).to_le_bytes());
        planner_bytes.extend_from_slice(&rec.features.message_timeout_ms.to_bits().to_le_bytes());
    }
    let grid_wall_s = start.elapsed().as_secs_f64();

    InferNumbers {
        mode: if smoke { "smoke" } else { "full" },
        rows,
        reps,
        scalar_wall_s,
        batched_wall_s,
        cached_wall_s,
        scalar_preds_per_sec: total_preds / scalar_wall_s,
        batched_preds_per_sec: total_preds / batched_wall_s,
        cached_preds_per_sec: total_preds / cached_wall_s,
        cache_hits: stats.hits,
        cache_misses: stats.misses,
        cache_hit_rate: stats.hit_rate(),
        predictions_digest: digest.expect("at least one repetition"),
        greedy_replans,
        greedy_replans_per_sec: greedy_replans as f64 / greedy_wall_s,
        grid_replans,
        grid_replans_per_sec: grid_replans as f64 / grid_wall_s,
        grid_threads: threads,
        planner_digest: fnv1a(&planner_bytes),
    }
}

/// One policy's measured numbers in `BENCH_planner.json`.
struct PolicyNumbers {
    decides: usize,
    wall_s: f64,
    refits: u64,
    generation: u64,
    configs_digest: u64,
}

/// All three control-plane policies over one synthetic window stream.
struct PlannerNumbers {
    mode: &'static str,
    windows: usize,
    reps: usize,
    frozen: PolicyNumbers,
    online: PolicyNumbers,
    bandit: PolicyNumbers,
    bandit_arms: usize,
}

///// The synthetic per-window producer counters the policies plan against:
/// a lossy first half, then a calm regime for the rest. The order matters:
/// the untrained benchmark model predicts heavy loss everywhere, so the
/// lossy phase is the low-error baseline and the calm phase is the error
/// *increase* the drift detector fires on — which puts the refit path
/// inside what this baseline times.
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

/// Drives one freshly-built policy through the window stream, returning
/// wall time and the FNV-1a digest of every chosen configuration.
fn drive_policy<P: Policy>(policy: &P, windows: &[WindowStats]) -> (f64, u64) {
    let mut cfg = ProducerConfig {
        semantics: DeliverySemantics::AtLeastOnce,
        ..ProducerConfig::default()
    };
    let mut bytes = Vec::new();
    let start = Instant::now();
    for stats in windows {
        if let Some(next) = policy.decide(stats, &cfg) {
            cfg = next;
        }
        bytes.extend_from_slice(&(cfg.batch_size as u64).to_le_bytes());
        bytes.extend_from_slice(&cfg.poll_interval.as_micros().to_le_bytes());
        bytes.extend_from_slice(&cfg.message_timeout.as_micros().to_le_bytes());
        bytes.extend_from_slice(&u64::from(cfg.max_retries).to_le_bytes());
        bytes.push(cfg.semantics as u8);
    }
    (start.elapsed().as_secs_f64(), fnv1a(&bytes))
}

fn bench_planner(smoke: bool) -> PlannerNumbers {
    let windows = if smoke { 16 } else { 48 };
    let reps = if smoke { 2 } else { 5 };
    let stream = planner_windows(windows);
    let cal = Calibration::paper();
    let weights = KpiWeights::paper_default();
    let mut rng = SimRng::seed_from_u64(11);
    let model = ReliabilityModel::new(Topology::Paper, &mut rng);
    let adaptive = AdaptiveConfig {
        drift_window: 3,
        drift_threshold: 0.02,
        refit_steps: 40,
        ..AdaptiveConfig::default()
    };

    // Policies are stateful, so every repetition drives a fresh instance;
    // repetitions must agree on the chosen-config digest bit-for-bit.
    let run = |build_digest: &mut dyn FnMut() -> (f64, u64, u64, u64)| -> PolicyNumbers {
        let mut wall_s = 0.0;
        let mut digest: Option<u64> = None;
        let (mut refits, mut generation) = (0, 0);
        for _ in 0..reps {
            let (w, d, r, g) = build_digest();
            wall_s += w;
            if let Some(prev) = digest {
                assert_eq!(prev, d, "policy repetitions must be deterministic");
            }
            digest = Some(d);
            refits = r;
            generation = g;
        }
        PolicyNumbers {
            decides: windows * reps,
            wall_s,
            refits,
            generation,
            configs_digest: digest.expect("at least one repetition"),
        }
    };

    let frozen = run(&mut || {
        let controller = OnlineModelController::new(
            model.clone(),
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
        );
        let policy = FrozenPolicy::new(controller, &cal, weights);
        let (w, d) = drive_policy(&policy, &stream);
        (w, d, 0, policy.generation())
    });
    assert_eq!(frozen.generation, 0, "the frozen policy must never refit");

    let online = run(&mut || {
        let policy = OnlineAdaptivePolicy::new(
            model.clone(),
            &cal,
            SearchSpace::default(),
            weights,
            0.9,
            200,
            0.0,
            adaptive,
        );
        let (w, d) = drive_policy(&policy, &stream);
        (w, d, policy.refits(), policy.generation())
    });
    assert!(
        online.refits >= 1,
        "the synthetic stream must drive at least one refit so the refit \
         path is part of the timed baseline"
    );
    assert_eq!(online.refits, online.generation, "one generation per refit");

    let mut bandit_arms = 0;
    let bandit = run(&mut || {
        let policy = BanditPolicy::new(
            &cal,
            &SearchSpace::default(),
            weights,
            200,
            0.0,
            BanditConfig::default(),
        );
        bandit_arms = policy.arm_count();
        let (w, d) = drive_policy(&policy, &stream);
        (w, d, 0, policy.generation())
    });

    PlannerNumbers {
        mode: if smoke { "smoke" } else { "full" },
        windows,
        reps,
        frozen,
        online,
        bandit,
        bandit_arms,
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let mut out_dir = String::from(".");
    let mut threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--out-dir" => out_dir = it.next().expect("--out-dir DIR").clone(),
            "--threads" => threads = it.next().expect("--threads N").parse().expect("N"),
            "--smoke" => {}
            other => {
                eprintln!("usage: perfbase [--smoke] [--out-dir DIR] [--threads N]; got {other}");
                std::process::exit(2);
            }
        }
    }
    std::fs::create_dir_all(&out_dir).expect("create out dir");

    let sim = bench_sim(smoke, threads);
    let sim_json = serde_json::json!({
        "mode": sim.mode,
        "threads": sim.threads,
        "sweep": serde_json::json!({
            "points": sim.points,
            "n_messages": sim.n_messages,
            "wall_s": sim.sweep_wall_s,
            "msgs_per_sec": sim.sweep_msgs_per_sec,
            "results_digest": format!("{:016x}", sim.results_digest),
        }),
        "single_run": serde_json::json!({
            "n_messages": sim.single_run_msgs,
            "wall_s": sim.single_run_wall_s,
            "msgs_per_sec": sim.single_run_msgs_per_sec,
        }),
        "obs_overhead": serde_json::json!({
            "reps": sim.obs_reps,
            "untraced_wall_s": sim.obs_untraced_wall_s,
            "noop_wall_s": sim.obs_noop_wall_s,
            "noop_over_untraced": sim.obs_overhead_ratio,
        }),
        "baselines": serde_json::json!({
            // Carried forward from the previous tracked BENCH_sim.json so CI
            // can band-check a fresh build even after this file is refreshed.
            "pr8_single_run_msgs_per_sec": PR8_SINGLE_RUN_MSGS_PER_SEC,
            "pr8_sweep_msgs_per_sec": PR8_SWEEP_MSGS_PER_SEC,
        }),
        "peak_rss_kb": peak_rss_kb(),
    });
    let sim_path = format!("{out_dir}/BENCH_sim.json");
    std::fs::write(&sim_path, serde_json::to_string_pretty(&sim_json).unwrap())
        .expect("write BENCH_sim.json");

    let train = bench_train(smoke);
    let train_json = serde_json::json!({
        "mode": train.mode,
        "samples": train.samples,
        "epochs": train.epochs,
        "wall_s": train.wall_s,
        "epochs_per_sec": train.epochs_per_sec,
        "final_mse": train.final_mse,
        "weights_digest": format!("{:016x}", train.weights_digest),
        "peak_rss_kb": peak_rss_kb(),
    });
    let train_path = format!("{out_dir}/BENCH_train.json");
    std::fs::write(
        &train_path,
        serde_json::to_string_pretty(&train_json).unwrap(),
    )
    .expect("write BENCH_train.json");

    let infer = bench_infer(smoke, threads);
    let infer_json = serde_json::json!({
        "mode": infer.mode,
        "rows": infer.rows,
        "reps": infer.reps,
        "scalar": serde_json::json!({
            "wall_s": infer.scalar_wall_s,
            "predictions_per_sec": infer.scalar_preds_per_sec,
        }),
        "batched": serde_json::json!({
            "wall_s": infer.batched_wall_s,
            "predictions_per_sec": infer.batched_preds_per_sec,
            "speedup_over_scalar": infer.batched_preds_per_sec / infer.scalar_preds_per_sec,
        }),
        "cached": serde_json::json!({
            "wall_s": infer.cached_wall_s,
            "predictions_per_sec": infer.cached_preds_per_sec,
            "speedup_over_scalar": infer.cached_preds_per_sec / infer.scalar_preds_per_sec,
            "hits": infer.cache_hits,
            "misses": infer.cache_misses,
            "hit_rate": infer.cache_hit_rate,
        }),
        "predictions_digest": format!("{:016x}", infer.predictions_digest),
        "planner": serde_json::json!({
            "greedy_replans": infer.greedy_replans,
            "greedy_replans_per_sec": infer.greedy_replans_per_sec,
            "grid_replans": infer.grid_replans,
            "grid_replans_per_sec": infer.grid_replans_per_sec,
            "grid_threads": infer.grid_threads,
            "planner_digest": format!("{:016x}", infer.planner_digest),
        }),
        "peak_rss_kb": peak_rss_kb(),
    });
    let infer_path = format!("{out_dir}/BENCH_infer.json");
    std::fs::write(
        &infer_path,
        serde_json::to_string_pretty(&infer_json).unwrap(),
    )
    .expect("write BENCH_infer.json");

    let planner = bench_planner(smoke);
    let planner_json = serde_json::json!({
        "mode": planner.mode,
        "windows": planner.windows,
        "reps": planner.reps,
        "frozen": serde_json::json!({
            "decides": planner.frozen.decides,
            "wall_s": planner.frozen.wall_s,
            "decides_per_sec": planner.frozen.decides as f64 / planner.frozen.wall_s,
            "configs_digest": format!("{:016x}", planner.frozen.configs_digest),
        }),
        "online": serde_json::json!({
            "decides": planner.online.decides,
            "wall_s": planner.online.wall_s,
            "decides_per_sec": planner.online.decides as f64 / planner.online.wall_s,
            "configs_digest": format!("{:016x}", planner.online.configs_digest),
            "refits": planner.online.refits,
            "generation": planner.online.generation,
        }),
        "bandit": serde_json::json!({
            "decides": planner.bandit.decides,
            "wall_s": planner.bandit.wall_s,
            "decides_per_sec": planner.bandit.decides as f64 / planner.bandit.wall_s,
            "configs_digest": format!("{:016x}", planner.bandit.configs_digest),
            "arms": planner.bandit_arms,
        }),
        "peak_rss_kb": peak_rss_kb(),
    });
    let planner_path = format!("{out_dir}/BENCH_planner.json");
    std::fs::write(
        &planner_path,
        serde_json::to_string_pretty(&planner_json).unwrap(),
    )
    .expect("write BENCH_planner.json");

    println!(
        "sim:   sweep {:.2}s ({:.0} msgs/s, digest {:016x}), single run {:.0} msgs/s, \
         obs noop/untraced {:.3}",
        sim.sweep_wall_s,
        sim.sweep_msgs_per_sec,
        sim.results_digest,
        sim.single_run_msgs_per_sec,
        sim.obs_overhead_ratio
    );
    println!(
        "train: {} epochs in {:.2}s ({:.2} epochs/s, weights {:016x})",
        train.epochs, train.wall_s, train.epochs_per_sec, train.weights_digest
    );
    println!(
        "infer: scalar {:.0}/s, batched {:.0}/s ({:.1}x), cached {:.0}/s ({:.1}x, \
         hit rate {:.1}%), digest {:016x}",
        infer.scalar_preds_per_sec,
        infer.batched_preds_per_sec,
        infer.batched_preds_per_sec / infer.scalar_preds_per_sec,
        infer.cached_preds_per_sec,
        infer.cached_preds_per_sec / infer.scalar_preds_per_sec,
        infer.cache_hit_rate * 100.0,
        infer.predictions_digest
    );
    println!(
        "plan:  greedy {:.1} replans/s, grid {:.2} replans/s ({} threads, digest {:016x})",
        infer.greedy_replans_per_sec,
        infer.grid_replans_per_sec,
        infer.grid_threads,
        infer.planner_digest
    );
    println!(
        "policy: frozen {:.1}/s ({:016x}), online {:.1}/s ({} refits, {:016x}), \
         bandit {:.1}/s ({} arms, {:016x})",
        planner.frozen.decides as f64 / planner.frozen.wall_s,
        planner.frozen.configs_digest,
        planner.online.decides as f64 / planner.online.wall_s,
        planner.online.refits,
        planner.online.configs_digest,
        planner.bandit.decides as f64 / planner.bandit.wall_s,
        planner.bandit_arms,
        planner.bandit.configs_digest
    );
    println!("wrote {sim_path}, {train_path}, {infer_path} and {planner_path}");
}
