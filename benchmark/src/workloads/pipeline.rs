//! `pipeline`: the paper end to end, TOML to figure, as seven stages.
//!
//! `parse` loads, validates and round-trips every `scenarios/*.toml`;
//! `collect` runs the (thinned) Fig. 3 collection design, hundreds of
//! 2 000-message runs; `train` fits the paper's 200/200/200/64 topology;
//! `predict` serves seeded candidate rows scalar, batched and cached;
//! `plan` replans greedily and over the grid and drives the three control
//! policies over seeded window streams, every `decide` timed; `dynamic`
//! runs Table II with the trained model; `render` prints the figures.
//!
//! The `annet` kernels and the `core` cache and planner dominate, and the
//! sim layers appear only as many short runs (set-up, reset and audit
//! bound), so an ANN or planner optimisation shows here and nowhere else.

use std::fmt::Write as _;
use std::path::PathBuf;

use bench::figures::{Effort, Series, SeriesPoint, Table2Row};
use desim::{SimDuration, SimRng, SimTime};
use kafka_predict::kpi::KpiModel;
use kafka_predict::model::ReliabilityModel;
use kafka_predict::online::{CachedPredictor, OnlineModelController, PredictionCache};
use kafka_predict::recommend::{Recommender, SearchSpace};
use kafka_predict::{
    train_model, AdaptiveConfig, BanditConfig, BanditPolicy, Features, FrozenPolicy,
    OnlineAdaptivePolicy, Policy, Predictor, TrainOptions, TrainedModel,
};
use kafkasim::config::{DeliverySemantics, ProducerConfig};
use kafkasim::runtime::WindowStats;
use spec::{CollectionDesign, ExperimentSpec, Spec, Table2Spec};
use testbed::scenarios::KpiWeights;
use testbed::{Calibration, ExperimentResult};

use super::{elapsed_ns, per_s, ratio, scenarios_dir, timed, Job, Round, Workload, THREADS};
use crate::check;
use crate::digest::{self, Fnv};
use crate::drivers;
use crate::metrics::Metrics;
use crate::trace::Recorder;

type Stage = fn(&Pipeline, &mut Recorder, &mut Flow) -> u64;

const STAGES: [(&str, Stage); 7] = [
    ("parse", Pipeline::parse),
    ("collect", Pipeline::collect),
    ("train", Pipeline::train),
    ("predict", Pipeline::predict),
    ("plan", Pipeline::plan),
    ("dynamic", Pipeline::dynamic),
    ("render", Pipeline::render),
];

/// Sizes of one round; `smoke` shrinks them all.
struct Sizes {
    /// Messages per collection run.
    messages: u64,
    /// How much of the Fig. 3 grids is kept: `k` sizes and delays and
    /// `k + 1` loss rates of the abnormal cases, `2k` sizes of the normal.
    grid_keep: usize,
    epochs: usize,
    candidates: usize,
    greedy_replans: usize,
    grid_replans: usize,
    /// Window streams, and windows in each.
    streams: usize,
    windows: usize,
    /// Windows between regime flips of a stream.
    regime: usize,
    /// Table II scenarios run, and the length of the Fig. 9 network.
    table2_scenarios: usize,
    table2_network_s: u64,
}

const FULL: Sizes = Sizes {
    messages: 2_000,
    grid_keep: 2,
    epochs: 40,
    candidates: 512,
    greedy_replans: 3,
    grid_replans: 1,
    streams: 3,
    windows: 48,
    regime: 12,
    table2_scenarios: 2,
    table2_network_s: 600,
};

const SMOKE: Sizes = Sizes {
    messages: 200,
    grid_keep: 1,
    epochs: 2,
    candidates: 32,
    greedy_replans: 1,
    grid_replans: 1,
    streams: 1,
    windows: 48,
    regime: 12,
    table2_scenarios: 1,
    table2_network_s: 120,
};

pub struct Pipeline {
    sizes: Sizes,
    seed: u64,
    cal: Calibration,
    scenario_files: Vec<PathBuf>,
    /// Seeded candidate rows for `predict` and replan starts for `plan`.
    candidates: Vec<Features>,
    starts: Vec<Features>,
    /// Seeded window streams the policies are driven over.
    streams: Vec<Vec<WindowStats>>,
    /// The model the last round trained, kept for the layer drivers.
    model: Option<ReliabilityModel>,
}

/// Hyper-parameters under which every regime flip of a stream is detected
/// and refitted within the regime.
const ADAPTIVE: AdaptiveConfig = AdaptiveConfig {
    drift_window: 3,
    drift_threshold: 0.02,
    refit_steps: 20,
    learning_rate: 0.3,
    replay_capacity: 256,
};

const GAMMA_REQUIREMENT: f64 = 0.9;
const MESSAGE_SIZE: u64 = 200;

/// Planner candidates: every axis inside its Fig. 3 range.
fn candidate_rows(n: usize, rng: &mut SimRng) -> Vec<Features> {
    let semantics = [
        DeliverySemantics::AtMostOnce,
        DeliverySemantics::AtLeastOnce,
    ];
    (0..n)
        .map(|i| Features {
            message_size: 50 + rng.next_below(950),
            timeliness_ms: rng.uniform(0.0, 5_000.0),
            delay_ms: rng.uniform(0.0, 200.0),
            loss_rate: rng.uniform(0.0, 0.4),
            semantics: semantics[i % semantics.len()],
            batch_size: 1 + rng.next_below(10) as usize,
            poll_interval_ms: rng.uniform(0.0, 90.0),
            message_timeout_ms: rng.uniform(200.0, 3_000.0),
            ..Features::default()
        })
        .collect()
}

/// A producer's per-window counters over escalating regimes: every
/// `regime` windows another fifth to a quarter of the window's messages
/// starts to expire, while retries and RTT stay calm. No model can predict
/// that from the network estimate, so the prediction error steps up at
/// every regime change, whatever the last refit learned, and the online
/// policy must detect each one and refit.
fn window_stream(windows: usize, regime: usize, rng: &mut SimRng) -> Vec<WindowStats> {
    let step = rng.range_inclusive(20, 25);
    (0..windows)
        .map(|i| {
            let level = (i / regime) as u64 * step;
            let expired = if level == 0 {
                0
            } else {
                level + rng.next_below(3)
            };
            WindowStats {
                at: SimTime::from_secs(30 * (i as u64 + 1)),
                window: SimDuration::from_secs(30),
                requests_sent: 100,
                acks_received: 100 - expired,
                retries: rng.next_below(2),
                connection_resets: 0,
                expired,
                backlog: 0,
                srtt_ms: Some(rng.uniform(18.0, 24.0)),
                rtt_p99_ms: None,
                e2e_p99_ms: None,
                batch_fill_mean: Some(1.0),
            }
        })
        .collect()
}

/// Keeps `keep` evenly spread values of an axis, ends included.
fn thin<T: Copy>(axis: &mut Vec<T>, keep: usize) {
    if keep < axis.len() {
        let last = axis.len() - 1;
        *axis = (0..keep)
            .map(|i| axis[i * last / (keep - 1).max(1)])
            .collect();
    }
}

fn write_config(h: &mut Fnv, cfg: &ProducerConfig) {
    write!(
        h,
        "{} {} {} {} {}|",
        cfg.semantics,
        cfg.batch_size,
        cfg.poll_interval.as_micros(),
        cfg.message_timeout.as_micros(),
        cfg.max_retries
    )
    .expect("hashing never fails");
}

/// Drives a freshly built policy over `stream`, timing every decide.
fn drive<P: Policy>(
    rec: &mut Recorder,
    policy: &P,
    stream: &[WindowStats],
    h: &mut Fnv,
    latency_ns: &mut Vec<u64>,
) -> u64 {
    let mut cfg = ProducerConfig {
        semantics: DeliverySemantics::AtLeastOnce,
        ..ProducerConfig::default()
    };
    let mut total = 0;
    for stats in stream {
        let (next, ns) = timed(|| rec.span("policy.decide", |_| policy.decide(stats, &cfg)));
        if let Some(next) = next {
            cfg = next;
        }
        write_config(h, &cfg);
        latency_ns.push(ns);
        total += ns;
    }
    total
}

/// What one stage hands the next, and what the round reports of it.
#[derive(Default)]
struct Flow {
    docs: Vec<Spec>,
    results: Vec<ExperimentResult>,
    trained: Option<TrainedModel>,
    rows: Vec<Table2Row>,
    layer: Metrics,
    latency_ns: Vec<u64>,
    /// Messages the stage that just ran simulated.
    msgs: u64,
    /// Operations inside the stages (runs, decides, identity checks), and
    /// why each failed one failed.
    ops: u64,
    errors: Vec<String>,
}

impl Flow {
    fn op(&mut self, outcome: Result<(), String>) {
        self.ops += 1;
        self.errors.extend(outcome.err());
    }

    fn model(&self) -> &ReliabilityModel {
        &self.trained.as_ref().expect("train ran").model
    }
}

impl Pipeline {
    pub fn new(seed: u64, smoke: bool) -> Result<Self, String> {
        let sizes = if smoke { SMOKE } else { FULL };
        let dir = scenarios_dir();
        let mut scenario_files: Vec<PathBuf> = std::fs::read_dir(&dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|entry| entry.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "toml"))
            .collect();
        scenario_files.sort();
        if scenario_files.is_empty() {
            return Err(format!("{} holds no scenarios", dir.display()));
        }
        let mut rng = SimRng::seed_from_u64(seed);
        let candidates = candidate_rows(sizes.candidates, &mut rng);
        let replans = sizes.greedy_replans.max(sizes.grid_replans);
        let starts = candidate_rows(replans, &mut rng)
            .into_iter()
            .map(|f| Features {
                message_size: MESSAGE_SIZE,
                semantics: DeliverySemantics::AtLeastOnce,
                batch_size: 1,
                poll_interval_ms: 0.0,
                message_timeout_ms: 2_000.0,
                ..f
            })
            .collect();
        let streams = (0..sizes.streams)
            .map(|_| window_stream(sizes.windows, sizes.regime, &mut rng))
            .collect();
        Ok(Pipeline {
            sizes,
            seed,
            cal: Calibration::paper(),
            scenario_files,
            candidates,
            starts,
            streams,
            model: None,
        })
    }

    fn effort(&self) -> Effort {
        Effort {
            messages: self.sizes.messages,
            threads: THREADS,
            seed: self.seed,
            grid_planner: false,
        }
    }

    /// Loads, validates and TOML-round-trips the committed corpus.
    fn parse(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let mut h = Fnv::default();
        let mut failures = 0;
        let mut bytes = 0;
        let start = std::time::Instant::now();
        for path in &self.scenario_files {
            let loaded = rec.span("spec.load", |_| spec::io::load(path));
            let doc = match loaded {
                Ok(doc) => doc,
                Err(e) => {
                    flow.op(Err(format!("{}: {e}", path.display())));
                    continue;
                }
            };
            let text = rec.span("spec.to_toml_string", |_| spec::io::to_toml_string(&doc));
            let back = rec.span("spec.from_toml_str", |_| spec::io::from_toml_str(&text));
            if back.as_ref().ok() != Some(&doc) {
                failures += 1;
                flow.op(Err(format!("{} does not round-trip", path.display())));
            }
            bytes += text.len();
            h.bytes(text.as_bytes());
            flow.docs.push(doc);
        }
        let ns = elapsed_ns(start);
        let docs = self.scenario_files.len() as f64;
        flow.layer.set("spec.parse.docs_per_s", per_s(docs, ns));
        flow.layer
            .set("spec.parse.bytes_per_s", per_s(bytes as f64, ns));
        flow.layer
            .set("spec.roundtrip_failures", f64::from(failures));
        h.finish()
    }

    /// The Fig. 3 design of `collection.toml`, its abnormal-case grid thinned
    /// so the stage stays a fraction of the round.
    fn design(&self, docs: &[Spec]) -> Option<CollectionDesign> {
        let mut design = docs.iter().find_map(|d| match &d.experiment {
            ExperimentSpec::Collection(design) => Some(design.clone()),
            _ => None,
        })?;
        let keep = self.sizes.grid_keep;
        thin(&mut design.abnormal.message_sizes, keep);
        thin(&mut design.abnormal.delays_ms, keep);
        thin(&mut design.abnormal.loss_rates, keep + 1);
        thin(&mut design.normal.message_sizes, 2 * keep);
        Some(design)
    }

    fn collect(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let Some(design) = self.design(&flow.docs) else {
            flow.op(Err("no collection scenario in the corpus".into()));
            return 0;
        };
        let effort = self.effort();
        let (results, ns) = timed(|| {
            rec.span("bench.collect_training", |_| {
                bench::exec::collect_training(&design, effort)
            })
        });
        let mut msgs = 0;
        for r in &results {
            msgs += r.report.n_source;
            flow.op(check::report(&r.report, self.sizes.messages)
                .map_err(|e| format!("collect seed {}: {e}", r.seed)));
        }
        flow.msgs = msgs;
        let runs = results.len() as f64;
        flow.layer.set("testbed.sweep.points", runs);
        flow.layer
            .set("testbed.collect.runs_per_s", per_s(runs, ns));
        flow.layer
            .set("testbed.collect.msgs_per_s", per_s(msgs as f64, ns));
        let d = digest::of_debug(&results);
        flow.results = results;
        d
    }

    fn train(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let mut options = TrainOptions::paper().with_threads(THREADS);
        options.sgd.epochs = self.sizes.epochs;
        let (trained, ns) = timed(|| {
            rec.span("core.train_model", |_| {
                train_model(&flow.results, &options, self.seed)
            })
        });
        let trained = match trained {
            Ok(t) => t,
            Err(e) => {
                flow.op(Err(format!("train: {e}")));
                return 0;
            }
        };
        // Forward and backward pass of one row cost about 2 and 4 flops a
        // weight.
        let mut row_epochs = 0.0;
        let mut flops = 0.0;
        let heads = [
            (DeliverySemantics::AtMostOnce, Some(trained.amo)),
            (DeliverySemantics::AtLeastOnce, Some(trained.alo)),
            (DeliverySemantics::All, trained.all),
        ];
        for (semantics, eval) in heads {
            if let Some(eval) = eval {
                let rows = (eval.train_samples * self.sizes.epochs) as f64;
                row_epochs += rows;
                flops += rows * 6.0 * trained.model.head(semantics).parameter_count() as f64;
            }
        }
        flow.layer.set("core.train.wall_s", ns as f64 / 1e9);
        flow.layer.set("core.train.model_mae", trained.worst_mae());
        flow.layer
            .set("annet.train.row_epochs_per_s", per_s(row_epochs, ns));
        flow.layer.set("annet.train.flops", flops);
        flow.layer
            .set("annet.train.gflops_per_s", per_s(flops, ns) / 1e9);
        let mut h = Fnv::default();
        let weights = trained.model.to_json().expect("the model serialises");
        h.bytes(weights.as_bytes());
        write!(h, "{:?}{:?}{:?}", trained.amo, trained.alo, trained.all)
            .expect("hashing never fails");
        flow.trained = Some(trained);
        h.finish()
    }

    /// Scalar, batched and memo-cached prediction over the candidate rows;
    /// the cached path runs twice, once missing and once hitting.
    fn predict(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let model = flow.model();
        let rows = self.candidates.len() as f64;
        let (scalar, scalar_ns) = timed(|| {
            rec.span("core.predict.scalar", |_| {
                let rows = self.candidates.iter().map(|f| model.predict(f));
                rows.collect::<Vec<_>>()
            })
        });
        let (batched, batch_ns) = timed(|| {
            rec.span("core.predict.batch", |_| {
                model.predict_batch(&self.candidates)
            })
        });
        let cache = PredictionCache::new(8_192);
        let cached = CachedPredictor::new(model, &cache);
        let (memoised, cached_ns) = timed(|| {
            rec.span("core.predict.cached", |_| {
                let _ = cached.predict_batch(&self.candidates);
                cached.predict_batch(&self.candidates)
            })
        });
        let identical = scalar == batched && scalar == memoised;
        let stats = cache.stats();
        let mut h = Fnv::default();
        for p in &scalar {
            h.u64(p.p_loss.to_bits());
            h.u64(p.p_dup.to_bits());
        }
        flow.layer
            .set("core.predict.scalar_rows_per_s", per_s(rows, scalar_ns));
        flow.layer
            .set("core.predict.batch_rows_per_s", per_s(rows, batch_ns));
        flow.layer.set(
            "core.predict.cached_rows_per_s",
            per_s(2.0 * rows, cached_ns),
        );
        flow.layer.set("core.cache.hit_ratio", stats.hit_rate());
        flow.op(if identical {
            Ok(())
        } else {
            Err("scalar, batched and cached predictions differ".into())
        });
        h.finish()
    }

    fn plan(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let model = flow.model().clone();
        let kpi = KpiModel::from_calibration(&self.cal);
        let weights = KpiWeights::paper_default();
        let mut h = Fnv::default();

        let recommender = Recommender::new(&kpi, &model, SearchSpace::default());
        let mut replan = |name: &'static str, n: usize, grid: bool| {
            let (_, ns) = timed(|| {
                for start in self.starts.iter().take(n) {
                    let rec_ = rec.span(name, |_| {
                        if grid {
                            recommender.recommend_grid(start, &weights, GAMMA_REQUIREMENT, THREADS)
                        } else {
                            recommender.recommend(start, &weights, GAMMA_REQUIREMENT)
                        }
                    });
                    write!(h, "{:?}|", rec_.features).expect("hashing never fails");
                    h.u64(rec_.gamma.to_bits());
                }
            });
            per_s(n as f64, ns)
        };
        let greedy = replan("core.recommend", self.sizes.greedy_replans, false);
        let grid = replan("core.recommend_grid", self.sizes.grid_replans, true);
        flow.layer.set("core.replan.greedy_per_s", greedy);
        flow.layer.set("core.replan.grid_per_s", grid);

        // Frozen and online-adaptive decides are the latency samples; the
        // bandit is model-free at a fraction of a microsecond a decide and
        // would swamp their median, so it is timed apart.
        let mut latency = Vec::new();
        let mut bandit_latency = Vec::new();
        let (mut frozen_ns, mut online_ns, mut bandit_ns) = (0, 0, 0);
        let (mut refits, mut unrefitted, mut online_instances) = (0, 0, 0);
        // One frozen policy per stream, one online-adaptive policy on all
        // streams but the last, one bandit: the pooled median then lies
        // well inside the frozen decides instead of on the border between
        // the two kinds.
        for (i, stream) in self.streams.iter().enumerate() {
            let controller = OnlineModelController::new(
                model.clone(),
                &self.cal,
                SearchSpace::default(),
                weights,
                GAMMA_REQUIREMENT,
                MESSAGE_SIZE,
                0.0,
            );
            let frozen = FrozenPolicy::new(controller, &self.cal, weights);
            frozen_ns += drive(rec, &frozen, stream, &mut h, &mut latency);
            if i == 0 {
                let bandit = BanditPolicy::new(
                    &self.cal,
                    &SearchSpace::default(),
                    weights,
                    MESSAGE_SIZE,
                    0.0,
                    BanditConfig::default(),
                );
                bandit_ns += drive(rec, &bandit, stream, &mut h, &mut bandit_latency);
            }
            if i + 1 == self.streams.len() && i > 0 {
                continue;
            }
            let online = OnlineAdaptivePolicy::new(
                model.clone(),
                &self.cal,
                SearchSpace::default(),
                weights,
                GAMMA_REQUIREMENT,
                MESSAGE_SIZE,
                0.0,
                ADAPTIVE,
            );
            online_ns += drive(rec, &online, stream, &mut h, &mut latency);
            online_instances += 1;
            refits += online.refits();
            unrefitted += u64::from(online.refits() == 0);
        }
        let windows = self.sizes.windows;
        let frozen_decides = (self.streams.len() * windows) as f64;
        let online_decides = (online_instances * windows) as f64;
        flow.layer.set(
            "core.policy.frozen.decides_per_s",
            per_s(frozen_decides, frozen_ns),
        );
        flow.layer.set(
            "core.policy.online.decides_per_s",
            per_s(online_decides, online_ns),
        );
        flow.layer.set(
            "core.policy.bandit.decides_per_s",
            per_s(windows as f64, bandit_ns),
        );
        flow.layer.set("core.policy.online.refits", refits as f64);
        // A refit is the one decide of its policy that costs tens of plain
        // ones: the mean of the slowest `refits` samples is its cost.
        let mut sorted = latency.clone();
        sorted.sort_unstable();
        let slowest = &sorted[sorted.len() - (refits as usize).min(sorted.len())..];
        flow.layer.set(
            "core.policy.online.refit_ms",
            ratio(
                slowest.iter().sum::<u64>() as f64 / 1e6,
                slowest.len() as f64,
            ),
        );
        flow.ops += (latency.len() + bandit_latency.len()) as u64;
        flow.op(if unrefitted == 0 {
            Ok(())
        } else {
            Err(format!(
                "{unrefitted} online-adaptive instances never refitted"
            ))
        });
        flow.latency_ns = latency;
        h.finish()
    }

    fn dynamic(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let spec: Option<Table2Spec> = flow.docs.iter().find_map(|d| match &d.experiment {
            ExperimentSpec::Table2(spec) => Some(spec.clone()),
            _ => None,
        });
        let Some(mut spec) = spec else {
            flow.op(Err("no table2 scenario in the corpus".into()));
            return 0;
        };
        spec.scenarios.truncate(self.sizes.table2_scenarios);
        spec.trace.duration = SimDuration::from_secs(self.sizes.table2_network_s);
        let effort = self.effort();
        let model = flow.model();
        let (rows, ns) = timed(|| {
            rec.span("bench.table2", |_| {
                bench::exec::table2(&spec, model, effort)
            })
        });
        let mut msgs = 0;
        for row in &rows {
            for run in [&row.default, &row.dynamic] {
                msgs += run.report.n_source;
                flow.op(check::report(&run.report, run.report.n_source)
                    .map_err(|e| format!("dynamic {}: {e}", row.scenario)));
            }
        }
        flow.msgs = msgs;
        flow.layer
            .set("testbed.dynamic.msgs_per_s", per_s(msgs as f64, ns));
        let d = digest::of_debug(&rows);
        flow.rows = rows;
        d
    }

    /// Table II, and the collected loss of the normal-case runs by message
    /// size as a series figure.
    fn render(&self, rec: &mut Recorder, flow: &mut Flow) -> u64 {
        let series: Vec<Series> = [
            DeliverySemantics::AtMostOnce,
            DeliverySemantics::AtLeastOnce,
        ]
        .iter()
        .map(|&semantics| Series {
            label: semantics.to_string(),
            points: flow
                .results
                .iter()
                .filter(|r| r.point.semantics == semantics && r.point.is_normal_case())
                .take(12)
                .map(|r| SeriesPoint {
                    x: r.point.message_size as f64,
                    p_loss: r.p_loss,
                    p_dup: r.p_dup,
                })
                .collect(),
        })
        .collect();
        let (text, ns) = timed(|| {
            rec.span("bench.render", |_| {
                let mut text = bench::render::render_table2(&flow.rows);
                for metric in ["P_l", "P_d"] {
                    text.push_str(&bench::render::render_series(
                        "collected normal cases",
                        "M (bytes)",
                        metric,
                        &series,
                    ));
                }
                text
            })
        });
        flow.layer.set("bench.render.bytes", text.len() as f64);
        flow.layer
            .set("bench.render.bytes_per_s", per_s(text.len() as f64, ns));
        digest::of_bytes(text.as_bytes())
    }
}

impl Workload for Pipeline {
    fn round(&mut self, rec: &mut Recorder) -> Round {
        let mut flow = Flow::default();
        let mut round = Round::default();
        for (i, (name, stage)) in STAGES.into_iter().enumerate() {
            rec.set_job(i as u32);
            // A stage that cannot run (its input stage failed) fails too.
            let runnable = i < 3 || flow.trained.is_some();
            let errors_before = flow.errors.len();
            let (digest, ns) = if runnable {
                timed(|| stage(self, rec, &mut flow))
            } else {
                (0, 0)
            };
            // A stage fails with the first operation that failed inside it.
            let error = if runnable {
                flow.errors.get(errors_before).cloned()
            } else {
                Some("the train stage produced no model".to_string())
            };
            round.jobs.push(Job {
                label: name.to_string(),
                ns,
                msgs: std::mem::take(&mut flow.msgs),
                digest,
                error,
            });
        }
        let wall = round.wall_ns() as f64;
        for job in &round.jobs {
            flow.layer.set(
                &format!("pipeline.stage.{}.share", job.label),
                ratio(job.ns as f64, wall),
            );
        }
        round.latency_ns = flow.latency_ns;
        round.extra_ops = flow.ops;
        round.extra_failed = flow.errors.len() as u64;
        round.layer = flow.layer;
        self.model = flow.trained.map(|t| t.model);
        round
    }

    fn drivers(&mut self, rec: &mut Recorder, out: &mut Metrics) {
        let Some(model) = &self.model else { return };
        rec.span("driver.annet", |_| {
            drivers::annet::run(model, &self.candidates, self.seed, out);
        });
        rec.span("driver.perfmodel", |_| {
            drivers::planner::kpi_evals(model, &self.cal, &self.candidates, out);
        });
    }

    fn tail_cap(&self) -> u32 {
        99
    }
}
