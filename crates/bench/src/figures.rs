//! One experiment definition per paper table/figure.
//!
//! Every definition lives in the declarative scenario corpus
//! ([`spec::builtin`], mirrored by the committed `scenarios/*.toml`
//! files); the functions here look the scenario up by name and hand it to
//! the executor ([`crate::exec`]), so the `repro` binary, the repo
//! benchmark, and the integration tests all share the same definitions.
//! `n_messages` scales precision: the paper uses 10⁶ per point; the
//! defaults here use fewer for tractable sweeps (see `EXPERIMENTS.md` for
//! the precision discussion).

use kafka_predict::prelude::*;
use kafkasim::config::DeliverySemantics;
use kafkasim::state::DeliveryCase;
use netsim::trace::NetworkTrace;
use serde::{Deserialize, Serialize};
use spec::{ExperimentSpec, Spec};
use testbed::dynamic::DynamicRunReport;
use testbed::scenarios::KpiWeights;

use crate::exec;

/// How hard to work: trades precision for wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Effort {
    /// Source messages per experiment point.
    pub messages: u64,
    /// Worker threads for sweeps.
    pub threads: usize,
    /// Base seed.
    pub seed: u64,
    /// Plan with the exhaustive batched grid scan instead of the paper's
    /// greedy stepwise search (Table II / EXT-3). Off by default — the
    /// greedy search is the paper's method; the grid is the optimality
    /// reference.
    pub grid_planner: bool,
}

impl Effort {
    /// Quick smoke effort (CI, examples).
    #[must_use]
    pub fn quick() -> Self {
        Effort {
            messages: 2_000,
            threads: num_threads(),
            seed: 42,
            grid_planner: false,
        }
    }

    /// Full effort for the recorded EXPERIMENTS.md numbers.
    #[must_use]
    pub fn full() -> Self {
        Effort {
            messages: 20_000,
            threads: num_threads(),
            seed: 42,
            grid_planner: false,
        }
    }

    /// The planner mode this effort selects.
    #[must_use]
    pub fn planner_mode(&self) -> PlannerMode {
        if self.grid_planner {
            PlannerMode::Grid {
                threads: self.threads,
            }
        } else {
            PlannerMode::Greedy
        }
    }
}

fn num_threads() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(4)
}

/// One point of a reliability series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SeriesPoint {
    /// The swept x value (meaning depends on the figure).
    pub x: f64,
    /// Measured `P_l`.
    pub p_loss: f64,
    /// Measured `P_d`.
    pub p_dup: f64,
}

/// A labelled series (one curve of a figure).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Curve label (e.g. "at-most-once" or "B=4, at-least-once").
    pub label: String,
    /// Points in x order.
    pub points: Vec<SeriesPoint>,
}

/// Looks up a built-in scenario, panicking on a corpus/name mismatch —
/// the callers below only name scenarios the corpus defines.
fn builtin(name: &str) -> Spec {
    Spec::builtin(name).unwrap_or_else(|| panic!("{name} is a built-in scenario"))
}

fn builtin_sweep(name: &str, effort: Effort) -> Vec<Series> {
    match builtin(name).experiment {
        ExperimentSpec::Sweep(sweep) => exec::sweep(&sweep, effort),
        _ => unreachable!("{name} is a sweep scenario"),
    }
}

/// Fig. 4 — `P_l` vs message size `M` (bytes) for both semantics, under
/// the paper's injected fault `D = 100 ms`, `L = 19 %`, fully-loaded
/// producer, no batching.
#[must_use]
pub fn fig4(effort: Effort) -> Vec<Series> {
    builtin_sweep("fig4", effort)
}

/// Fig. 5 — `P_l` vs message timeout `T_o` (ms) under full load with **no**
/// network faults.
///
/// The paper's producer is fully loaded; with the calibrated host the
/// near-saturated size (`M = 620 B`, ρ ≈ 0.8) is the regime where `T_o`
/// governs the loss tail, as in the paper's figure.
#[must_use]
pub fn fig5(effort: Effort) -> Vec<Series> {
    builtin_sweep("fig5", effort)
}

/// Fig. 6 — `P_l` vs polling interval `δ` (ms) with `T_o = 500 ms`, no
/// faults, small messages (the overload regime: > 45 % loss at δ = 0).
#[must_use]
pub fn fig6(effort: Effort) -> Vec<Series> {
    builtin_sweep("fig6", effort)
}

/// Fig. 7 — `P_l` vs packet loss rate `L` for batch sizes `B ∈ {1..10}`
/// under both semantics (solid = at-most-once, dashed = at-least-once in
/// the paper).
#[must_use]
pub fn fig7(effort: Effort) -> Vec<Series> {
    builtin_sweep("fig7", effort)
}

/// Fig. 8 — `P_d` vs batch size `B` under at-least-once, for several
/// injected loss rates.
#[must_use]
pub fn fig8(effort: Effort) -> Vec<Series> {
    builtin_sweep("fig8", effort)
}

/// Fig. 9 — the unstable network of the dynamic-configuration experiment:
/// Pareto delay + Gilbert–Elliott loss, sampled every 10 s for 10 min.
#[must_use]
pub fn fig9(seed: u64) -> NetworkTrace {
    match builtin("fig9").experiment {
        ExperimentSpec::NetworkTrace(trace) => exec::network_trace(&trace, seed),
        _ => unreachable!("fig9 is a network-trace scenario"),
    }
}

/// The collection design shared by the training experiments (`ann`,
/// `overlay`, `table2`, `ext-online`): the `ann` scenario's grids.
fn training_design() -> spec::CollectionDesign {
    match builtin("ann").experiment {
        ExperimentSpec::Train(train) => train.collection,
        _ => unreachable!("ann is a training scenario"),
    }
}

/// Fig. 3 — the training-data collection design: grid sizes per case
/// family (normal, abnormal, broker-fault).
#[must_use]
pub fn collection_summary() -> (usize, usize, usize) {
    match builtin("collection").experiment {
        ExperimentSpec::Collection(design) => exec::collection_sizes(&design),
        _ => unreachable!("collection is a collection scenario"),
    }
}

/// Runs the full Fig. 3 collection design, producing the training set.
#[must_use]
pub fn collect_training_results(effort: Effort) -> Vec<testbed::ExperimentResult> {
    exec::collect_training(&training_design(), effort)
}

/// Trains the model on collected results (paper topology or compact).
#[must_use]
pub fn train_on(
    results: &[testbed::ExperimentResult],
    paper_scale: bool,
    seed: u64,
) -> TrainedModel {
    let options = if paper_scale {
        TrainOptions::paper()
    } else {
        let mut o = TrainOptions::fast();
        o.sgd.epochs = 300;
        o
    };
    train_model(results, &options, seed).expect("collection grids are large enough")
}

/// §III-G — train the ANN on the collection design and report per-head
/// held-out MAE.
///
/// `paper_scale` selects the full 200/200/200/64 topology with 1000
/// epochs; otherwise a compact model demonstrates the pipeline quickly.
#[must_use]
pub fn ann_accuracy(effort: Effort, paper_scale: bool) -> TrainedModel {
    let results = collect_training_results(effort);
    train_on(&results, paper_scale, effort.seed)
}

/// Eq. 2 — γ across batch sizes and semantics for a fixed lossy condition,
/// using a trained (or synthetic) predictor.
#[must_use]
pub fn kpi_sweep(predictor: &dyn Predictor) -> Vec<(String, f64)> {
    match builtin("kpi").experiment {
        ExperimentSpec::KpiGrid(grid) => exec::kpi_grid(&grid, predictor),
        _ => unreachable!("kpi is a KPI-grid scenario"),
    }
}

/// Table I — exhaustive enumeration of the five delivery cases with their
/// transition paths, verified against the executable state machine.
#[must_use]
pub fn table1() -> Vec<(DeliveryCase, String, bool)> {
    match builtin("table1").experiment {
        ExperimentSpec::Table1(cases) => exec::table1(&cases),
        _ => unreachable!("table1 is a Table I scenario"),
    }
}

/// One Table II cell pair: default vs dynamic for a scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Scenario name.
    pub scenario: String,
    /// KPI weights used.
    pub weights: KpiWeights,
    /// Static default configuration outcome.
    pub default: DynamicRunReport,
    /// Dynamic (model-planned) configuration outcome.
    pub dynamic: DynamicRunReport,
}

/// Table II — the dynamic-configuration experiment over the Fig. 9 network
/// for the three application scenarios.
///
/// `predictor` drives the planner (train one with [`ann_accuracy`] or pass
/// a synthetic predictor).
#[must_use]
pub fn table2(predictor: &dyn Predictor, effort: Effort) -> Vec<Table2Row> {
    match builtin("table2").experiment {
        ExperimentSpec::Table2(spec) => exec::table2(&spec, predictor, effort),
        _ => unreachable!("table2 is a Table II scenario"),
    }
}

/// A simple simulation-independent predictor for harness runs that skip
/// ANN training: linear in `L`, improved by batching and retries — the
/// monotone structure §V relies on.
#[must_use]
pub fn heuristic_predictor() -> impl Predictor {
    kafka_predict::model::FnPredictor(|f: &Features| {
        let congestion = (f.loss_rate * 3.0).min(1.0);
        let batch_relief = 1.0 / (1.0 + 0.8 * (f.batch_size as f64 - 1.0));
        let base = congestion * batch_relief;
        let p_loss = match f.semantics {
            DeliverySemantics::AtMostOnce => base,
            DeliverySemantics::AtLeastOnce => base * 0.5,
            DeliverySemantics::All => base * 0.45,
        }
        .clamp(0.0, 1.0);
        let p_dup = match f.semantics {
            DeliverySemantics::AtMostOnce => 0.0,
            DeliverySemantics::AtLeastOnce | DeliverySemantics::All => {
                (0.02 * congestion) * batch_relief
            }
        };
        kafka_predict::model::Prediction { p_loss, p_dup }
    })
}

// ---------------------------------------------------------------------------
// Extensions beyond the paper (its "future research" directions) and
// ablations of this reproduction's own design choices.
// ---------------------------------------------------------------------------

/// EXT-1 — broker failure (the paper's future work: "more failure scenarios
/// including the failure of brokers").
///
/// `P_l` vs outage duration for one of three brokers, under both semantics,
/// with and without leader failover (detection delay 1 s).
#[must_use]
pub fn ext_broker_outage(effort: Effort) -> Vec<Series> {
    builtin_sweep("ext-outage", effort)
}

/// One cell of the EXT-4 broker-fault matrix: a full run at one `acks`
/// level under one failure scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerFaultRow {
    /// Producer acknowledgement level (`acks=0`, `acks=1`, `acks=all`).
    pub acks: String,
    /// Failure scenario (`no fault`, `clean failover`, `unclean failover`).
    pub scenario: String,
    /// Measured `P_l`.
    pub p_loss: f64,
    /// Measured `P_d`.
    pub p_dup: f64,
    /// Messages lost in total.
    pub lost: u64,
    /// Of those, messages the audit attributes to the broker (leader
    /// failover truncation) rather than the network.
    pub broker_caused: u64,
    /// Clean leader elections during the run.
    pub clean_elections: u64,
    /// Unclean leader elections during the run.
    pub unclean_elections: u64,
}

/// EXT-4 — broker-caused loss vs acknowledgement level (beyond the paper).
///
/// A 3×3 matrix: `acks ∈ {0, 1, all}` against `{no fault, clean failover,
/// unclean failover}` on a replicated single-partition topic. The clean
/// scenario crashes the leader while both followers are in sync; the
/// unclean one first starves the only follower (early crash plus a
/// one-record fetch cap keep it lagging and out of the ISR) so the
/// election must promote a replica missing acknowledged records.
///
/// The expected shape: `acks=all` with a clean election loses nothing;
/// `acks=1` loses the acked-but-unreplicated tail even on a clean
/// election; every unclean election loses data regardless of `acks`, and
/// the audit pins those losses on the broker, not the network.
#[must_use]
pub fn ext_broker_faults(effort: Effort) -> Vec<BrokerFaultRow> {
    match builtin("broker-faults").experiment {
        ExperimentSpec::BrokerFaultMatrix(matrix) => exec::broker_fault_matrix(&matrix, effort),
        _ => unreachable!("broker-faults is a fault-matrix scenario"),
    }
}

/// One tenant class of a fleet run under one partitioning strategy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetClassRow {
    /// Stream-class slug.
    pub class: String,
    /// Producers apportioned to the class.
    pub producers: u64,
    /// Messages the class emitted.
    pub produced: u64,
    /// First copies appended.
    pub delivered: u64,
    /// Network losses.
    pub lost_network: u64,
    /// Partition-overload losses.
    pub lost_overload: u64,
    /// Duplicate deliveries (rebalance re-reads).
    pub duplicated: u64,
    /// `P_l` of the class.
    pub p_loss: f64,
    /// `P_d` of the class.
    pub p_dup: f64,
    /// Eq. 2 γ of the class (fleet proxies, see `kafka_predict::fleet_gammas`).
    pub gamma: f64,
    /// Table II γ requirement of the class.
    pub gamma_requirement: f64,
    /// Whether the class met its requirement.
    pub gamma_met: bool,
}

/// One partitioning strategy's full fleet result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetStrategyRow {
    /// Strategy label (`round-robin`, `key-hash`, `locality`).
    pub strategy: String,
    /// Partition skew: hottest partition's appends over the mean.
    pub skew: f64,
    /// Fleet totals: messages produced.
    pub produced: u64,
    /// Fleet totals: first copies appended.
    pub delivered: u64,
    /// Fleet totals: messages lost (all causes).
    pub lost: u64,
    /// Fleet totals: duplicate deliveries.
    pub duplicated: u64,
    /// Rebalances during the run.
    pub rebalances: u64,
    /// Partitions that changed owner, summed over all rebalances (the
    /// storm size).
    pub moved_partitions: u64,
    /// Consumer-group trace events (`consumer-joined` + `consumer-left`
    /// + `partitions-assigned`) the run emitted.
    pub group_trace_events: u64,
    /// First-copy appends per partition (the skew histogram).
    pub partition_appends: Vec<u64>,
    /// Per-class rows, population declaration order.
    pub classes: Vec<FleetClassRow>,
    /// The windowed per-tenant KPI series.
    pub windows: obs::TenantSeries,
}

/// Fleet figure — partition skew and rebalance storms across partitioning
/// strategies (see `scenarios/fleet.toml`).
#[must_use]
pub fn fleet(effort: Effort) -> Vec<FleetStrategyRow> {
    match builtin("fleet").experiment {
        ExperimentSpec::Fleet(spec) => exec::fleet(&spec, effort),
        _ => unreachable!("fleet is a fleet scenario"),
    }
}

/// EXT-2 — the retry strategy (the paper: "we do not make a deep dive into
/// the retry strategy").
///
/// `P_l` (and `P_d` via the same points) vs retry budget `τ_r`, one series
/// per request timeout, under a fixed lossy condition.
#[must_use]
pub fn ext_retry_strategy(effort: Effort) -> Vec<Series> {
    builtin_sweep("ext-retries", effort)
}

/// ABL-1 — transport ablation: RFC 5827 early retransmit on vs off.
///
/// Justifies the TCP realism choice in DESIGN.md: without early retransmit,
/// small-window loss recovery is RTO-bound and the producer collapses at
/// loss rates the paper's testbed handled.
#[must_use]
pub fn ablation_early_retransmit(effort: Effort) -> Vec<Series> {
    builtin_sweep("ablation-transport", effort)
}

/// ABL-2 — service-jitter ablation: exponential vs deterministic
/// serialisation times.
///
/// The Fig. 5 loss tail is a queue-wait tail; with deterministic service it
/// collapses, which is why the host model keeps the jitter of a busy
/// containerised producer.
#[must_use]
pub fn ablation_service_jitter(effort: Effort) -> Vec<Series> {
    builtin_sweep("ablation-jitter", effort)
}

/// Figs. 4–6 overlay — the paper's figures compare *predicted* curves with
/// held-out test samples; this reproduces that comparison on the Fig. 4
/// sweep: measured `P_l(M)` (fresh seeds, unseen by training) next to the
/// trained model's predictions.
#[must_use]
pub fn prediction_overlay(effort: Effort, paper_scale: bool) -> (Vec<Series>, f64) {
    match builtin("overlay").experiment {
        ExperimentSpec::Overlay(spec) => exec::overlay(&spec, effort, paper_scale),
        _ => unreachable!("overlay is an overlay scenario"),
    }
}

/// One EXT-3 control-mode row: the run outcome plus, for the online
/// controller, its self-reported planner metrics (memo-cache hits, misses,
/// evictions and replan count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtOnlineRow {
    /// Control-mode label.
    pub mode: String,
    /// The run outcome.
    pub report: DynamicRunReport,
    /// Controller-exported metrics; `None` for the offline modes, which
    /// have no controller.
    pub planner_metrics: Option<obs::MetricsSummary>,
}

/// EXT-3 — *online* dynamic configuration (the paper's deferred future
/// work).
///
/// Compares three control modes on the same unstable network and workload:
/// the static default, the §V offline planner (network known), and the
/// online feedback controller (network estimated from producer counters).
/// The online row carries the controller's planner metrics — the
/// memo-cache hit/miss/evict counters show how much inference the cache
/// saved across replan intervals.
#[must_use]
pub fn ext_online(model: ReliabilityModel, effort: Effort) -> Vec<ExtOnlineRow> {
    match builtin("ext-online").experiment {
        ExperimentSpec::Online(spec) => exec::online_compare(&spec, model, effort),
        _ => unreachable!("ext-online is an online-compare scenario"),
    }
}

/// One regime-shift policy run: the run outcome, the policy's exported
/// metrics, its per-window γ trace and the pre/post-shift mean γ error.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeShiftRow {
    /// Policy kind slug (`frozen`, `online-adaptive`, `bandit`).
    pub policy: String,
    /// The run outcome.
    pub report: DynamicRunReport,
    /// The policy's exported planner metrics.
    pub planner_metrics: obs::MetricsSummary,
    /// Per-window predicted-vs-observed γ bookkeeping.
    pub gamma: Vec<kafka_predict::GammaSample>,
    /// Final model generation (refit count; 0 for frozen and bandit).
    pub generation: u64,
    /// Mean `|γ_pred − γ_obs|` over windows before the regime shift.
    pub pre_shift_err: Option<f64>,
    /// Mean `|γ_pred − γ_obs|` over windows after the regime shift.
    pub post_shift_err: Option<f64>,
}

/// CPL-1 — the control-plane comparison over a mid-run network regime
/// shift: the frozen planner, the drift-detecting online-adaptive planner
/// and the UCB1 bandit baseline steer the same scenario over the same
/// spliced network, head-to-head.
#[must_use]
pub fn regime_shift(model: ReliabilityModel, effort: Effort) -> Vec<RegimeShiftRow> {
    match builtin("regime-shift").experiment {
        ExperimentSpec::RegimeShift(spec) => exec::regime_shift(&spec, model, effort),
        _ => unreachable!("regime-shift is a regime-shift scenario"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_paths_all_verify() {
        let rows = table1();
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, _, ok)| *ok));
    }

    #[test]
    fn collection_sizes_are_reported() {
        let (normal, abnormal, faults) = collection_summary();
        assert!(normal > 50);
        assert!(abnormal > 100);
        assert!(faults > 10);
    }

    #[test]
    fn fig9_trace_is_deterministic() {
        assert_eq!(fig9(1), fig9(1));
        assert_ne!(fig9(1), fig9(2));
    }

    #[test]
    fn kpi_sweep_produces_unit_gammas() {
        let p = heuristic_predictor();
        let rows = kpi_sweep(&p);
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|(_, g)| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn fig6_overload_floor_appears() {
        let mut effort = Effort::quick();
        effort.messages = 1_500;
        let series = fig6(effort);
        // At δ = 0 the overloaded producer loses a large share.
        let amo = &series[0];
        assert!(amo.points[0].p_loss > 0.3, "δ=0: {}", amo.points[0].p_loss);
        // At δ = 90 ms loss collapses.
        assert!(
            amo.points.last().unwrap().p_loss < 0.10,
            "δ=90: {}",
            amo.points.last().unwrap().p_loss
        );
    }
}
