//! The effort knob, the row and series types the executor
//! ([`crate::exec`]) returns, and the collection design and `--quick`
//! model options the `repro` training targets share.
//!
//! Every experiment definition lives in the committed `scenarios/*.toml`
//! corpus (embedded by [`spec::builtin`]); `repro` resolves a target to
//! its document and dispatches on the experiment kind to `exec::*`, so
//! there is no per-figure function here. `Effort::messages` scales
//! precision: the paper uses 10⁶ per point; the defaults here use fewer
//! for tractable sweeps (see `EXPERIMENTS.md` for the precision
//! discussion).

use kafka_predict::prelude::*;
use kafkasim::config::DeliverySemantics;
use serde::{Deserialize, Serialize};
use spec::{ExperimentSpec, Spec};
use testbed::dynamic::DynamicRunReport;
use testbed::scenarios::KpiWeights;

/// How hard to work: trades precision for wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Effort {
    /// Source messages per experiment point.
    pub messages: u64,
    /// Worker threads for every untraced grid of runs, sweeps of either
    /// seed rule and the broker-fault matrix included, and the grid planner.
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
    pub(crate) fn planner_mode(&self) -> PlannerMode {
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

/// The collection design the model-planned experiments (`table2`,
/// `ext-online`, `regime-shift`) train on: the `ann` scenario's grids,
/// which `overlay` declares too.
#[must_use]
pub fn training_design() -> spec::CollectionDesign {
    match builtin("ann").experiment {
        ExperimentSpec::Train(train) => train.collection,
        _ => unreachable!("ann is a training scenario"),
    }
}

/// The model `--quick` trains: the compact topology at 300 epochs, where
/// full effort trains the paper's [`TrainOptions::paper`].
///
/// It stays for run time alone: in the debug build `cargo test` runs, on
/// a 2-vCPU x86-64 host, `repro ann` at full effort (collection sweep and
/// paper model) took 268 s, against 14 s for the whole `repro
/// regime-shift --quick` with this model.
#[must_use]
pub fn quick_train_options() -> TrainOptions {
    let mut options = TrainOptions::fast();
    options.sgd.epochs = 300;
    options
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec;

    #[test]
    fn table1_paths_all_verify() {
        let ExperimentSpec::Table1(cases) = builtin("table1").experiment else {
            panic!("table1 is a Table I scenario");
        };
        let rows = exec::table1(&cases);
        assert_eq!(rows.len(), 5);
        assert!(rows.iter().all(|(_, _, ok)| *ok));
    }

    #[test]
    fn collection_sizes_are_reported() {
        let ExperimentSpec::Collection(design) = builtin("collection").experiment else {
            panic!("collection is a collection scenario");
        };
        let (normal, abnormal, faults) = exec::collection_sizes(&design);
        assert!(normal > 50);
        assert!(abnormal > 100);
        assert!(faults > 10);
    }

    #[test]
    fn fig9_trace_is_deterministic() {
        let ExperimentSpec::NetworkTrace(trace) = builtin("fig9").experiment else {
            panic!("fig9 is a network-trace scenario");
        };
        let fig9 = |seed| exec::network_trace(&trace, seed);
        assert_eq!(fig9(1), fig9(1));
        assert_ne!(fig9(1), fig9(2));
    }

    #[test]
    fn kpi_sweep_produces_unit_gammas() {
        let ExperimentSpec::KpiGrid(grid) = builtin("kpi").experiment else {
            panic!("kpi is a KPI-grid scenario");
        };
        let rows = exec::kpi_grid(&grid, &heuristic_predictor());
        assert_eq!(rows.len(), 8);
        assert!(rows.iter().all(|(_, g)| (0.0..=1.0).contains(g)));
    }

    #[test]
    fn fig6_overload_floor_appears() {
        let ExperimentSpec::Sweep(sweep) = builtin("fig6").experiment else {
            panic!("fig6 is a sweep scenario");
        };
        let mut effort = Effort::quick();
        effort.messages = 1_500;
        let series = exec::sweep(&sweep, effort);
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
