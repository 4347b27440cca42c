//! The declarative scenario document: one [`Spec`] describes a complete
//! experiment — workload, network, cluster, producer-configuration grid,
//! KPI weights, seeds — from which the executor (`bench::exec`) produces
//! the figure or table.
//!
//! Every document validates with **field-path errors** ([`SpecError`]):
//! `experiment.Sweep.base.loss_rate: loss rate must be within [0, 1]`
//! points at the offending TOML key, not at a line number.

use desim::{SimDuration, SimTime};
use kafkasim::broker::BrokerId;
use kafkasim::config::DeliverySemantics;
use kafkasim::fleet::{Assignor, ChurnAction, PartitionStrategy};
use kafkasim::runtime::{BrokerFault, RunSpec};
use kafkasim::state::{DeliveryCase, Transition};
use netsim::trace::TraceConfig;
use serde::{Deserialize, Serialize};
use testbed::scenarios::{ApplicationScenario, KpiWeights};
use testbed::Calibration;

use crate::collection::CollectionDesign;
use crate::error::SpecError;
use crate::grid::ConfigGrid;
use crate::point::PointSpec;

/// A complete scenario document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Spec {
    /// Machine name (kebab-case; doubles as the `repro` target name).
    pub name: String,
    /// Human title printed above the rendered figure/table.
    pub title: String,
    /// What the experiment shows, for `repro list-scenarios`.
    pub description: String,
    /// The experiment itself.
    pub experiment: ExperimentSpec,
    /// Optional run-report block: how `repro report` should window and
    /// profile a representative run of this scenario. Absent in most
    /// scenarios (the TOML omits the `[report]` table entirely).
    pub report: Option<ReportSpec>,
}

impl Spec {
    /// Validates the document.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose `path` names the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        if self.name.is_empty() {
            return Err(SpecError::new("name", "scenario name must not be empty"));
        }
        if !self
            .name
            .chars()
            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
        {
            return Err(SpecError::new(
                "name",
                "scenario names are kebab-case ([a-z0-9-])",
            ));
        }
        if self.title.is_empty() {
            return Err(SpecError::new("title", "scenario title must not be empty"));
        }
        if let Some(report) = &self.report {
            report.validate("report")?;
        }
        self.experiment.validate()
    }
}

/// How `repro report` turns one representative run of a scenario into a
/// self-describing artifact: the KPI window length, whether to attach
/// the wall-clock span profiler, and whether to include per-message
/// timeline attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ReportSpec {
    /// Simulated-time KPI window length, milliseconds.
    pub window_ms: u64,
    /// Attach the span profiler and embed its summary in the report.
    pub profile: bool,
    /// Reconstruct per-message timelines and embed loss/duplication
    /// attribution in the report.
    pub timeline: bool,
}

impl ReportSpec {
    /// Validates the block under `path`.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose `path` names the offending field.
    pub(crate) fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.window_ms == 0 {
            return Err(SpecError::new(
                format!("{path}.window_ms"),
                "window length must be positive",
            ));
        }
        Ok(())
    }
}

/// The experiment archetypes of the repository, one per paper
/// figure/table family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ExperimentSpec {
    /// Table I — scripted state-machine paths for the five delivery cases.
    Table1(Table1Spec),
    /// Fig. 3 — the training-data collection design (grid sizes).
    Collection(CollectionDesign),
    /// Figs. 4–8, EXT-1/2, ABL-1/2 — a swept reliability figure.
    Sweep(SweepSpec),
    /// Fig. 9 — the generated unstable-network trace.
    NetworkTrace(NetworkTraceSpec),
    /// §III-G — collect the design and train the ANN.
    Train(TrainSpec),
    /// Eq. 2 — γ over a small semantics × batch grid.
    KpiGrid(KpiGridSpec),
    /// Table II — static vs dynamic configuration per application scenario.
    Table2(Table2Spec),
    /// Figs. 4–6 overlay — measured vs ANN-predicted curves.
    Overlay(OverlaySpec),
    /// Feature-sensitivity report of the trained model.
    Sensitivity(SensitivitySpec),
    /// EXT-4 — the acks × broker-fault matrix.
    BrokerFaultMatrix(BrokerFaultMatrixSpec),
    /// EXT-3 — static vs offline vs online control modes.
    Online(OnlineCompareSpec),
    /// Message-lifecycle trace demo (observability walkthrough).
    TraceDemo(TraceDemoSpec),
    /// Fleet-scale run — producer population × partitioner sweep with
    /// consumer-group churn.
    Fleet(FleetSpec),
    /// Control plane v2 — frozen vs online-adaptive vs bandit policies
    /// over a mid-run network regime shift.
    RegimeShift(RegimeShiftSpec),
}

impl ExperimentSpec {
    /// Validates the experiment under the `experiment.<Variant>` path.
    ///
    /// # Errors
    ///
    /// Returns a [`SpecError`] whose `path` names the offending field.
    pub(crate) fn validate(&self) -> Result<(), SpecError> {
        match self {
            ExperimentSpec::Table1(s) => s.validate("experiment.Table1"),
            ExperimentSpec::Collection(s) => s.validate("experiment.Collection"),
            ExperimentSpec::Sweep(s) => s.validate("experiment.Sweep"),
            ExperimentSpec::NetworkTrace(s) => s.validate("experiment.NetworkTrace"),
            ExperimentSpec::Train(s) => s.validate("experiment.Train"),
            ExperimentSpec::KpiGrid(s) => s.validate("experiment.KpiGrid"),
            ExperimentSpec::Table2(s) => s.validate("experiment.Table2"),
            ExperimentSpec::Overlay(s) => s.validate("experiment.Overlay"),
            ExperimentSpec::Sensitivity(s) => s.validate("experiment.Sensitivity"),
            ExperimentSpec::BrokerFaultMatrix(s) => s.validate("experiment.BrokerFaultMatrix"),
            ExperimentSpec::Online(s) => s.validate("experiment.Online"),
            ExperimentSpec::TraceDemo(s) => s.validate("experiment.TraceDemo"),
            ExperimentSpec::Fleet(s) => s.validate("experiment.Fleet"),
            ExperimentSpec::RegimeShift(s) => s.validate("experiment.RegimeShift"),
        }
    }
}

// ---------------------------------------------------------------------------
// Table I
// ---------------------------------------------------------------------------

/// One scripted Table I delivery case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryCaseSpec {
    /// The expected terminal case.
    pub case: DeliveryCase,
    /// Human rendering of the transition path (e.g. `II -> tau_r*III`).
    pub path: String,
    /// The Fig. 2 transitions to replay through the state machine.
    pub transitions: Vec<Transition>,
}

/// The Table I experiment: every scripted path is replayed through the
/// executable state machine and must end in its declared case.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table1Spec {
    /// The scripted delivery cases, in table order.
    pub cases: Vec<DeliveryCaseSpec>,
}

impl Table1Spec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.cases.is_empty() {
            return Err(SpecError::new(
                format!("{path}.cases"),
                "need at least one delivery case",
            ));
        }
        for (i, case) in self.cases.iter().enumerate() {
            if case.transitions.is_empty() {
                return Err(SpecError::new(
                    format!("{path}.cases[{i}].transitions"),
                    "a scripted path needs at least one transition",
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Swept figures
// ---------------------------------------------------------------------------

/// The swept feature axis of a figure, with its values in sweep order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SweepAxis {
    /// Message size `M` (bytes).
    MessageSize(Vec<u64>),
    /// Message timeout `T_o` (ms).
    MessageTimeoutMs(Vec<u64>),
    /// Polling interval `δ` (ms).
    PollIntervalMs(Vec<u64>),
    /// Packet-loss rate `L`.
    LossRate(Vec<f64>),
    /// Batch size `B`.
    BatchSize(Vec<usize>),
    /// Producer retry budget `τ_r` (applied to the run spec, not the
    /// feature point).
    RetryBudget(Vec<u32>),
    /// Broker outage duration in seconds (0 = no outage; applied to the
    /// run spec).
    OutageSecs(Vec<u64>),
}

impl SweepAxis {
    /// The x coordinates of the axis, one per point, in sweep order.
    #[must_use]
    pub fn xs(&self) -> Vec<f64> {
        match self {
            SweepAxis::MessageSize(v) => v.iter().map(|&m| m as f64).collect(),
            SweepAxis::MessageTimeoutMs(v) => v.iter().map(|&t| t as f64).collect(),
            SweepAxis::PollIntervalMs(v) => v.iter().map(|&d| d as f64).collect(),
            SweepAxis::LossRate(v) => v.clone(),
            SweepAxis::BatchSize(v) => v.iter().map(|&b| b as f64).collect(),
            SweepAxis::RetryBudget(v) => v.iter().map(|&r| r as f64).collect(),
            SweepAxis::OutageSecs(v) => v.iter().map(|&s| s as f64).collect(),
        }
    }

    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.xs().is_empty() {
            return Err(SpecError::new(path, "axis needs at least one value"));
        }
        match self {
            SweepAxis::LossRate(v)
                if v.iter().any(|l| !l.is_finite() || !(0.0..=1.0).contains(l)) =>
            {
                Err(SpecError::new(path, "loss rates must be within [0, 1]"))
            }
            SweepAxis::BatchSize(v) if v.contains(&0) => {
                Err(SpecError::new(path, "batch sizes start at 1"))
            }
            SweepAxis::MessageSize(v) if v.contains(&0) => {
                Err(SpecError::new(path, "message sizes start at 1 byte"))
            }
            SweepAxis::MessageTimeoutMs(v) if v.contains(&0) => {
                Err(SpecError::new(path, "message timeouts must be positive"))
            }
            _ => Ok(()),
        }
    }
}

/// One curve of a swept figure: the base point plus the overrides that
/// distinguish this series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SeriesSpec {
    /// Curve label, rendered verbatim.
    pub label: String,
    /// Delivery-semantics override.
    pub semantics: Option<DeliverySemantics>,
    /// Batch-size override.
    pub batch_size: Option<usize>,
    /// Loss-rate override.
    pub loss_rate: Option<f64>,
    /// Producer request-timeout override (ms; run-spec level).
    pub request_timeout_ms: Option<u64>,
    /// Leader-failover detection delay (s; run-spec level, valid only on
    /// an [`SweepAxis::OutageSecs`] axis).
    pub failover_s: Option<u64>,
    /// Calibration override: RFC 5827 early retransmit on/off.
    pub early_retransmit: Option<bool>,
    /// Calibration override: exponential vs deterministic service times.
    pub jittered_service: Option<bool>,
}

impl SeriesSpec {
    /// A series that only overrides the delivery semantics, labelled with
    /// the semantics' display name.
    #[must_use]
    #[cfg(test)]
    pub(crate) fn semantics_only(semantics: DeliverySemantics) -> Self {
        SeriesSpec {
            label: semantics.to_string(),
            semantics: Some(semantics),
            batch_size: None,
            loss_rate: None,
            request_timeout_ms: None,
            failover_s: None,
            early_retransmit: None,
            jittered_service: None,
        }
    }
}

/// A sweep's seed rule, and nothing else: every point is one
/// [`SweepSpec::run_at`] on one worker pool under either rule. The names
/// stay from when each also picked a code path: renaming them would change
/// every committed scenario's text.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SweepMode {
    /// Point `idx` of every series runs on
    /// `testbed::sweep::derive_seed(seed, idx)` (the Fig. 4–8 rule).
    Parallel,
    /// Every point runs on the base seed itself (the EXT/ABL rule), so
    /// the curves differ only by what the axis and series change.
    FixedSeed,
}

/// A swept reliability figure: a base operating point, one axis, one or
/// more series.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    /// x-axis label of the rendered figure.
    pub x_label: String,
    /// Metric column label (`P_l` or `P_d`).
    pub metric: String,
    /// The operating point every series starts from.
    pub base: PointSpec,
    /// The swept axis.
    pub axis: SweepAxis,
    /// The curves.
    pub series: Vec<SeriesSpec>,
    /// Seed rule.
    pub mode: SweepMode,
    /// Per-point message cap (`min` with the effort's message count).
    pub max_messages: Option<u64>,
    /// Broker-outage site, required by and valid only on
    /// [`SweepAxis::OutageSecs`] axes.
    pub outage: Option<OutageSite>,
}

/// Which broker goes down, and when, in an outage sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutageSite {
    /// Broker index.
    pub broker: u32,
    /// Outage start (seconds into the run).
    pub start_s: u64,
}

impl SweepSpec {
    /// The run of series `series_idx` at axis index `idx`, whichever
    /// [`SweepMode`] seeds it: the base point with the series' and the
    /// axis' feature values, under `Calibration::paper()` with the series'
    /// switches, at `messages` (at most `max_messages`), then the run-level
    /// axis and overrides.
    ///
    /// # Panics
    ///
    /// Panics when either index is out of bounds.
    #[must_use]
    pub fn run_at(&self, series_idx: usize, idx: usize, messages: u64) -> RunSpec {
        let series = &self.series[series_idx];
        let mut point = self.base.to_point();
        if let Some(s) = series.semantics {
            point.semantics = s;
        }
        if let Some(b) = series.batch_size {
            point.batch_size = b;
        }
        if let Some(l) = series.loss_rate {
            point.loss_rate = l;
        }
        match &self.axis {
            SweepAxis::MessageSize(v) => point.message_size = v[idx],
            SweepAxis::MessageTimeoutMs(v) => {
                point.message_timeout = SimDuration::from_millis(v[idx]);
            }
            SweepAxis::PollIntervalMs(v) => {
                point.poll_interval = SimDuration::from_millis(v[idx]);
            }
            SweepAxis::LossRate(v) => point.loss_rate = v[idx],
            SweepAxis::BatchSize(v) => point.batch_size = v[idx],
            SweepAxis::RetryBudget(_) | SweepAxis::OutageSecs(_) => {}
        }
        let mut cal = Calibration::paper();
        if let Some(early) = series.early_retransmit {
            cal.channel.tcp.early_retransmit = early;
        }
        if let Some(jitter) = series.jittered_service {
            cal.host.jittered_service = jitter;
        }
        let messages = self.max_messages.map_or(messages, |cap| messages.min(cap));
        let mut run = point.to_run_spec(&cal, messages);
        match &self.axis {
            SweepAxis::RetryBudget(v) => run.producer.max_retries = v[idx],
            SweepAxis::OutageSecs(v) if v[idx] > 0 => {
                let site = self.outage.expect("validated OutageSecs axes have a site");
                // At the front of `faults`, so the sweep's crash is
                // scheduled ahead of any fault the point brings.
                run.faults.insert(
                    0,
                    BrokerFault::crash(
                        BrokerId(site.broker),
                        SimTime::from_secs(site.start_s),
                        SimDuration::from_secs(v[idx]),
                    ),
                );
                run.failover_after = series.failover_s.map(SimDuration::from_secs);
            }
            _ => {}
        }
        if let Some(rt) = series.request_timeout_ms {
            run.producer.request_timeout = SimDuration::from_millis(rt);
        }
        run
    }

    fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.base.validate(&format!("{path}.base"))?;
        self.axis.validate(&format!("{path}.axis"))?;
        let outage_axis = matches!(self.axis, SweepAxis::OutageSecs(_));
        if self.series.is_empty() {
            return Err(SpecError::new(
                format!("{path}.series"),
                "need at least one series",
            ));
        }
        for (i, s) in self.series.iter().enumerate() {
            if s.label.is_empty() {
                return Err(SpecError::new(
                    format!("{path}.series[{i}].label"),
                    "series labels must not be empty",
                ));
            }
            if let Some(l) = s.loss_rate {
                if !l.is_finite() || !(0.0..=1.0).contains(&l) {
                    return Err(SpecError::new(
                        format!("{path}.series[{i}].loss_rate"),
                        "loss rate must be within [0, 1]",
                    ));
                }
            }
            if s.batch_size == Some(0) {
                return Err(SpecError::new(
                    format!("{path}.series[{i}].batch_size"),
                    "batch sizes start at 1",
                ));
            }
            if s.failover_s.is_some() && !outage_axis {
                return Err(SpecError::new(
                    format!("{path}.series[{i}].failover_s"),
                    "a failover delay takes effect only on an OutageSecs axis",
                ));
            }
        }
        if outage_axis != self.outage.is_some() {
            return Err(SpecError::new(
                format!("{path}.outage"),
                if outage_axis {
                    "an OutageSecs axis needs an outage site"
                } else {
                    "an outage site takes effect only on an OutageSecs axis"
                },
            ));
        }
        if self.max_messages == Some(0) {
            return Err(SpecError::new(
                format!("{path}.max_messages"),
                "message cap must be positive when set",
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Network trace, training, KPI
// ---------------------------------------------------------------------------

/// The Fig. 9 generated-network experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkTraceSpec {
    /// Pareto-delay + Gilbert–Elliott loss generator parameters.
    pub trace: TraceConfig,
}

impl NetworkTraceSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        SpecError::wrap(&format!("{path}.trace"), self.trace.validate())
    }
}

/// The §III-G training experiment: run the collection design, train the
/// ANN, report per-head held-out MAE.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainSpec {
    /// The Fig. 3 collection design producing the training set.
    pub collection: CollectionDesign,
}

impl TrainSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.collection.validate(&format!("{path}.collection"))
    }
}

/// The Eq. 2 γ grid: a fixed lossy condition evaluated across semantics
/// and batch sizes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KpiGridSpec {
    /// The fixed operating point the γ grid is evaluated at.
    pub base: PointSpec,
    /// KPI weights ω.
    pub weights: KpiWeights,
    /// Semantics rows.
    pub semantics: Vec<DeliverySemantics>,
    /// Batch-size columns.
    pub batch_sizes: Vec<usize>,
}

impl KpiGridSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.base.validate(&format!("{path}.base"))?;
        validate_weights(&self.weights, &format!("{path}.weights"))?;
        if self.semantics.is_empty() {
            return Err(SpecError::new(
                format!("{path}.semantics"),
                "need at least one delivery semantics",
            ));
        }
        if self.batch_sizes.is_empty() || self.batch_sizes.contains(&0) {
            return Err(SpecError::new(
                format!("{path}.batch_sizes"),
                "batch sizes must be non-empty and start at 1",
            ));
        }
        Ok(())
    }
}

fn validate_weights(w: &KpiWeights, path: &str) -> Result<(), SpecError> {
    SpecError::wrap(
        path,
        KpiWeights::new(w.bandwidth, w.service_rate, w.no_loss, w.no_duplicate).map(|_| ()),
    )
}

fn validate_scenario(s: &ApplicationScenario, path: &str) -> Result<(), SpecError> {
    if s.name.is_empty() {
        return Err(SpecError::new(
            format!("{path}.name"),
            "scenario name must not be empty",
        ));
    }
    validate_weights(&s.weights, &format!("{path}.weights"))?;
    if s.rate_timeline.is_empty() {
        return Err(SpecError::new(
            format!("{path}.rate_timeline"),
            "need at least one rate breakpoint",
        ));
    }
    if !(0.0..=1.0).contains(&s.gamma_requirement) {
        return Err(SpecError::new(
            format!("{path}.gamma_requirement"),
            "gamma requirement must be within [0, 1]",
        ));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Table II / EXT-3 dynamic configuration
// ---------------------------------------------------------------------------

/// The Table II dynamic-configuration experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Spec {
    /// The application scenarios (Table II rows).
    pub scenarios: Vec<ApplicationScenario>,
    /// The unstable-network generator (Fig. 9).
    pub trace: TraceConfig,
    /// Offline replanning interval (seconds).
    pub plan_interval_s: u64,
    /// The planner's configuration search grid.
    pub grid: ConfigGrid,
}

impl Table2Spec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.scenarios.is_empty() {
            return Err(SpecError::new(
                format!("{path}.scenarios"),
                "need at least one application scenario",
            ));
        }
        for (i, s) in self.scenarios.iter().enumerate() {
            validate_scenario(s, &format!("{path}.scenarios[{i}]"))?;
        }
        SpecError::wrap(&format!("{path}.trace"), self.trace.validate())?;
        if self.plan_interval_s == 0 {
            return Err(SpecError::new(
                format!("{path}.plan_interval_s"),
                "planning interval must be positive",
            ));
        }
        self.grid.validate(&format!("{path}.grid"))
    }
}

/// The EXT-3 experiment: static default vs offline planner vs online
/// feedback controller on one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineCompareSpec {
    /// The application scenario under test.
    pub scenario: ApplicationScenario,
    /// The unstable-network generator (Fig. 9).
    pub trace: TraceConfig,
    /// Offline replanning interval (seconds).
    pub plan_interval_s: u64,
    /// Online controller replanning interval (seconds).
    pub online_interval_s: u64,
    /// The planner's configuration search grid.
    pub grid: ConfigGrid,
}

impl OnlineCompareSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        validate_scenario(&self.scenario, &format!("{path}.scenario"))?;
        SpecError::wrap(&format!("{path}.trace"), self.trace.validate())?;
        if self.plan_interval_s == 0 || self.online_interval_s == 0 {
            return Err(SpecError::new(
                format!("{path}.plan_interval_s"),
                "planning intervals must be positive",
            ));
        }
        self.grid.validate(&format!("{path}.grid"))
    }
}

// ---------------------------------------------------------------------------
// Control plane v2: policies and regime shifts
// ---------------------------------------------------------------------------

/// Which control-plane brain plans a run (control plane v2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PolicyKind {
    /// The offline-trained ANN planner, weights fixed for the whole run.
    Frozen,
    /// The frozen planner plus drift detection and incremental refits.
    OnlineAdaptive,
    /// The model-free UCB1 baseline over a coarse configuration grid.
    Bandit,
}

impl PolicyKind {
    /// The kind's stable slug, as printed by `repro list-scenarios` and
    /// reported by the policy itself.
    #[must_use]
    pub fn slug(self) -> &'static str {
        match self {
            PolicyKind::Frozen => "frozen",
            PolicyKind::OnlineAdaptive => "online-adaptive",
            PolicyKind::Bandit => "bandit",
        }
    }
}

/// Hyper-parameters of the online-adaptive policy. Absent fields take the
/// executor's defaults.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptivePolicySpec {
    /// Drift-detector window, in observation windows.
    pub drift_window: usize,
    /// Mean-error increase over baseline that counts as drift.
    pub drift_threshold: f64,
    /// Incremental-SGD mini-batch steps per refit.
    pub refit_steps: usize,
    /// Refit learning rate.
    pub learning_rate: f64,
    /// Replay-buffer capacity in observation windows.
    pub replay_capacity: usize,
}

/// Hyper-parameters of the bandit baseline.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BanditPolicySpec {
    /// UCB1 exploration constant.
    pub exploration: f64,
}

/// One policy entry in a regime-shift comparison.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PolicySpec {
    /// The policy family.
    pub kind: PolicyKind,
    /// Adaptive hyper-parameters; only valid with `kind = OnlineAdaptive`.
    pub adaptive: Option<AdaptivePolicySpec>,
    /// Bandit hyper-parameters; only valid with `kind = Bandit`.
    pub bandit: Option<BanditPolicySpec>,
}

impl PolicySpec {
    /// A bare policy of the given kind with executor-default parameters.
    #[must_use]
    pub fn of_kind(kind: PolicyKind) -> Self {
        PolicySpec {
            kind,
            adaptive: None,
            bandit: None,
        }
    }

    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.adaptive.is_some() && self.kind != PolicyKind::OnlineAdaptive {
            return Err(SpecError::new(
                format!("{path}.adaptive"),
                "adaptive parameters require kind = OnlineAdaptive",
            ));
        }
        if self.bandit.is_some() && self.kind != PolicyKind::Bandit {
            return Err(SpecError::new(
                format!("{path}.bandit"),
                "bandit parameters require kind = Bandit",
            ));
        }
        if let Some(a) = &self.adaptive {
            let p = format!("{path}.adaptive");
            if a.drift_window == 0 || a.refit_steps == 0 || a.replay_capacity < 4 {
                return Err(SpecError::new(
                    p,
                    "drift_window and refit_steps must be positive, \
                     replay_capacity at least 4",
                ));
            }
            if !a.drift_threshold.is_finite() || a.drift_threshold <= 0.0 {
                return Err(SpecError::new(
                    format!("{p}.drift_threshold"),
                    "drift threshold must be finite and positive",
                ));
            }
            if !a.learning_rate.is_finite() || a.learning_rate <= 0.0 {
                return Err(SpecError::new(
                    format!("{p}.learning_rate"),
                    "learning rate must be finite and positive",
                ));
            }
        }
        if let Some(b) = &self.bandit {
            if !b.exploration.is_finite() || b.exploration <= 0.0 {
                return Err(SpecError::new(
                    format!("{path}.bandit.exploration"),
                    "exploration constant must be finite and positive",
                ));
            }
        }
        Ok(())
    }
}

/// The regime-shift experiment: one scenario driven over a network whose
/// generator parameters are swapped mid-run, planned head-to-head by a
/// list of control policies (frozen vs online-adaptive vs bandit).
///
/// # Example
///
/// ```
/// use spec::Spec;
///
/// let doc = Spec::builtin("regime-shift").unwrap();
/// doc.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegimeShiftSpec {
    /// The application scenario under test.
    pub scenario: ApplicationScenario,
    /// The network generator before the shift.
    pub trace: TraceConfig,
    /// The network generator after the shift (its `duration` is ignored;
    /// the spliced trace keeps the base duration).
    pub shifted: TraceConfig,
    /// When the regime flips, seconds into the run.
    pub shift_at_s: u64,
    /// Online replanning interval (seconds).
    pub online_interval_s: u64,
    /// The planner's configuration search grid.
    pub grid: ConfigGrid,
    /// The policies to compare, run in order over the same trace.
    pub policies: Vec<PolicySpec>,
}

impl RegimeShiftSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        validate_scenario(&self.scenario, &format!("{path}.scenario"))?;
        SpecError::wrap(&format!("{path}.trace"), self.trace.validate())?;
        SpecError::wrap(&format!("{path}.shifted"), self.shifted.validate())?;
        let shift_ms = self.shift_at_s.saturating_mul(1_000);
        if shift_ms < self.trace.interval.as_millis()
            || shift_ms + self.shifted.interval.as_millis() > self.trace.duration.as_millis()
        {
            return Err(SpecError::new(
                format!("{path}.shift_at_s"),
                "shift must leave at least one generator interval on each side",
            ));
        }
        if self.online_interval_s == 0 {
            return Err(SpecError::new(
                format!("{path}.online_interval_s"),
                "planning interval must be positive",
            ));
        }
        if self.policies.is_empty() {
            return Err(SpecError::new(
                format!("{path}.policies"),
                "comparison needs at least one policy",
            ));
        }
        for (i, p) in self.policies.iter().enumerate() {
            p.validate(&format!("{path}.policies[{i}]"))?;
        }
        self.grid.validate(&format!("{path}.grid"))
    }
}

// ---------------------------------------------------------------------------
// Overlay, sensitivity
// ---------------------------------------------------------------------------

/// The Figs. 4–6 overlay: train on the collection design, then compare
/// measured vs predicted `P_l` on a fresh-seed size sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OverlaySpec {
    /// Training collection design.
    pub collection: CollectionDesign,
    /// Message sizes of the evaluation sweep.
    pub sizes: Vec<u64>,
    /// Base operating point of the evaluation sweep.
    pub base: PointSpec,
    /// Semantics to overlay.
    pub semantics: Vec<DeliverySemantics>,
    /// Seed offset for the held-out measurement sweep (so the test data
    /// is unseen by training).
    pub seed_offset: u64,
}

impl OverlaySpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.collection.validate(&format!("{path}.collection"))?;
        if self.sizes.is_empty() || self.sizes.contains(&0) {
            return Err(SpecError::new(
                format!("{path}.sizes"),
                "sizes must be non-empty and positive",
            ));
        }
        self.base.validate(&format!("{path}.base"))?;
        if self.semantics.is_empty() {
            return Err(SpecError::new(
                format!("{path}.semantics"),
                "need at least one delivery semantics",
            ));
        }
        Ok(())
    }
}

/// The feature-sensitivity report of a trained model around a base point.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SensitivitySpec {
    /// The operating point the sensitivities are evaluated around.
    pub base: PointSpec,
    /// Selection threshold on the sensitivity score.
    pub threshold: f64,
}

impl SensitivitySpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        self.base.validate(&format!("{path}.base"))?;
        if !self.threshold.is_finite() || self.threshold < 0.0 {
            return Err(SpecError::new(
                format!("{path}.threshold"),
                "threshold must be finite and non-negative",
            ));
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// EXT-4 broker-fault matrix
// ---------------------------------------------------------------------------

/// One `acks` level (matrix row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AcksLevelSpec {
    /// Row label (e.g. `acks=all`).
    pub label: String,
    /// The delivery semantics implementing that `acks` level.
    pub semantics: DeliverySemantics,
}

/// One injected broker crash.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FaultSpec {
    /// Broker index to crash.
    pub broker: u32,
    /// Crash time (ms into the run).
    pub at_ms: u64,
    /// Downtime (ms).
    pub down_ms: u64,
}

/// One failure scenario (matrix column): replication overrides plus the
/// injected crashes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultScenarioSpec {
    /// Column label (e.g. `clean failover`).
    pub name: String,
    /// Replication factor of the topic.
    pub replication_factor: u32,
    /// `replica.lag.time.max` override (ms).
    pub lag_time_max_ms: Option<u64>,
    /// Follower fetch-size cap override (records per round).
    pub max_fetch_records: Option<u64>,
    /// Whether unclean leader election is allowed.
    pub allow_unclean: bool,
    /// The injected crashes, in order.
    pub faults: Vec<FaultSpec>,
    /// Leader-failover detection delay (ms); `None` = no failover.
    pub failover_after_ms: Option<u64>,
}

/// The EXT-4 matrix: `acks` levels × failure scenarios on a replicated
/// single-partition topic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BrokerFaultMatrixSpec {
    /// Per-run message cap (`min` with the effort's message count).
    pub max_messages: u64,
    /// Message size (bytes).
    pub message_size: u64,
    /// Source rate (messages/second).
    pub rate_hz: f64,
    /// Producer message timeout `T_o` (ms).
    pub message_timeout_ms: u64,
    /// Producer in-flight limit.
    pub max_in_flight: usize,
    /// Topic partition count.
    pub partitions: u32,
    /// Matrix rows.
    pub acks: Vec<AcksLevelSpec>,
    /// Matrix columns.
    pub scenarios: Vec<FaultScenarioSpec>,
}

impl BrokerFaultMatrixSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.max_messages == 0 {
            return Err(SpecError::new(
                format!("{path}.max_messages"),
                "message cap must be positive",
            ));
        }
        if self.message_size == 0 {
            return Err(SpecError::new(
                format!("{path}.message_size"),
                "message size must be at least 1 byte",
            ));
        }
        if !self.rate_hz.is_finite() || self.rate_hz <= 0.0 {
            return Err(SpecError::new(
                format!("{path}.rate_hz"),
                "source rate must be positive",
            ));
        }
        if self.message_timeout_ms == 0 {
            return Err(SpecError::new(
                format!("{path}.message_timeout_ms"),
                "message timeout must be positive",
            ));
        }
        if self.acks.is_empty() {
            return Err(SpecError::new(
                format!("{path}.acks"),
                "need at least one acks level",
            ));
        }
        if self.scenarios.is_empty() {
            return Err(SpecError::new(
                format!("{path}.scenarios"),
                "need at least one failure scenario",
            ));
        }
        for (i, s) in self.scenarios.iter().enumerate() {
            if s.replication_factor == 0 {
                return Err(SpecError::new(
                    format!("{path}.scenarios[{i}].replication_factor"),
                    "replication factor starts at 1",
                ));
            }
            for (j, f) in s.faults.iter().enumerate() {
                if f.down_ms == 0 {
                    return Err(SpecError::new(
                        format!("{path}.scenarios[{i}].faults[{j}].down_ms"),
                        "crash downtime must be positive",
                    ));
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Trace demo
// ---------------------------------------------------------------------------

/// One traced demonstration run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceScenarioSpec {
    /// Short tag used in output file names.
    pub tag: String,
    /// Human description of the scenario.
    pub label: String,
    /// Run seed.
    pub seed: u64,
    /// Source message count.
    pub messages: u64,
    /// Message size (bytes).
    pub message_size: u64,
    /// Source rate (messages/second).
    pub rate_hz: f64,
    /// Delivery semantics.
    pub semantics: DeliverySemantics,
    /// Constant one-way network delay (ms).
    pub delay_ms: u64,
    /// Constant packet-loss rate.
    pub loss_rate: f64,
    /// Producer message timeout `T_o` (ms).
    pub message_timeout_ms: u64,
    /// Producer request-timeout override (ms).
    pub request_timeout_ms: Option<u64>,
}

/// The observability walkthrough: traced runs whose reconstructed
/// timelines are cross-checked against the audit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TraceDemoSpec {
    /// The runs to trace.
    pub scenarios: Vec<TraceScenarioSpec>,
}

impl TraceDemoSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.scenarios.is_empty() {
            return Err(SpecError::new(
                format!("{path}.scenarios"),
                "need at least one traced scenario",
            ));
        }
        for (i, s) in self.scenarios.iter().enumerate() {
            let p = format!("{path}.scenarios[{i}]");
            if s.tag.is_empty() {
                return Err(SpecError::new(format!("{p}.tag"), "tag must not be empty"));
            }
            if s.messages == 0 || s.message_size == 0 {
                return Err(SpecError::new(
                    format!("{p}.messages"),
                    "message count and size must be positive",
                ));
            }
            if !s.rate_hz.is_finite() || s.rate_hz <= 0.0 {
                return Err(SpecError::new(
                    format!("{p}.rate_hz"),
                    "source rate must be positive",
                ));
            }
            if !s.loss_rate.is_finite() || !(0.0..=1.0).contains(&s.loss_rate) {
                return Err(SpecError::new(
                    format!("{p}.loss_rate"),
                    "loss rate must be within [0, 1]",
                ));
            }
            if s.message_timeout_ms == 0 {
                return Err(SpecError::new(
                    format!("{p}.message_timeout_ms"),
                    "message timeout must be positive",
                ));
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fleet
// ---------------------------------------------------------------------------

/// One class of the fleet's producer population, referencing a Table II
/// scenario by slug.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetPopulationEntry {
    /// Table II scenario slug (`social-media`, `web-access-records`,
    /// `game-traffic`).
    pub class: String,
    /// Relative share of the producer count.
    pub weight: f64,
    /// Per-producer emission rate, messages/second.
    pub rate_hz: f64,
}

/// One scripted consumer-group membership change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct GroupChurnSpec {
    /// Seconds into the run (must fall strictly inside it).
    pub at_s: u64,
    /// Join or leave.
    pub action: ChurnAction,
    /// Consumer member id.
    pub member: u32,
}

/// A fleet-scale experiment: a producer population over a partitioned
/// topic, swept across partitioning strategies, with consumer-group
/// churn. Renders as the partition-skew / rebalance-storm figure.
///
/// # Example
///
/// ```
/// use spec::Spec;
///
/// let doc = Spec::builtin("fleet").unwrap();
/// doc.validate().unwrap();
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FleetSpec {
    /// Number of producers (tenants).
    pub producers: usize,
    /// Partitions of the shared topic.
    pub partitions: u32,
    /// Partitioning strategies to sweep (one fleet run per entry).
    pub partitioners: Vec<PartitionStrategy>,
    /// The population mix.
    pub population: Vec<FleetPopulationEntry>,
    /// Consumer-group members at time zero.
    pub consumers: u32,
    /// Assignment policy at each rebalance.
    pub assignor: Assignor,
    /// Scripted membership changes.
    pub churn: Vec<GroupChurnSpec>,
    /// Simulated run length, seconds.
    pub duration_s: u64,
    /// KPI window length, milliseconds (must divide the duration).
    pub window_ms: u64,
    /// Sustained append capacity of one partition, messages/second.
    pub partition_capacity_hz: f64,
    /// Per-message network-loss probability.
    pub base_loss: f64,
    /// Pause/re-read window after a rebalance, milliseconds.
    pub rebalance_pause_ms: u64,
    /// Accepted, no effect: the one fleet engine runs on one thread. Goes
    /// when the benchmark, which still sets it, re-points.
    #[doc(hidden)]
    pub threads: Option<usize>,
}

impl FleetSpec {
    fn validate(&self, path: &str) -> Result<(), SpecError> {
        if self.producers == 0 {
            return Err(SpecError::new(
                format!("{path}.producers"),
                "fleet needs at least one producer",
            ));
        }
        if self.partitions == 0 {
            return Err(SpecError::new(
                format!("{path}.partitions"),
                "topic needs at least one partition",
            ));
        }
        if self.partitioners.is_empty() {
            return Err(SpecError::new(
                format!("{path}.partitioners"),
                "sweep needs at least one partitioning strategy",
            ));
        }
        if self.population.is_empty() {
            return Err(SpecError::new(
                format!("{path}.population"),
                "population needs at least one class",
            ));
        }
        for (i, e) in self.population.iter().enumerate() {
            let p = format!("{path}.population[{i}]");
            if ApplicationScenario::by_slug(&e.class).is_none() {
                return Err(SpecError::new(
                    format!("{p}.class"),
                    "class must name a Table II scenario slug \
                     (social-media, web-access-records, game-traffic)",
                ));
            }
            if !e.weight.is_finite() || e.weight <= 0.0 {
                return Err(SpecError::new(
                    format!("{p}.weight"),
                    "weight must be finite and positive",
                ));
            }
            if !e.rate_hz.is_finite() || e.rate_hz <= 0.0 {
                return Err(SpecError::new(
                    format!("{p}.rate_hz"),
                    "per-producer rate must be finite and positive",
                ));
            }
        }
        if self.consumers == 0 {
            return Err(SpecError::new(
                format!("{path}.consumers"),
                "group needs at least one initial consumer",
            ));
        }
        if self.duration_s == 0 || self.window_ms == 0 {
            return Err(SpecError::new(
                format!("{path}.duration_s"),
                "duration and window must be positive",
            ));
        }
        if !(self.duration_s * 1_000).is_multiple_of(self.window_ms) {
            return Err(SpecError::new(
                format!("{path}.window_ms"),
                "window must divide the duration evenly",
            ));
        }
        for (i, c) in self.churn.iter().enumerate() {
            if c.at_s == 0 || c.at_s >= self.duration_s {
                return Err(SpecError::new(
                    format!("{path}.churn[{i}].at_s"),
                    "churn must fall strictly inside the run",
                ));
            }
        }
        if !self.partition_capacity_hz.is_finite() || self.partition_capacity_hz <= 0.0 {
            return Err(SpecError::new(
                format!("{path}.partition_capacity_hz"),
                "partition capacity must be finite and positive",
            ));
        }
        if self.threads == Some(0) {
            return Err(SpecError::new(
                format!("{path}.threads"),
                "threads must be at least 1 (omit the field for the default)",
            ));
        }
        if !self.base_loss.is_finite() || !(0.0..=1.0).contains(&self.base_loss) {
            return Err(SpecError::new(
                format!("{path}.base_loss"),
                "loss rate must be within [0, 1]",
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kafkasim::source::SizeSpec;

    fn sweep() -> SweepSpec {
        SweepSpec {
            x_label: "M (bytes)".into(),
            metric: "P_l".into(),
            base: PointSpec::default(),
            axis: SweepAxis::MessageSize(vec![50, 100]),
            series: vec![SeriesSpec::semantics_only(DeliverySemantics::AtMostOnce)],
            mode: SweepMode::Parallel,
            max_messages: None,
            outage: None,
        }
    }

    fn spec(experiment: ExperimentSpec) -> Spec {
        Spec {
            name: "unit-test".into(),
            title: "unit test".into(),
            description: String::new(),
            experiment,
            report: None,
        }
    }

    #[test]
    fn valid_sweep_document_passes() {
        spec(ExperimentSpec::Sweep(sweep())).validate().unwrap();
    }

    #[test]
    fn bad_name_is_rejected() {
        let mut s = spec(ExperimentSpec::Sweep(sweep()));
        s.name = "Not Kebab".into();
        assert_eq!(s.validate().unwrap_err().path, "name");
    }

    #[test]
    fn nested_errors_carry_field_paths() {
        let mut sw = sweep();
        sw.base.loss_rate = 2.0;
        let err = spec(ExperimentSpec::Sweep(sw)).validate().unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.base.loss_rate");

        let mut sw = sweep();
        sw.series[0].batch_size = Some(0);
        let err = spec(ExperimentSpec::Sweep(sw)).validate().unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.series[0].batch_size");
    }

    #[test]
    fn outage_axis_requires_a_site() {
        let mut sw = sweep();
        sw.axis = SweepAxis::OutageSecs(vec![0, 5]);
        let err = spec(ExperimentSpec::Sweep(sw)).validate().unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.outage");
    }

    #[test]
    fn failover_without_an_outage_axis_is_rejected() {
        let mut sw = sweep();
        sw.series[0].failover_s = Some(1);
        let err = spec(ExperimentSpec::Sweep(sw)).validate().unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.series[0].failover_s");
    }

    #[test]
    fn outage_site_without_an_outage_axis_is_rejected() {
        let mut sw = sweep();
        sw.outage = Some(OutageSite {
            broker: 0,
            start_s: 2,
        });
        let err = spec(ExperimentSpec::Sweep(sw)).validate().unwrap_err();
        assert_eq!(err.path, "experiment.Sweep.outage");
    }

    #[test]
    fn run_at_applies_series_then_axis_then_run_level() {
        let mut sw = sweep();
        sw.series[0].batch_size = Some(4);
        sw.series[0].request_timeout_ms = Some(400);
        sw.series[0].early_retransmit = Some(false);
        sw.max_messages = Some(300);
        let run = sw.run_at(0, 1, 1_000);
        assert_eq!(run.source.size, SizeSpec::Fixed(100));
        assert_eq!(run.source.n_messages, 300);
        assert_eq!(run.producer.batch_size, 4);
        assert_eq!(run.producer.semantics, DeliverySemantics::AtMostOnce);
        assert_eq!(run.producer.request_timeout, SimDuration::from_millis(400));
        assert!(!run.channel.tcp.early_retransmit);
        assert_eq!(sw.run_at(0, 1, 200).source.n_messages, 200);

        sw.axis = SweepAxis::RetryBudget(vec![0, 8]);
        assert_eq!(sw.run_at(0, 1, 1_000).producer.max_retries, 8);

        sw.axis = SweepAxis::OutageSecs(vec![0, 5]);
        sw.outage = Some(OutageSite {
            broker: 1,
            start_s: 2,
        });
        sw.series[0].failover_s = Some(1);
        let calm = sw.run_at(0, 0, 1_000);
        assert!(calm.faults.is_empty());
        assert_eq!(calm.failover_after, None);
        let down = sw.run_at(0, 1, 1_000);
        assert_eq!(down.faults.len(), 1);
        assert_eq!(down.failover_after, Some(SimDuration::from_secs(1)));
    }

    #[test]
    fn weights_validation_uses_the_constructor() {
        let mut w = KpiWeights::paper_default();
        w.bandwidth = 0.9;
        let err = validate_weights(&w, "experiment.KpiGrid.weights").unwrap_err();
        assert_eq!(err.path, "experiment.KpiGrid.weights");
        assert!(err.message.contains("sum to 1"));
    }
}
