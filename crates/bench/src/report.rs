//! Self-describing run reports: the one way to look inside a run, behind
//! `repro report` and `repro profile`, and the traced-run helper `repro
//! trace` shares with them.
//!
//! A *run report* merges everything the observability stack knows about
//! one run — the audit's [`kafkasim::DeliveryReport`] with its Table I
//! cases and loss reasons, the producer's counters and each connection's
//! TCP sender and forward-link counters, the trace-derived loss
//! attribution ([`obs::TimelineReport`] cross-checked against the audit),
//! the [`obs::MetricsSummary`], the per-window KPI series
//! ([`obs::WindowSeries`]) and, when requested, the wall-clock span
//! profile ([`obs::SpanProfile`]) — into one markdown + JSON artifact
//! that names the scenario, seed and window size it was generated from.
//!
//! `repro report` describes a scenario document's representative run, so
//! a one-point sweep document dissects any single operating point.
//! `repro profile` describes its smoke run: the online controller with
//! its planner spans, then a toy training with its `annet` spans, under
//! one profiler. Both assemble a [`RunReport`] the same way and write it
//! with [`write_report`].
//!
//! How a scenario wants to be reported lives in the scenario document
//! itself: the optional `[report]` block ([`spec::ReportSpec`]) sets the
//! window length and whether profiling/timeline attribution run.
//! Scenarios without the block fall back to `DEFAULT_REPORT`.

use std::collections::BTreeMap;
use std::fmt::{Display, Write as _};
use std::path::Path;
use std::sync::Arc;

use annet::prelude::{Activation, Dataset, NetworkBuilder, TrainConfig};
use desim::{SimDuration, SimRng};
use kafka_predict::model::Topology;
use kafka_predict::prelude::*;
use kafkasim::explain::TraceAudit;
use kafkasim::runtime::{KafkaRun, OnlineSpec, RunOutcome, RunSpec};
use netsim::trace::{generate_trace, TraceConfig};
use obs::{
    MetricsRegistry, MetricsSummary, Profiler, RingBufferSink, SpanProfile, TimelineReport,
    TraceEvent, WindowSeries,
};
use spec::{ExperimentSpec, ReportSpec, Spec, TraceScenarioSpec};
use testbed::dynamic::{default_static_config, scenario_run};
use testbed::scenarios::ApplicationScenario;

use crate::exec::drain_trace;
use crate::figures::Effort;

/// Messages cap for a representative report run: enough to populate
/// every window, small enough that `repro report` stays interactive.
const REPORT_MESSAGE_CAP: u64 = 2_000;

/// Events a traced run's ring holds: every event of a report, smoke or
/// trace-demo run, so that what is read back covers the whole run.
const TRACE_RING: usize = 1 << 22;

/// The `[report]` defaults for scenarios whose document omits the block:
/// one-second windows, timeline attribution on, span profiling off.
pub(crate) const DEFAULT_REPORT: ReportSpec = ReportSpec {
    window_ms: 1_000,
    profile: false,
    timeline: true,
};

/// One traced run, read back: its outcome, its trace events, the
/// per-message timeline rebuilt from them, and that timeline checked
/// against the audit.
#[derive(Debug)]
pub struct TracedRun {
    /// What the run returned.
    pub outcome: RunOutcome,
    /// Every event the run traced, oldest first.
    pub events: Vec<TraceEvent>,
    /// Each message's fate, rebuilt from `events`.
    pub timeline: TimelineReport,
    /// `timeline` against the audit's counts.
    pub audit: TraceAudit,
}

impl TracedRun {
    /// Executes `run` into a ring of `1 << 22` events with its spans
    /// charged to `prof`, then drains the ring (saying on stderr, under
    /// `label`, when it overflowed), rebuilds the timeline and cross-checks
    /// it. Tracing changes no decision of the run.
    pub fn execute(run: KafkaRun, prof: Profiler, label: impl Display) -> Self {
        let (outcome, mut sink) =
            run.execute_profiled(Box::new(RingBufferSink::new(TRACE_RING)), prof);
        let events = drain_trace(sink.as_mut(), label);
        let timeline = TimelineReport::reconstruct(&events);
        let audit = kafkasim::crosscheck(&outcome.report, &timeline);
        TracedRun {
            outcome,
            events,
            timeline,
            audit,
        }
    }

    /// Messages lost per cause, keyed by the cause's name.
    #[must_use]
    pub fn lost_by_cause(&self) -> BTreeMap<String, u64> {
        let causes = self.timeline.lost_by_cause().into_iter();
        causes.map(|(cause, n)| (cause.to_string(), n)).collect()
    }

    /// The untimed traced run of one trace-demo scenario, on its own seed.
    #[must_use]
    pub fn demo(scenario: &TraceScenarioSpec) -> Self {
        let run = KafkaRun::new(crate::exec::trace_run_spec(scenario), scenario.seed);
        let label = format_args!("trace, {}", scenario.label);
        Self::execute(run, Profiler::disabled(), label)
    }
}

/// Everything a run report holds, rendered by [`RunReport::markdown`] and
/// [`RunReport::json`].
#[derive(Debug)]
pub struct RunReport {
    /// Scenario name the run came from.
    pub scenario: String,
    /// One-line title of the run.
    pub title: String,
    /// What the run is.
    pub description: String,
    /// Seed the run used.
    pub seed: u64,
    /// The report settings that were honoured (document's or default).
    pub settings: ReportSpec,
    /// The run, read back.
    pub run: TracedRun,
    /// Metrics folded from the run's trace.
    pub metrics: MetricsSummary,
    /// Per-window KPI series.
    pub windows: WindowSeries,
    /// Wall-clock span profile, when `settings.profile` was set.
    pub profile: Option<SpanProfile>,
}

impl RunReport {
    /// The one assembly of a report: folds `run`'s trace into metrics and
    /// `settings.window_ms` windows, and takes `prof`'s snapshot when
    /// `settings.profile` is set.
    #[must_use]
    pub(crate) fn new(
        scenario: &str,
        title: &str,
        description: &str,
        seed: u64,
        settings: ReportSpec,
        run: TracedRun,
        prof: &Profiler,
    ) -> Self {
        let mut reg = MetricsRegistry::new();
        for e in &run.events {
            reg.observe(e);
        }
        RunReport {
            scenario: scenario.to_string(),
            title: title.to_string(),
            description: description.to_string(),
            seed,
            settings,
            metrics: reg.summary(),
            windows: WindowSeries::from_events(
                &run.events,
                SimDuration::from_millis(settings.window_ms),
            ),
            profile: settings.profile.then(|| prof.snapshot()),
            run,
        }
    }
}

/// Generates the run report for a scenario document by running one
/// representative configuration with full tracing.
///
/// Sweeps report their first point, series 0 at axis index 0, as the
/// figure runs it ([`spec::SweepSpec::run_at`]) at no more than 2 000
/// messages, on the effort's seed; trace demos report their first scripted
/// scenario. Other experiment kinds have no single representative run and
/// return an error naming the scenario.
///
/// # Errors
///
/// Returns a message when the experiment kind is not reportable.
pub fn generate(doc: &Spec, effort: Effort) -> Result<RunReport, String> {
    let settings = doc.report.unwrap_or(DEFAULT_REPORT);
    let (run, seed) = representative_run(doc, effort)?;
    let prof = if settings.profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    let label = format_args!("report, {}", doc.name);
    let run = TracedRun::execute(KafkaRun::new(run, seed), prof.clone(), label);
    Ok(RunReport::new(
        &doc.name,
        &doc.title,
        &doc.description,
        seed,
        settings,
        run,
        &prof,
    ))
}

/// The full-stack profiled smoke run behind `repro profile`: an online
/// dynamic-configuration run (event loop, broker phases, planner replans
/// and cache probes all spanned) followed by a tiny profiled ANN
/// training, all under one shared profiler so the report's span profile
/// shows every instrumented layer — `desim`, `kafkasim`, `core` and
/// `annet`. Deterministic in `effort.seed` except for the wall-clock span
/// timings themselves.
#[must_use]
pub fn profile_smoke(effort: Effort) -> RunReport {
    let prof = Profiler::enabled();
    let cal = Calibration::paper();
    let scenario = ApplicationScenario::web_access_records();
    let trace_cfg = TraceConfig {
        duration: SimDuration::from_secs(120),
        interval: SimDuration::from_secs(10),
        ..TraceConfig::default()
    };
    let network = generate_trace(&trace_cfg, &mut SimRng::seed_from_u64(effort.seed))
        .expect("a 10 s step within 120 s on TraceConfig::default() is valid")
        .timeline;
    // An untrained compact model: the profile cares about where time
    // goes, not about prediction quality.
    let model = ReliabilityModel::new(
        Topology::Compact,
        &mut SimRng::seed_from_u64(effort.seed ^ 0x5eed),
    );
    let controller = crate::exec::controller(model, &cal, SearchSpace::default(), &scenario)
        .with_profiler(prof.clone());
    let online = OnlineSpec {
        interval: SimDuration::from_secs(10),
        controller: Arc::new(controller),
    };
    let n = effort.messages.clamp(200, REPORT_MESSAGE_CAP);
    let run = scenario_run(
        &network,
        &cal,
        scenario.source(n),
        default_static_config(&cal),
        Vec::new(),
        Some(online),
        effort.seed,
    );
    let run = TracedRun::execute(run, prof.clone(), "profile smoke");
    train_smoke(&prof, effort.seed);
    let settings = ReportSpec {
        profile: true,
        ..DEFAULT_REPORT
    };
    RunReport::new(
        "profile",
        "Profiled smoke run: online control, then a toy training",
        "The web-access-records stream under an untrained online controller over a \
         generated 120 s network, then four profiled epochs of a toy network.",
        effort.seed,
        settings,
        run,
        &prof,
    )
}

/// A few profiled epochs over a toy dataset, so the span tree includes
/// the `annet.epoch` / `annet.forward` / `annet.backward` stages.
fn train_smoke(prof: &Profiler, seed: u64) {
    let x: Vec<Vec<f64>> = (0..64)
        .map(|i| vec![f64::from(i % 8) / 8.0, f64::from(i / 8) / 8.0])
        .collect();
    let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0] * r[1]]).collect();
    let data = Dataset::from_rows(x, y).expect("64 rows of one width each");
    let mut rng = SimRng::seed_from_u64(seed);
    let mut net = NetworkBuilder::new(2)
        .dense(16, Activation::Tanh)
        .dense(1, Activation::Sigmoid)
        .build(&mut rng);
    let config = TrainConfig {
        epochs: 4,
        ..TrainConfig::default()
    };
    net.train_profiled(&data, &config, &mut rng, prof);
}

/// Writes a [`RunReport`] into `dir` and returns the paths written:
/// `report.md`, `report.json`, `windows.csv`, and — when profiled —
/// `trace.json` (Chrome trace events), `profile.folded` and
/// `profile.json`.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_report(report: &RunReport, dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: &str, contents: &str| -> std::io::Result<()> {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(path.display().to_string());
        Ok(())
    };
    put("report.md", &report.markdown())?;
    put("report.json", &pretty(&report.json()))?;
    put("windows.csv", &report.windows.to_csv())?;
    if let Some(profile) = &report.profile {
        put("trace.json", &profile.to_chrome_trace())?;
        put("profile.folded", &profile.to_folded())?;
        put("profile.json", &pretty(profile))?;
    }
    Ok(written)
}

fn pretty(value: &impl serde::Serialize) -> String {
    serde_json::to_string_pretty(value).expect("serde_json's writer cannot fail")
}

// ---------------------------------------------------------------------------
// Representative runs
// ---------------------------------------------------------------------------

/// Resolves the one run a report describes.
fn representative_run(doc: &Spec, effort: Effort) -> Result<(RunSpec, u64), String> {
    match &doc.experiment {
        ExperimentSpec::Sweep(sweep) => Ok((
            sweep.run_at(0, 0, effort.messages.min(REPORT_MESSAGE_CAP)),
            effort.seed,
        )),
        ExperimentSpec::TraceDemo(demo) => {
            let first = demo
                .scenarios
                .first()
                .ok_or_else(|| "trace demo has no scenarios".to_string())?;
            Ok((crate::exec::trace_run_spec(first), first.seed))
        }
        _ => Err(format!(
            "scenario `{}` has no single representative run to report; \
             reports cover Sweep and TraceDemo scenarios",
            doc.name
        )),
    }
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

impl RunReport {
    /// The human-readable report.
    #[must_use]
    pub fn markdown(&self) -> String {
        let (settings, outcome) = (self.settings, &self.run.outcome);
        let delivery = &outcome.report;
        let mut md = String::new();
        let (scenario, title, description) = (&self.scenario, &self.title, &self.description);
        let _ = writeln!(
            md,
            "# Run report: {scenario}\n\n> {title}\n\n{description}\n"
        );
        let (seed, window_ms) = (self.seed, settings.window_ms);
        let (profile, timeline) = (on_off(settings.profile), on_off(settings.timeline));
        let _ = writeln!(
            md,
            "Representative run: seed {seed}, {window_ms} ms windows, profiling {profile}, \
             timeline {timeline}.\n"
        );

        let _ = writeln!(md, "## Delivery\n\n| metric | value |\n|---|---|");
        let _ = writeln!(md, "| messages (N) | {} |", delivery.n_source);
        let _ = writeln!(md, "| delivered once | {} |", delivery.delivered_once);
        let _ = writeln!(md, "| lost | {} |", delivery.lost);
        let _ = writeln!(md, "| duplicated | {} |", delivery.duplicated);
        let _ = writeln!(md, "| P_l | {:.4} |", delivery.p_loss());
        let _ = writeln!(md, "| P_d | {:.4} |", delivery.p_dup());
        let _ = writeln!(md, "| stale deliveries | {} |", delivery.stale);
        let _ = writeln!(md, "| throughput | {:.1} msg/s |", delivery.throughput());
        let (mean_ms, max_ms) = (delivery.latency.mean_s * 1e3, delivery.latency.max_s * 1e3);
        let _ = writeln!(md, "| first-copy latency, mean | {mean_ms:.0} ms |");
        let _ = writeln!(md, "| first-copy latency, max | {max_ms:.0} ms |");
        let duration_s = delivery.duration.as_secs_f64();
        let _ = writeln!(md, "| simulated duration | {duration_s:.1} s |\n");
        let cases = (1..)
            .zip(delivery.case_counts)
            .map(|(i, n)| (format!("Case{i}"), n));
        let _ = writeln!(md, "Table I cases: {}.\n", listing(cases));
        let reasons = listing(&delivery.loss_reasons);
        let _ = writeln!(md, "Loss reasons in the audit ledger: {reasons}.\n");

        let producer = counters(&outcome.producer);
        let _ = writeln!(md, "## Producer and connections\n\nProducer: {producer}.\n");
        for (i, (tcp, link)) in outcome.tcp.iter().zip(&outcome.links).enumerate() {
            let (tcp, link) = (counters(tcp), counters(link));
            let _ = writeln!(md, "- conn {i}: TCP sender {tcp}; forward link {link}");
        }
        let _ = writeln!(md);

        if settings.timeline {
            let _ = writeln!(md, "## Loss attribution\n");
            let causes = self.run.timeline.lost_by_cause();
            if causes.is_empty() {
                let _ = writeln!(md, "No messages were lost.\n");
            } else {
                let _ = writeln!(md, "| cause | messages |\n|---|---|");
                for (cause, count) in &causes {
                    let _ = writeln!(md, "| {cause} | {count} |");
                }
                let _ = writeln!(md);
            }
            let audit = &self.run.audit;
            let verdict = if audit.fully_explains() {
                "every lost and duplicated message is attributed".to_string()
            } else {
                format!("DISCREPANCIES {:?}", audit.discrepancies)
            };
            let _ = writeln!(md, "Trace vs audit: {verdict}.\n");
        }

        let (metrics, e2e) = (&self.metrics, &self.metrics.e2e_latency_s);
        let p99 = e2e
            .p99
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4} s"));
        let _ = writeln!(
            md,
            "## Trace metrics\n\nEnd-to-end latency: mean {:.4} s, p99 {p99} over {} deliveries; \
             mean outstanding {:.1} messages.\n",
            e2e.mean, e2e.count, metrics.outstanding_avg,
        );
        let _ = writeln!(md, "| counter | value |\n|---|---|");
        for (name, value) in &metrics.counters {
            let _ = writeln!(md, "| {name} | {value} |");
        }
        let _ = writeln!(md);

        let windows = &self.windows;
        let (n, appends) = (windows.rows.len(), windows.total_appends());
        let peak = windows
            .rows
            .iter()
            .map(|r| r.throughput_per_s)
            .fold(0.0, f64::max);
        let _ = writeln!(
            md,
            "## Windows ({window_ms} ms each)\n\nSee `windows.csv` for the full series.\n\n\
             {n} windows, {appends} appends total; peak throughput {peak:.1} msg/s.\n"
        );

        if let Some(p) = &self.profile {
            let _ = writeln!(
                md,
                "## Span profile\n\n{:.1} ms of profiled wall-clock across {} span paths \
                 (`trace.json` loads in Perfetto; `profile.folded` feeds flamegraph tools).\n",
                p.root_total_ns() as f64 / 1e6,
                p.spans.len()
            );
            let _ = writeln!(
                md,
                "| span path | calls | total ms | self ms |\n|---|---|---|---|"
            );
            let mut spans: Vec<_> = p.spans.iter().filter(|s| s.calls > 0).collect();
            spans.sort_by_key(|s| std::cmp::Reverse(s.total_ns));
            for s in spans.iter().take(20) {
                let _ = writeln!(
                    md,
                    "| {} | {} | {:.3} | {:.3} |",
                    s.path,
                    s.calls,
                    s.total_ns as f64 / 1e6,
                    s.self_ns as f64 / 1e6
                );
            }
            let _ = writeln!(md);
        }
        md
    }

    /// The machine-readable report, with the same content as the markdown.
    #[must_use]
    pub fn json(&self) -> serde_json::Value {
        let (settings, outcome) = (self.settings, &self.run.outcome);
        let delivery = &outcome.report;
        let attribution = settings.timeline.then(|| {
            serde_json::json!({
                "lost_by_cause": self.run.lost_by_cause(),
                "fully_explained": self.run.audit.fully_explains(),
            })
        });
        serde_json::json!({
            "scenario": self.scenario,
            "title": self.title,
            "seed": self.seed,
            "settings": settings,
            "delivery": delivery,
            "p_loss": delivery.p_loss(),
            "p_dup": delivery.p_dup(),
            "throughput_per_s": delivery.throughput(),
            "producer": outcome.producer,
            "tcp": outcome.tcp,
            "links": outcome.links,
            "attribution": attribution,
            "metrics": self.metrics,
            "windows": self.windows,
            "profile_summary": self.profile.as_ref().map(|p| serde_json::json!({
                "root_total_ns": p.root_total_ns(),
                "paths": p.spans.len(),
                "recorded_events": p.events.len(),
                "dropped": p.dropped,
            })),
        })
    }
}

/// `name value` pairs joined by commas, or `none`.
fn listing<K: Display, V: Display>(pairs: impl IntoIterator<Item = (K, V)>) -> String {
    let pairs: Vec<_> = pairs.into_iter().map(|(k, v)| format!("{k} {v}")).collect();
    if pairs.is_empty() {
        "none".to_string()
    } else {
        pairs.join(", ")
    }
}

/// The [`listing`] of a stats struct's fields, in declaration order.
fn counters(stats: &impl serde::Serialize) -> String {
    let fields = match serde_json::to_value(stats) {
        serde_json::Value::Map(fields) => fields,
        _ => Vec::new(),
    };
    listing(fields.iter().map(|(name, value)| (name, pretty(value))))
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}
