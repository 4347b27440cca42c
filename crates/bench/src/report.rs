//! Self-describing run reports: the engine behind `repro report` and
//! `repro profile`.
//!
//! A *run report* merges everything the observability stack knows about
//! one representative run of a scenario — the audit's
//! [`kafkasim::DeliveryReport`], the trace-derived loss attribution
//! ([`obs::TimelineReport`] cross-checked against the audit), the
//! [`obs::MetricsSummary`], the per-window KPI series
//! ([`obs::WindowSeries`]) and, when requested, the wall-clock span
//! profile ([`obs::SpanProfile`]) — into one markdown + JSON artifact
//! that names the scenario, seed and window size it was generated from.
//!
//! How a scenario wants to be reported lives in the scenario document
//! itself: the optional `[report]` block ([`spec::ReportSpec`]) sets the
//! window length and whether profiling/timeline attribution run.
//! Scenarios without the block fall back to `default_report_spec`.

use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;

use annet::prelude::{Activation, Dataset, NetworkBuilder, TrainConfig};
use desim::{SimDuration, SimRng};
use kafka_predict::model::Topology;
use kafka_predict::prelude::*;
use kafkasim::runtime::{KafkaRun, OnlineSpec, RunSpec};
use netsim::trace::{generate_trace, TraceConfig};
use obs::{
    MetricsRegistry, MetricsSummary, Profiler, RingBufferSink, SpanProfile, TimelineReport,
    TraceEvent, WindowSeries,
};
use spec::{ExperimentSpec, ReportSpec, Spec};
use testbed::dynamic::{default_static_config, run_scenario_online};
use testbed::scenarios::ApplicationScenario;

use crate::exec::drain_trace;
use crate::figures::Effort;

/// Messages cap for a representative report run: enough to populate
/// every window, small enough that `repro report` stays interactive.
const REPORT_MESSAGE_CAP: u64 = 2_000;

/// The `[report]` defaults for scenarios whose document omits the block:
/// one-second windows, timeline attribution on, span profiling off.
#[must_use]
pub(crate) fn default_report_spec() -> ReportSpec {
    ReportSpec {
        window_ms: 1_000,
        profile: false,
        timeline: true,
    }
}

/// Everything `repro report` derives from one representative run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Scenario name the run came from.
    pub scenario: String,
    /// Seed the representative run used.
    pub seed: u64,
    /// The report settings that were honoured (document's or default).
    pub settings: ReportSpec,
    /// Human-readable report.
    pub markdown: String,
    /// Machine-readable report (same content as the markdown).
    pub json: serde_json::Value,
    /// Per-window KPI series.
    pub windows: WindowSeries,
    /// Wall-clock span profile, when `settings.profile` was set.
    pub profile: Option<SpanProfile>,
}

/// Generates the run report for a scenario document by running one
/// representative configuration with full tracing.
///
/// Sweeps report their first point, series 0 at axis index 0, as the
/// figure runs it ([`spec::SweepSpec::run_at`]) at no more than 2 000
/// messages, on the effort's seed; trace demos report their first scripted
/// scenario. Other experiment kinds have no single representative run and
/// return an error naming the kind.
///
/// # Errors
///
/// Returns a message when the experiment kind is not reportable.
pub fn generate(doc: &Spec, effort: Effort) -> Result<RunReport, String> {
    let settings = doc.report.unwrap_or_else(default_report_spec);
    let (run, seed) = representative_run(doc, effort)?;
    let prof = if settings.profile {
        Profiler::enabled()
    } else {
        Profiler::disabled()
    };
    let (outcome, mut sink) = KafkaRun::new(run, seed)
        .execute_profiled(Box::new(RingBufferSink::new(1 << 22)), prof.clone());
    let events = drain_trace(sink.as_mut(), format_args!("report, {}", doc.name));
    let windows = WindowSeries::from_events(&events, SimDuration::from_millis(settings.window_ms));
    let metrics = summarize(&events);
    let timeline = settings
        .timeline
        .then(|| TimelineReport::reconstruct(&events));
    let profile = settings.profile.then(|| prof.snapshot());

    let mut report = RunReport {
        scenario: doc.name.clone(),
        seed,
        settings,
        markdown: String::new(),
        json: serde_json::Value::Null,
        windows,
        profile,
    };
    report.markdown = render_markdown(
        doc,
        seed,
        settings,
        &outcome.report,
        timeline.as_ref(),
        &metrics,
        &report.windows,
        report.profile.as_ref(),
    );
    report.json = render_json(
        doc,
        seed,
        settings,
        &outcome.report,
        timeline.as_ref(),
        &metrics,
        &report.windows,
        report.profile.as_ref(),
    );
    Ok(report)
}

/// Writes a [`RunReport`] into `dir` and returns the paths written:
/// `report.md`, `report.json`, `windows.csv`, and — when profiled —
/// `trace.json` (Chrome trace events) plus `profile.folded`.
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
    put("report.md", &report.markdown)?;
    put(
        "report.json",
        &serde_json::to_string_pretty(&report.json).expect("report serialises"),
    )?;
    put("windows.csv", &report.windows.to_csv())?;
    if let Some(profile) = &report.profile {
        put("trace.json", &profile.to_chrome_trace())?;
        put("profile.folded", &profile.to_folded())?;
    }
    Ok(written)
}

/// The full-stack profiled smoke run behind `repro profile`: an online
/// dynamic-configuration run (event loop, broker phases, planner replans
/// and cache probes all spanned) followed by a tiny profiled ANN
/// training, all under one shared profiler so the exports show every
/// instrumented layer — `desim`, `kafkasim`, `core` and `annet`.
#[derive(Debug, Clone)]
pub struct ProfileSmoke {
    /// The combined span profile across simulation and training.
    pub profile: SpanProfile,
    /// Per-window KPIs of the simulated run.
    pub windows: WindowSeries,
    /// Delivery outcome of the simulated run.
    pub report: kafkasim::DeliveryReport,
    /// Planner metrics exported by the online controller.
    pub planner_metrics: MetricsSummary,
    /// Trace events the run emitted.
    pub events: usize,
}

/// Runs the profile smoke scenario. Deterministic in `effort.seed`
/// except for the wall-clock span timings themselves.
#[must_use]
pub fn profile_smoke(effort: Effort) -> ProfileSmoke {
    let prof = Profiler::enabled();
    let cal = Calibration::paper();
    let scenario = ApplicationScenario::web_access_records();
    let trace_cfg = TraceConfig {
        duration: SimDuration::from_secs(120),
        interval: SimDuration::from_secs(10),
        ..TraceConfig::default()
    };
    let network = generate_trace(&trace_cfg, &mut SimRng::seed_from_u64(effort.seed))
        .expect("smoke trace config is valid")
        .timeline;
    // An untrained compact model: the profile cares about where time
    // goes, not about prediction quality.
    let model = ReliabilityModel::new(
        Topology::Compact,
        &mut SimRng::seed_from_u64(effort.seed ^ 0x5eed),
    );
    let controller = OnlineModelController::new(
        model,
        &cal,
        SearchSpace::default(),
        scenario.weights,
        scenario.gamma_requirement,
        scenario.mean_size(),
        scenario.timeliness.as_secs_f64() * 1e3,
    )
    .with_profiler(prof.clone());
    let n = effort.messages.clamp(200, REPORT_MESSAGE_CAP);
    let (report, mut sink, planner_metrics) = run_scenario_online(
        &scenario,
        &network,
        default_static_config(&cal),
        OnlineSpec {
            interval: SimDuration::from_secs(10),
            controller: Arc::new(controller),
        },
        &cal,
        n,
        effort.seed,
        Box::new(RingBufferSink::new(1 << 22)),
        prof.clone(),
    );
    let events = drain_trace(sink.as_mut(), "profile smoke");
    let windows = WindowSeries::from_events(&events, SimDuration::from_secs(1));
    train_smoke(&prof, effort.seed);
    ProfileSmoke {
        profile: prof.snapshot(),
        windows,
        report: report.report,
        planner_metrics,
        events: events.len(),
    }
}

/// A few profiled epochs over a toy dataset, so the span tree includes
/// the `annet.epoch` / `annet.forward` / `annet.backward` stages.
fn train_smoke(prof: &Profiler, seed: u64) {
    let x: Vec<Vec<f64>> = (0..64)
        .map(|i| vec![f64::from(i % 8) / 8.0, f64::from(i / 8) / 8.0])
        .collect();
    let y: Vec<Vec<f64>> = x.iter().map(|r| vec![r[0] * r[1]]).collect();
    let data = Dataset::from_rows(x, y).expect("toy dataset is non-empty");
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

/// Writes the `repro profile` artifacts into `dir`: `trace.json`,
/// `profile.folded`, `profile.json`, `windows.csv` and `windows.json`.
/// Returns the paths written.
///
/// # Errors
///
/// Propagates filesystem errors.
pub fn write_profile(smoke: &ProfileSmoke, dir: &Path) -> std::io::Result<Vec<String>> {
    std::fs::create_dir_all(dir)?;
    let mut written = Vec::new();
    let mut put = |name: &str, contents: &str| -> std::io::Result<()> {
        let path = dir.join(name);
        std::fs::write(&path, contents)?;
        written.push(path.display().to_string());
        Ok(())
    };
    put("trace.json", &smoke.profile.to_chrome_trace())?;
    put("profile.folded", &smoke.profile.to_folded())?;
    put(
        "profile.json",
        &serde_json::to_string_pretty(&smoke.profile).expect("profile serialises"),
    )?;
    put("windows.csv", &smoke.windows.to_csv())?;
    put(
        "windows.json",
        &serde_json::to_string_pretty(&smoke.windows).expect("windows serialise"),
    )?;
    Ok(written)
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
        other => Err(format!(
            "scenario `{}` ({}) has no single representative run to report; \
             reports cover Sweep and TraceDemo scenarios",
            doc.name,
            variant_name(other)
        )),
    }
}

fn variant_name(e: &ExperimentSpec) -> &'static str {
    match e {
        ExperimentSpec::Table1(_) => "Table1",
        ExperimentSpec::Collection(_) => "Collection",
        ExperimentSpec::Sweep(_) => "Sweep",
        ExperimentSpec::NetworkTrace(_) => "NetworkTrace",
        ExperimentSpec::Train(_) => "Train",
        ExperimentSpec::KpiGrid(_) => "KpiGrid",
        ExperimentSpec::Table2(_) => "Table2",
        ExperimentSpec::Overlay(_) => "Overlay",
        ExperimentSpec::Sensitivity(_) => "Sensitivity",
        ExperimentSpec::BrokerFaultMatrix(_) => "BrokerFaultMatrix",
        ExperimentSpec::Online(_) => "Online",
        ExperimentSpec::TraceDemo(_) => "TraceDemo",
        ExperimentSpec::Fleet(_) => "Fleet",
        ExperimentSpec::RegimeShift(_) => "RegimeShift",
    }
}

fn summarize(events: &[TraceEvent]) -> MetricsSummary {
    let mut reg = MetricsRegistry::new();
    for e in events {
        reg.observe(e);
    }
    reg.summary()
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

#[allow(clippy::too_many_arguments)]
fn render_markdown(
    doc: &Spec,
    seed: u64,
    settings: ReportSpec,
    delivery: &kafkasim::DeliveryReport,
    timeline: Option<&TimelineReport>,
    metrics: &MetricsSummary,
    windows: &WindowSeries,
    profile: Option<&SpanProfile>,
) -> String {
    let mut md = String::new();
    let _ = writeln!(md, "# Run report: {}", doc.name);
    let _ = writeln!(md, "\n> {}\n\n{}\n", doc.title, doc.description);
    let _ = writeln!(
        md,
        "Representative run: seed {seed}, {} ms windows, profiling {}, timeline {}.\n",
        settings.window_ms,
        on_off(settings.profile),
        on_off(settings.timeline),
    );

    let _ = writeln!(md, "## Delivery\n");
    let _ = writeln!(md, "| metric | value |");
    let _ = writeln!(md, "|---|---|");
    let _ = writeln!(md, "| messages (N) | {} |", delivery.n_source);
    let _ = writeln!(md, "| delivered once | {} |", delivery.delivered_once);
    let _ = writeln!(md, "| lost | {} |", delivery.lost);
    let _ = writeln!(md, "| duplicated | {} |", delivery.duplicated);
    let _ = writeln!(md, "| P_l | {:.4} |", delivery.p_loss());
    let _ = writeln!(md, "| P_d | {:.4} |", delivery.p_dup());
    let _ = writeln!(md, "| stale deliveries | {} |", delivery.stale);
    let _ = writeln!(
        md,
        "| simulated duration | {:.1} s |\n",
        delivery.duration.as_secs_f64()
    );

    if let Some(tl) = timeline {
        let _ = writeln!(md, "## Loss attribution\n");
        let causes = tl.lost_by_cause();
        if causes.is_empty() {
            let _ = writeln!(md, "No messages were lost.\n");
        } else {
            let _ = writeln!(md, "| cause | messages |");
            let _ = writeln!(md, "|---|---|");
            for (cause, count) in &causes {
                let _ = writeln!(md, "| {cause} | {count} |");
            }
            let _ = writeln!(md);
        }
        let audit = kafkasim::crosscheck(delivery, tl);
        let _ = writeln!(
            md,
            "Trace vs audit: {}.\n",
            if audit.fully_explains() {
                "every lost and duplicated message is attributed".to_string()
            } else {
                format!("DISCREPANCIES {:?}", audit.discrepancies)
            }
        );
    }

    let _ = writeln!(md, "## Trace metrics\n");
    let _ = writeln!(
        md,
        "End-to-end latency: mean {:.4} s, p99 {} over {} deliveries; \
         mean outstanding {:.1} messages.\n",
        metrics.e2e_latency_s.mean,
        metrics
            .e2e_latency_s
            .p99
            .map_or_else(|| "n/a".to_string(), |v| format!("{v:.4} s")),
        metrics.e2e_latency_s.count,
        metrics.outstanding_avg,
    );
    let _ = writeln!(md, "| counter | value |");
    let _ = writeln!(md, "|---|---|");
    for (name, value) in &metrics.counters {
        let _ = writeln!(md, "| {name} | {value} |");
    }
    let _ = writeln!(md);

    let _ = writeln!(
        md,
        "## Windows ({} ms each)\n\nSee `windows.csv` for the full series.\n",
        settings.window_ms
    );
    let _ = writeln!(
        md,
        "{} windows, {} appends total; peak throughput {:.1} msg/s.\n",
        windows.rows.len(),
        windows.total_appends(),
        windows
            .rows
            .iter()
            .map(|r| r.throughput_per_s)
            .fold(0.0, f64::max),
    );

    if let Some(p) = profile {
        let _ = writeln!(md, "## Span profile\n");
        let _ = writeln!(
            md,
            "{:.1} ms of profiled wall-clock across {} span paths \
             (`trace.json` loads in Perfetto; `profile.folded` feeds flamegraph tools).\n",
            p.root_total_ns() as f64 / 1e6,
            p.spans.len()
        );
        let _ = writeln!(md, "| span path | calls | total ms | self ms |");
        let _ = writeln!(md, "|---|---|---|---|");
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

#[allow(clippy::too_many_arguments)]
fn render_json(
    doc: &Spec,
    seed: u64,
    settings: ReportSpec,
    delivery: &kafkasim::DeliveryReport,
    timeline: Option<&TimelineReport>,
    metrics: &MetricsSummary,
    windows: &WindowSeries,
    profile: Option<&SpanProfile>,
) -> serde_json::Value {
    let attribution = timeline.map(|tl| {
        let audit = kafkasim::crosscheck(delivery, tl);
        serde_json::json!({
            "lost_by_cause": tl
                .lost_by_cause()
                .into_iter()
                .map(|(c, n)| (c.to_string(), n))
                .collect::<std::collections::BTreeMap<_, _>>(),
            "fully_explained": audit.fully_explains(),
        })
    });
    serde_json::json!({
        "scenario": doc.name,
        "title": doc.title,
        "seed": seed,
        "settings": settings,
        "delivery": delivery,
        "attribution": attribution,
        "metrics": metrics,
        "windows": windows,
        "profile_summary": profile.map(|p| serde_json::json!({
            "root_total_ns": p.root_total_ns(),
            "paths": p.spans.len(),
            "recorded_events": p.events.len(),
            "dropped": p.dropped,
        })),
    })
}

fn on_off(flag: bool) -> &'static str {
    if flag {
        "on"
    } else {
        "off"
    }
}
