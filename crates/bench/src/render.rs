//! Plain-text rendering of every target `repro` prints: each text is the
//! target's `== title ==` header, its body, and a closing blank line
//! (`document`), the body rendered here from the rows [`crate::exec`]
//! returns.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use kafka_predict::prelude::TrainedModel;
use kafkasim::state::DeliveryCase;
use netsim::trace::NetworkTrace;
use obs::MessageFate;
use spec::FleetSpec;
use testbed::sensitivity::SensitivityRow;

use crate::figures::{
    BrokerFaultRow, ExtOnlineRow, FleetStrategyRow, RegimeShiftRow, Series, SeriesPoint, Table2Row,
};
use crate::report::TracedRun;

/// The caption Table II prints, the paper's, in place of its document's
/// title.
pub(crate) const TABLE2_CAPTION: &str = "Table II: overall message loss and duplicate rates";

/// The one place a `== title ==` header is written.
fn header(title: &str) -> String {
    format!("== {title} ==\n")
}

/// A target's whole text: its header, `body`, and the blank line that
/// closes every target's output.
#[must_use]
pub(crate) fn document(title: &str, body: &str) -> String {
    format!("{}{body}\n", header(title))
}

/// Renders one or more series as an aligned text table with an ASCII
/// sparkline per curve.
#[must_use]
pub fn render_series(title: &str, x_label: &str, metric: &str, series: &[Series]) -> String {
    header(title) + &series_body(x_label, metric, series)
}

/// [`render_series`] below its header.
pub(crate) fn series_body(x_label: &str, metric: &str, series: &[Series]) -> String {
    let Some(first) = series.first() else {
        return "(no data)\n".to_string();
    };
    // Header row of x values.
    let mut out = format!("{x_label:>24} |");
    for p in &first.points {
        let _ = write!(out, " {:>7} ", trim_float(p.x));
    }
    let _ = writeln!(out, "\n{}", "-".repeat(26 + first.points.len() * 9));
    for s in series {
        let _ = write!(out, "{:>24} |", s.label);
        for p in &s.points {
            let _ = write!(out, " {:>6.2}% ", value(p, metric) * 100.0);
        }
        let _ = writeln!(out, "  {}", sparkline(s, metric));
    }
    out
}

/// The point's `P_d` when `metric` names it, else its `P_l`.
fn value(p: &SeriesPoint, metric: &str) -> f64 {
    match metric {
        "P_d" => p.p_dup,
        _ => p.p_loss,
    }
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// The bar of `v` on a scale of eight that tops out at `max`.
fn bar(v: f64, max: f64) -> char {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    BARS[(((v / max) * 7.0).round() as usize).min(7)]
}

/// A tiny unicode sparkline of the series' chosen metric.
#[must_use]
pub(crate) fn sparkline(series: &Series, metric: &str) -> String {
    let values: Vec<f64> = series.points.iter().map(|p| value(p, metric)).collect();
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len());
    }
    values.iter().map(|&v| bar(v, max)).collect()
}

/// Renders Table II in the paper's layout.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    header(TABLE2_CAPTION) + &table2_body(rows)
}

/// [`render_table2`] below its header.
pub(crate) fn table2_body(rows: &[Table2Row]) -> String {
    let mut out = format!(
        "{:<32} {:>12} {:>12} {:>12} {:>12}  weights (ω1..ω4)\n",
        "scenario", "R_l default", "R_l dynamic", "R_d default", "R_d dynamic"
    );
    for row in rows {
        let w = &row.weights;
        let _ = writeln!(
            out,
            "{:<32} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%  {:.1}, {:.1}, {:.1}, {:.1}",
            row.scenario,
            row.default.r_loss * 100.0,
            row.dynamic.r_loss * 100.0,
            row.default.r_dup * 100.0,
            row.dynamic.r_dup * 100.0,
            w.bandwidth,
            w.service_rate,
            w.no_loss,
            w.no_duplicate,
        );
    }
    out
}

/// Table I: each scripted path and whether it lands in its declared case.
pub(crate) fn table1(rows: &[(DeliveryCase, String, bool)]) -> String {
    let mut out = String::new();
    for (case, path, ok) in rows {
        let verdict = if *ok { "verified" } else { "MISMATCH" };
        let _ = writeln!(out, "{case}: {path:<42} {verdict}");
    }
    out
}

/// Fig. 3: the collection design's grid sizes per case family.
pub(crate) fn collection((normal, abnormal, broker_faults): (usize, usize, usize)) -> String {
    format!(
        "normal cases   (D < 200ms, L = 0): {normal} experiment points\n\
         abnormal cases (faults injected):  {abnormal} experiment points\n\
         broker faults  (beyond the paper): {broker_faults} experiment points\n"
    )
}

/// Fig. 9: the generated network, one row per interval.
pub(crate) fn fig9(trace: &NetworkTrace) -> String {
    let mut out = format!(
        "{:>8} {:>10} {:>8} {:>6}\n",
        "t (s)", "delay(ms)", "loss", "state"
    );
    for ((t, cond), state) in trace.timeline.breakpoints().iter().zip(&trace.states) {
        let (delay_ms, loss) = (cond.delay.as_secs_f64() * 1e3, cond.loss_rate * 100.0);
        let s = t.as_millis() / 1000;
        let _ = writeln!(out, "{s:>8} {delay_ms:>10.1} {loss:>7.1}% {state:>6?}");
    }
    let (loss, bad) = (trace.mean_loss() * 100.0, trace.bad_fraction() * 100.0);
    let _ = writeln!(out, "mean loss {loss:.1}%, bad-state fraction {bad:.0}%");
    out
}

/// §III-G: each trained head's held-out accuracy.
pub(crate) fn ann(trained: &TrainedModel) -> String {
    let heads = [
        ("at-most-once", Some(trained.amo)),
        ("at-least-once", Some(trained.alo)),
    ];
    let mut out = String::new();
    for (name, head) in heads.into_iter().chain([("acks=all", trained.all)]) {
        if let Some(h) = head {
            let _ = writeln!(
                out,
                "{name:>14} head: {} train / {} test samples, held-out MAE = {:.4}",
                h.train_samples, h.test_samples, h.test_mae
            );
        }
    }
    let _ = writeln!(out, "worst-head MAE: {:.4}", trained.worst_mae());
    out
}

/// Eq. 2: γ per configuration of the grid.
pub(crate) fn kpi(rows: &[(String, f64)]) -> String {
    let mut out = String::new();
    for (label, gamma) in rows {
        let _ = writeln!(out, "{label:>24}: gamma = {gamma:.3}");
    }
    out
}

/// The Figs. 4–6 overlay: the series, then the overlay's MAE.
pub(crate) fn overlay(series: &[Series], mae: f64) -> String {
    series_body("M (bytes)", "P_l", series)
        + &format!("\noverlay MAE vs fresh measurements: {mae:.4}\n")
}

/// §III-D: each feature's `P_l` at −50 %, base and +50 %, and whether its
/// impact reaches `threshold`.
pub(crate) fn sensitivity(rows: &[SensitivityRow], threshold: f64) -> String {
    let mut out = format!(
        "{:<24} {:>9} {:>9} {:>9} {:>9} {:>10}\n",
        "feature", "P_l -50%", "P_l base", "P_l +50%", "impact", "selected?"
    );
    for r in rows {
        let (down, base, up) = (
            r.down_p_loss * 100.0,
            r.base_p_loss * 100.0,
            r.up_p_loss * 100.0,
        );
        let (feature, impact) = (r.feature.name(), r.impact() * 100.0);
        let selected = if r.is_selected(threshold) {
            "yes"
        } else {
            "no"
        };
        let _ = writeln!(
            out,
            "{feature:<24} {down:>8.2}% {base:>8.2}% {up:>8.2}% {impact:>8.2}% {selected:>10}"
        );
    }
    out
}

/// EXT-4: the `acks` × failure-scenario matrix.
pub(crate) fn broker_faults(rows: &[BrokerFaultRow]) -> String {
    let mut out = format!(
        "{:<9} {:<17} {:>8} {:>8} {:>6} {:>14} {:>15}\n",
        "acks", "scenario", "P_l", "P_d", "lost", "broker-caused", "elections(c/u)"
    );
    for r in rows {
        let (acks, scenario, p_loss, p_dup) = (&r.acks, &r.scenario, r.p_loss, r.p_dup);
        let (clean, unclean) = (r.clean_elections, r.unclean_elections);
        let (lost, broker) = (r.lost, r.broker_caused);
        let _ = writeln!(
            out,
            "{acks:<9} {scenario:<17} {p_loss:>8.4} {p_dup:>8.4} {lost:>6} {broker:>14} \
             {clean:>12}/{unclean}"
        );
    }
    out + "\nacks=all + clean election loses nothing; acks=1 loses the acked-but-\n\
           unreplicated tail; unclean elections lose data at every acks level,\n\
           attributed to the broker (leader-failover), not the network.\n"
}

/// EXT-3: each control mode's outcome, then the online planner's cache.
pub(crate) fn ext_online(rows: &[ExtOnlineRow]) -> String {
    let mut out = format!(
        "{:<36} {:>8} {:>8} {:>10} {:>9}\n",
        "mode", "R_l", "R_d", "switches", "stale"
    );
    for row in rows {
        let (mode, r) = (&row.mode, &row.report);
        let (loss, dup, stale) = (r.r_loss * 100.0, r.r_dup * 100.0, r.stale_fraction * 100.0);
        let switches = r.config_switches;
        let _ = writeln!(
            out,
            "{mode:<36} {loss:>7.2}% {dup:>7.2}% {switches:>10} {stale:>8.2}%"
        );
    }
    for row in rows {
        let Some(m) = &row.planner_metrics else {
            continue;
        };
        let count = |name: &str| m.counters.get(name).copied().unwrap_or(0);
        let (hits, misses) = (count("planner-cache-hit"), count("planner-cache-miss"));
        let (evicts, replans) = (count("planner-cache-evict"), count("planner-replan"));
        // No probe at all reads as a 0 % hit rate.
        let rate = hits as f64 / (hits + misses).max(1) as f64;
        let _ = writeln!(
            out,
            "\n{} planner cache: {replans} replans, {hits} hits / {misses} misses \
             ({:.1}% hit rate), {evicts} evictions",
            row.mode,
            rate * 100.0
        );
    }
    out
}

/// CPL-1: each policy's outcome and mean γ error either side of the
/// shift, then one γ-error sparkline per policy over the run's
/// observation windows, the shift marked with `|`. All policies share one
/// scale, so a flatter line is a better planner.
pub(crate) fn regime_shift(title: &str, shift_at_s: u64, rows: &[RegimeShiftRow]) -> String {
    let mut out = format!("network regime shifts at t = {shift_at_s}s\n");
    let _ = writeln!(
        out,
        "{:<18} {:>8} {:>8} {:>9} {:>12} {:>13} {:>7}",
        "policy", "R_l", "R_d", "switches", "pre-drift", "post-drift", "refits"
    );
    let err = |e: Option<f64>| e.map_or("-".to_string(), |v| format!("{v:.4}"));
    for row in rows {
        let (policy, r, refits) = (&row.policy, &row.report, row.generation);
        let (loss, dup, switches) = (r.r_loss * 100.0, r.r_dup * 100.0, r.config_switches);
        let (pre, post) = (err(row.pre_shift_err), err(row.post_shift_err));
        let _ = writeln!(
            out,
            "{policy:<18} {loss:>7.2}% {dup:>7.2}% {switches:>9} {pre:>12} {post:>13} {refits:>7}"
        );
    }
    out.push_str("\npre/post-drift columns: mean |γ_pred − γ_obs| per observation window\n");
    out += &header(&format!(
        "{title}: |γ_pred − γ_obs| per window (regime shift marked '|')"
    ));
    let errs = rows
        .iter()
        .flat_map(|r| r.gamma.iter().map(|s| s.gamma_err()));
    let max = errs.fold(0.0f64, f64::max);
    if max <= 0.0 {
        return out + "(no γ samples)\n";
    }
    for row in rows {
        let mut spark = String::new();
        let mut marked = false;
        for s in &row.gamma {
            if !marked && s.at_s >= shift_at_s as f64 {
                spark.push('|');
                marked = true;
            }
            spark.push(bar(s.gamma_err(), max));
        }
        let _ = writeln!(out, "{:<18} {spark}", row.policy);
    }
    out
}

/// One trace-demo run: its counts, its losses and duplicates by cause, the
/// trace-vs-audit verdict, one narrated example of each failure, and the
/// file its events go to, when they are written.
pub(crate) fn trace_run(
    label: &str,
    seed: u64,
    traced: &TracedRun,
    written: Option<&str>,
) -> String {
    let r = &traced.outcome.report;
    let (events, n, once) = (traced.events.len(), r.n_source, r.delivered_once);
    let mut out = format!("\n-- {label} (seed {seed}) --\n");
    let _ = writeln!(
        out,
        "{events} events traced; N={n} delivered_once={once} lost={} duplicated={}",
        r.lost, r.duplicated
    );
    for (cause, n) in traced.timeline.lost_by_cause() {
        let _ = writeln!(out, "  lost via {cause}: {n}");
    }
    let mut dup_causes: BTreeMap<String, u64> = BTreeMap::new();
    for tl in traced.timeline.timelines() {
        if let MessageFate::Duplicated {
            cause: Some(cause), ..
        } = &tl.fate
        {
            *dup_causes.entry(cause.to_string()).or_insert(0) += 1;
        }
    }
    for (cause, n) in dup_causes {
        let _ = writeln!(out, "  duplicated via {cause}: {n}");
    }
    let audit = &traced.audit;
    let verdict = if audit.fully_explains() {
        "every lost/duplicated message attributed".to_string()
    } else {
        format!("DISCREPANCIES: {:?}", audit.discrepancies)
    };
    let _ = writeln!(out, "  trace vs audit: {verdict}");
    // One worked example of each failure the scenario produced.
    let mut timelines = traced.timeline.timelines();
    if let Some(tl) = timelines.find(|t| matches!(t.fate, MessageFate::Lost { .. })) {
        let _ = writeln!(out, "  example lost message:\n{}", indent(&tl.narrate()));
    }
    let mut timelines = traced.timeline.timelines();
    if let Some(tl) = timelines.find(|t| matches!(t.fate, MessageFate::Duplicated { .. })) {
        let narration = indent(&tl.narrate());
        let _ = writeln!(out, "  example duplicated message:\n{narration}");
    }
    if let Some(path) = written {
        let _ = writeln!(
            out,
            "  wrote {events} events to {path} (round-trip verified)"
        );
    }
    out
}

fn indent(text: &str) -> String {
    text.lines()
        .map(|l| format!("    {l}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// The fleet figure: per partitioning strategy, skew, rebalance storm and
/// each tenant class's reliability.
pub(crate) fn fleet(spec: &FleetSpec, rows: &[FleetStrategyRow]) -> String {
    let (producers, partitions, consumers) = (spec.producers, spec.partitions, spec.consumers);
    let (assignor, churn, duration_s) = (spec.assignor.name(), spec.churn.len(), spec.duration_s);
    let mut out = format!(
        "{producers} producers, {partitions} partitions, {consumers} consumers ({assignor} \
         assignor), {churn} scripted churn events, {duration_s}s\n"
    );
    for row in rows {
        // Nothing produced loses nothing: an empty fleet reads 0 %.
        let loss_pct = 100.0 * row.lost as f64 / row.produced.max(1) as f64;
        let _ = writeln!(
            out,
            "\n-- {} --  skew {:.2}  produced {}  delivered {}  lost {} ({:.2}%)  duplicated {}",
            row.strategy, row.skew, row.produced, row.delivered, row.lost, loss_pct, row.duplicated
        );
        let _ = writeln!(
            out,
            "   rebalances {} (moved {} partitions, {} group trace events)",
            row.rebalances, row.moved_partitions, row.group_trace_events
        );
        let _ = writeln!(
            out,
            "   {:<22} {:>9} {:>10} {:>10} {:>8} {:>8} {:>7} {:>6}  met",
            "class", "producers", "produced", "delivered", "P_l", "P_d", "gamma", "req"
        );
        for c in &row.classes {
            let _ = writeln!(
                out,
                "   {:<22} {:>9} {:>10} {:>10} {:>8.4} {:>8.4} {:>7.3} {:>6.2}  {}",
                c.class,
                c.producers,
                c.produced,
                c.delivered,
                c.p_loss,
                c.p_dup,
                c.gamma,
                c.gamma_requirement,
                if c.gamma_met { "yes" } else { "NO" }
            );
        }
    }
    out + "\nkeyed routing concentrates heavy tenants (skew > 1 means a hot\n\
           partition); each membership change pauses and re-reads the moved\n\
           partitions, which shows up as duplicates in the windowed KPIs.\n"
}

/// Where `fresh` first departs from `committed`, line by line: the line
/// number and both lines, a missing line shown as `<end of text>`; `None`
/// when the two are equal.
#[must_use]
pub fn first_difference(committed: &str, fresh: &str) -> Option<String> {
    if committed == fresh {
        return None;
    }
    let (mut old, mut new) = (committed.split('\n'), fresh.split('\n'));
    let show = |l: Option<&str>| l.map_or("<end of text>".to_string(), |l| format!("{l:?}"));
    for line in 1.. {
        let (a, b) = (old.next(), new.next());
        if a != b {
            return Some(format!(
                "line {line}: committed {}, now {}",
                show(a),
                show(b)
            ));
        }
    }
    unreachable!("two unequal texts differ at some line")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::figures::SeriesPoint;

    fn demo_series() -> Series {
        Series {
            label: "demo".into(),
            points: vec![
                SeriesPoint {
                    x: 50.0,
                    p_loss: 0.8,
                    p_dup: 0.0,
                },
                SeriesPoint {
                    x: 100.0,
                    p_loss: 0.4,
                    p_dup: 0.01,
                },
                SeriesPoint {
                    x: 200.0,
                    p_loss: 0.0,
                    p_dup: 0.02,
                },
            ],
        }
    }

    #[test]
    fn render_contains_labels_and_values() {
        let text = render_series("Fig. X", "M (bytes)", "P_l", &[demo_series()]);
        assert!(text.contains("Fig. X"));
        assert!(text.contains("M (bytes)"));
        assert!(text.contains("80.00%"));
        assert!(text.contains("demo"));
    }

    #[test]
    fn sparkline_scales_to_max() {
        let s = demo_series();
        let line = sparkline(&s, "P_l");
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('█'));
        assert!(line.ends_with('▁'));
    }

    #[test]
    fn sparkline_handles_all_zero() {
        let mut s = demo_series();
        for p in &mut s.points {
            p.p_loss = 0.0;
        }
        assert_eq!(sparkline(&s, "P_l"), "▁▁▁");
    }

    #[test]
    fn p_dup_metric_selected() {
        let text = render_series("fig", "B", "P_d", &[demo_series()]);
        assert!(text.contains("2.00%"));
    }
}
