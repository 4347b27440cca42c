//! Plain-text rendering of figure series and tables for the `repro`
//! binary.

use crate::figures::{RegimeShiftRow, Series, Table2Row};

/// Renders one or more series as an aligned text table with an ASCII
/// sparkline per curve.
#[must_use]
pub fn render_series(title: &str, x_label: &str, metric: &str, series: &[Series]) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {title} ==\n"));
    if series.is_empty() {
        out.push_str("(no data)\n");
        return out;
    }
    // Header row of x values.
    out.push_str(&format!("{x_label:>24} |"));
    for p in &series[0].points {
        out.push_str(&format!(" {:>7} ", trim_float(p.x)));
    }
    out.push('\n');
    let width = 26 + series[0].points.len() * 9;
    out.push_str(&"-".repeat(width));
    out.push('\n');
    for s in series {
        out.push_str(&format!("{:>24} |", s.label));
        for p in &s.points {
            let v = match metric {
                "P_d" => p.p_dup,
                _ => p.p_loss,
            };
            out.push_str(&format!(" {:>6.2}% ", v * 100.0));
        }
        out.push_str(&format!("  {}\n", sparkline(s, metric)));
    }
    out
}

fn trim_float(x: f64) -> String {
    if (x - x.round()).abs() < 1e-9 {
        format!("{}", x.round() as i64)
    } else {
        format!("{x:.2}")
    }
}

/// A tiny unicode sparkline of the series' chosen metric.
#[must_use]
pub(crate) fn sparkline(series: &Series, metric: &str) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let values: Vec<f64> = series
        .points
        .iter()
        .map(|p| match metric {
            "P_d" => p.p_dup,
            _ => p.p_loss,
        })
        .collect();
    let max = values.iter().copied().fold(0.0f64, f64::max);
    if max <= 0.0 {
        return "▁".repeat(values.len());
    }
    values
        .iter()
        .map(|v| {
            let idx = ((v / max) * 7.0).round() as usize;
            BARS[idx.min(7)]
        })
        .collect()
}

/// Renders Table II in the paper's layout.
#[must_use]
pub fn render_table2(rows: &[Table2Row]) -> String {
    let mut out = String::new();
    out.push_str("== Table II: overall message loss and duplicate rates ==\n");
    out.push_str(&format!(
        "{:<32} {:>12} {:>12} {:>12} {:>12}  weights (ω1..ω4)\n",
        "scenario", "R_l default", "R_l dynamic", "R_d default", "R_d dynamic"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<32} {:>11.2}% {:>11.2}% {:>11.2}% {:>11.2}%  {:.1}, {:.1}, {:.1}, {:.1}\n",
            row.scenario,
            row.default.r_loss * 100.0,
            row.dynamic.r_loss * 100.0,
            row.default.r_dup * 100.0,
            row.dynamic.r_dup * 100.0,
            row.weights.bandwidth,
            row.weights.service_rate,
            row.weights.no_loss,
            row.weights.no_duplicate,
        ));
    }
    out
}

/// Renders the regime-shift comparison: one γ-error sparkline per policy
/// over the run's observation windows, the shift point marked with `|`.
/// All policies share one scale, so a flatter line is a better planner.
#[must_use]
pub fn render_regime_shift(title: &str, shift_at_s: u64, rows: &[RegimeShiftRow]) -> String {
    const BARS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    out.push_str(&format!(
        "== {title}: |γ_pred − γ_obs| per window (regime shift marked '|') ==\n"
    ));
    let max = rows
        .iter()
        .flat_map(|r| r.gamma.iter())
        .map(|s| s.gamma_err())
        .fold(0.0f64, f64::max);
    if max <= 0.0 {
        out.push_str("(no γ samples)\n");
        return out;
    }
    let shift = shift_at_s as f64;
    for row in rows {
        let mut spark = String::new();
        let mut marked = false;
        for s in &row.gamma {
            if !marked && s.at_s >= shift {
                spark.push('|');
                marked = true;
            }
            let idx = ((s.gamma_err() / max) * 7.0).round() as usize;
            spark.push(BARS[idx.min(7)]);
        }
        out.push_str(&format!("{:<18} {spark}\n", row.policy));
    }
    out
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
