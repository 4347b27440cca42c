//! Robustness of the loader against malformed scenario documents.
//!
//! Every committed `scenarios/*.toml` is mutated about 200 times, one byte
//! edit each: a byte deleted, a byte duplicated, a byte replaced with one
//! of the characters TOML's grammar turns on, or the text truncated. Each
//! mutant goes through `spec::io::from_toml_str`, which must not panic, and
//! every error it returns must name where: a non-empty field path or line.
//! The edits are drawn from `SimRng`, so a failure reproduces exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;

use desim::SimRng;
use spec::error::LoadError;

const MUTANTS_PER_TEXT: usize = 200;

/// Replacement bytes: the ones TOML's grammar turns on.
const SPECIALS: &[u8] = b"=[]\".-09#\n";

fn corpus() -> Vec<(String, String)> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut texts: Vec<_> = std::fs::read_dir(dir)
        .expect("scenarios/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("scenario is UTF-8");
            (p.file_name().unwrap().to_string_lossy().into_owned(), text)
        })
        .collect();
    texts.sort();
    texts
}

/// One deterministic byte edit of `text`, and a label saying which.
fn mutate(text: &[u8], rng: &mut SimRng) -> (Vec<u8>, String) {
    let mut bytes = text.to_vec();
    let at = rng.next_below(bytes.len() as u64) as usize;
    let label = match rng.next_below(4) {
        0 => {
            bytes.remove(at);
            format!("delete byte {at}")
        }
        1 => {
            bytes.insert(at, bytes[at]);
            format!("duplicate byte {at}")
        }
        2 => {
            let with = *rng.choose(SPECIALS).expect("non-empty");
            bytes[at] = with;
            format!("replace byte {at} with {:?}", char::from(with))
        }
        _ => {
            bytes.truncate(at);
            format!("truncate at {at}")
        }
    };
    (bytes, label)
}

fn names_where(e: &LoadError) -> bool {
    match e {
        LoadError::Parse(e) | LoadError::Invalid(e) => !e.path.trim().is_empty(),
        LoadError::Io(..) | LoadError::UnknownFormat(_) => false,
    }
}

#[test]
fn mutated_scenarios_fail_with_a_path_never_a_panic() {
    let corpus = corpus();
    assert_eq!(corpus.len(), 22, "the committed corpus");
    let mut rng = SimRng::seed_from_u64(0x5eed_c0de);
    let (mut failures, mut rejected) = (Vec::new(), 0usize);
    for (name, text) in &corpus {
        for _ in 0..MUTANTS_PER_TEXT {
            let (bytes, label) = mutate(text.as_bytes(), &mut rng);
            // A byte edit inside a multi-byte character leaves invalid
            // UTF-8; the loader takes `&str`, so those go in repaired.
            let mutant = String::from_utf8_lossy(&bytes);
            match catch_unwind(AssertUnwindSafe(|| spec::io::from_toml_str(&mutant))) {
                Err(_) => failures.push(format!("{name}, {label}: panicked")),
                Ok(Err(e)) if !names_where(&e) => {
                    failures.push(format!("{name}, {label}: no path in {e}"));
                }
                Ok(Err(_)) => rejected += 1,
                Ok(Ok(_)) => {}
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
    // Most single-byte edits of a document break it; a mutator whose every
    // edit landed in a comment would test nothing.
    assert!(rejected > corpus.len() * MUTANTS_PER_TEXT / 4, "{rejected}");
}
