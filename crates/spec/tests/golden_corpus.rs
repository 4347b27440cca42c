//! Golden-file tests over the committed `scenarios/` corpus.
//!
//! Every file must parse, validate and carry the name of its file stem,
//! and the table `spec::builtin` embeds must be exactly the directory
//! listing — a file added without its table line (or the reverse) is red.

use std::path::PathBuf;

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios")
}

fn corpus() -> Vec<(PathBuf, spec::Spec)> {
    let mut paths: Vec<_> = std::fs::read_dir(corpus_dir())
        .expect("scenarios/ directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "scenarios/ must not be empty");
    paths
        .into_iter()
        .map(|p| {
            let doc = spec::io::load(&p).unwrap_or_else(|e| panic!("{}: {e}", p.display()));
            (p, doc)
        })
        .collect()
}

#[test]
fn every_file_parses_and_validates() {
    for (path, doc) in corpus() {
        doc.validate()
            .unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    }
}

#[test]
fn file_stems_match_scenario_names() {
    for (path, doc) in corpus() {
        let stem = path.file_stem().and_then(|s| s.to_str()).unwrap();
        assert_eq!(stem, doc.name, "{} is misnamed", path.display());
    }
}

#[test]
fn embedded_table_is_exactly_the_directory_listing() {
    let mut embedded: Vec<_> = spec::builtin::all().into_iter().map(|s| s.name).collect();
    embedded.sort();
    let mut files: Vec<_> = corpus()
        .iter()
        .map(|(path, _)| path.file_stem().unwrap().to_str().unwrap().to_string())
        .collect();
    files.sort();
    assert_eq!(
        embedded, files,
        "spec::builtin's table and scenarios/*.toml list different scenarios"
    );
}

#[test]
fn corpus_round_trips_through_both_formats() {
    for (path, doc) in corpus() {
        let toml = spec::io::to_toml_string(&doc);
        assert_eq!(
            spec::io::from_toml_str(&toml).unwrap(),
            doc,
            "{}: TOML round-trip",
            path.display()
        );
        let json = spec::io::to_json_string(&doc);
        assert_eq!(
            spec::io::from_json_str(&json).unwrap(),
            doc,
            "{}: JSON round-trip",
            path.display()
        );
    }
}
