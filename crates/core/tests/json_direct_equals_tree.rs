//! The direct JSON path writes what the tree path writes.
//!
//! `serde_json::to_string` drives the JSON writer straight from a typed
//! value; `to_value` builds the `Value` tree, which replays itself into the
//! same writer. For the workspace's persisted types (every committed
//! scenario, a run's audit and counters, a set of experiment results, a
//! trained model) both paths must give the same text, compact and pretty,
//! and the text must parse back to the value.
//!
//! Random `Value` trees are written against `oracle`, the tree formatter
//! the writer replaced, kept here as the definition of the bytes: empty
//! containers, integral floats (`1.0`), `-0.0`, NaN and infinities
//! (`null`), string escapes and escaped map keys.

use std::path::PathBuf;

use desim::{SimDuration, SimRng};
use kafka_predict::prelude::*;
use kafkasim::runtime::KafkaRun;
use proptest::prelude::*;
use serde::{Deserialize, Serialize, Value};
use testbed::experiment::ExperimentPoint;

/// Both paths, both layouts, and the round trip through text.
fn assert_paths_agree<T>(what: &str, x: &T)
where
    T: Serialize + Deserialize + PartialEq + std::fmt::Debug,
{
    let tree = serde_json::to_value(x);
    let compact = serde_json::to_string(x).unwrap();
    let pretty = serde_json::to_string_pretty(x).unwrap();
    assert_eq!(
        compact,
        serde_json::to_string(&tree).unwrap(),
        "{what}: compact"
    );
    assert_eq!(
        pretty,
        serde_json::to_string_pretty(&tree).unwrap(),
        "{what}: pretty"
    );
    for text in [&compact, &pretty] {
        let back: T = serde_json::from_str(text).unwrap_or_else(|e| panic!("{what}: {e}"));
        assert_eq!(&back, x, "{what}: round trip");
    }
}

#[test]
fn every_committed_scenario() {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("scenarios/ exists")
        .map(|e| e.expect("readable entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "toml"))
        .collect();
    paths.sort();
    assert_eq!(paths.len(), 22, "the committed corpus");
    for path in paths {
        let spec = spec::io::load(&path).expect("the corpus loads");
        assert_paths_agree(&path.display().to_string(), &spec);
    }
}

#[test]
fn run_audit_results_and_trained_model() {
    let cal = Calibration::paper();
    let point = ExperimentPoint {
        batch_size: 4,
        loss_rate: 0.1,
        delay: SimDuration::from_millis(50),
        ..ExperimentPoint::default()
    };
    let outcome = KafkaRun::new(point.to_run_spec(&cal, 400), 7).execute();
    let parts = (
        outcome.report,
        outcome.producer,
        outcome.brokers,
        outcome.tcp,
    );
    assert_paths_agree("run outcome", &parts);
    assert_paths_agree("run links", &outcome.links);

    let results = quick_grid(&cal, 300, 1);
    assert_paths_agree("experiment results", &results);

    let mut options = TrainOptions::fast();
    options.sgd.epochs = 2;
    let trained = train_model(&results, &options, 11).expect("the quick grid trains");
    assert_paths_agree("trained model", &trained);
}

/// The tree formatter the streaming writer replaced.
fn oracle(v: &Value, out: &mut String, pretty: Option<usize>, depth: usize) {
    fn escape(out: &mut String, s: &str) {
        out.push('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\r' => out.push_str("\\r"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out.push('"');
    }
    fn nl(out: &mut String, indent: usize, depth: usize) {
        out.push('\n');
        out.push_str(&" ".repeat(indent * depth));
    }
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(f) if f.is_finite() => {
            let s = format!("{f}");
            out.push_str(&s);
            if !s.contains('.') && !s.contains('e') && !s.contains('E') {
                out.push_str(".0");
            }
        }
        Value::Float(_) => out.push_str("null"),
        Value::Str(s) => escape(out, s),
        Value::Seq(items) if items.is_empty() => out.push_str("[]"),
        Value::Map(entries) if entries.is_empty() => out.push_str("{}"),
        Value::Seq(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(ind) = pretty {
                    nl(out, ind, depth + 1);
                }
                oracle(item, out, pretty, depth + 1);
            }
            if let Some(ind) = pretty {
                nl(out, ind, depth);
            }
            out.push(']');
        }
        Value::Map(entries) => {
            out.push('{');
            for (i, (k, val)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                if let Some(ind) = pretty {
                    nl(out, ind, depth + 1);
                }
                escape(out, k);
                out.push(':');
                if pretty.is_some() {
                    out.push(' ');
                }
                oracle(val, out, pretty, depth + 1);
            }
            if let Some(ind) = pretty {
                nl(out, ind, depth);
            }
            out.push('}');
        }
    }
}

const FLOATS: &[f64] = &[
    0.0,
    -0.0,
    1.0,
    -3.0,
    0.1,
    1e21,
    1e300,
    5e-324,
    f64::MAX,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
];

const CHARS: &[char] = &[
    'a', ' ', '/', '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{8}', '\u{1f}', 'é', '€', '𝄞',
];

fn random_string(rng: &mut SimRng) -> String {
    (0..rng.next_below(6))
        .map(|_| *rng.choose(CHARS).expect("non-empty"))
        .collect()
}

/// A random tree of at most `depth` levels; containers may be empty.
fn random_value(rng: &mut SimRng, depth: u32) -> Value {
    let kinds = if depth == 0 { 7 } else { 9 };
    match rng.next_below(kinds) {
        0 => Value::Null,
        1 => Value::Bool(rng.bernoulli(0.5)),
        2 => Value::Int(-1 - rng.next_below(1 << 40) as i64),
        3 => Value::UInt(rng.next_u64() >> rng.next_below(64)),
        4 => Value::Float(*rng.choose(FLOATS).expect("non-empty")),
        5 => Value::Float(f64::from_bits(rng.next_u64())),
        6 => Value::Str(random_string(rng)),
        7 => Value::Seq(
            (0..rng.next_below(4))
                .map(|_| random_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Map(
            (0..rng.next_below(4))
                .map(|_| (random_string(rng), random_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

/// `a` and `b` are the same tree, floats compared by bits and the
/// non-finite ones as the `null` JSON writes for them.
fn same_tree(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Float(x), Value::Null) => !x.is_finite(),
        (Value::Seq(x), Value::Seq(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(x, y)| same_tree(x, y))
        }
        (Value::Map(x), Value::Map(y)) => {
            x.len() == y.len()
                && x.iter()
                    .zip(y)
                    .all(|((kx, x), (ky, y))| kx == ky && same_tree(x, y))
        }
        (x, y) => x == y,
    }
}

#[test]
fn edge_cases_write_the_pinned_text() {
    let v = Value::Map(vec![
        ("empty".into(), Value::Seq(vec![])),
        ("none".into(), Value::Map(vec![])),
        (
            "floats".into(),
            Value::Seq(vec![
                Value::Float(2.0),
                Value::Float(-0.0),
                Value::Float(f64::NAN),
                Value::Float(f64::NEG_INFINITY),
                Value::Float(0.25),
            ]),
        ),
        ("k\"\\\n\u{1}".into(), Value::Str("t\tr\r/é".into())),
        (
            "ints".into(),
            Value::Seq(vec![Value::Int(-5), Value::UInt(7)]),
        ),
    ]);
    assert_eq!(
        serde_json::to_string(&v).unwrap(),
        r#"{"empty":[],"none":{},"floats":[2.0,-0.0,null,null,0.25],"k\"\\\n\u0001":"t\tr\r/é","ints":[-5,7]}"#
    );
    assert_eq!(
        serde_json::to_string_pretty(&v).unwrap(),
        "{\n  \"empty\": [],\n  \"none\": {},\n  \"floats\": [\n    2.0,\n    -0.0,\n    null,\n    \
         null,\n    0.25\n  ],\n  \"k\\\"\\\\\\n\\u0001\": \"t\\tr\\r/é\",\n  \"ints\": [\n    -5,\n    \
         7\n  ]\n}"
    );
}

proptest! {
    #[test]
    fn random_trees_write_what_the_tree_formatter_wrote(seed in 0u64..u64::MAX) {
        let v = random_value(&mut SimRng::seed_from_u64(seed), 4);
        for pretty in [None, Some(2)] {
            let mut want = String::new();
            oracle(&v, &mut want, pretty, 0);
            let got = match pretty {
                None => serde_json::to_string(&v).unwrap(),
                Some(_) => serde_json::to_string_pretty(&v).unwrap(),
            };
            prop_assert_eq!(&got, &want);
            let back = serde_json::parse_value(&got).unwrap();
            prop_assert!(same_tree(&v, &back), "{got} parsed to {back:?}");
        }
    }
}
