//! `--smoke`: all four workloads through both passes in seconds, with the
//! same metric names as a full run.

use std::process::Command;
use std::time::Instant;

use serde_json::Value;

fn names(doc: &Value, key: &str) -> Vec<(String, String)> {
    let list = doc.get(key).and_then(Value::as_seq).expect("a metric list");
    list.iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .expect("a string")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn smoke_prints_every_declared_metric_once_per_pass() {
    let manifest = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let manifest = std::fs::read_to_string(manifest).expect("BENCHMARK.json at the repo root");
    let manifest = serde_json::parse_value(&manifest).expect("BENCHMARK.json parses");
    let end_to_end = names(&manifest, "end_to_end");
    let per_layer = names(&manifest, "per_layer");
    let workloads: Vec<String> = manifest
        .get("workloads")
        .and_then(Value::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Value::as_str)
                .expect("a name")
                .to_string()
        })
        .collect();
    assert_eq!(workloads.len(), 4);

    let start = Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .arg("--smoke")
        .output()
        .expect("the benchmark runs");
    let took = start.elapsed().as_secs_f64();
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "--smoke failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    // Release builds take about 6 s; an unoptimised test build is slower.
    assert!(
        took < if cfg!(debug_assertions) { 120.0 } else { 10.0 },
        "--smoke took {took} s"
    );

    // One block per workload and pass: notes, metric lines, result line.
    let mut blocks: Vec<Vec<&str>> = Vec::new();
    for line in stdout.lines() {
        if line.starts_with("# workload ") {
            blocks.push(Vec::new());
        }
        blocks
            .last_mut()
            .expect("output starts with a note")
            .push(line);
    }
    assert_eq!(blocks.len(), 2 * workloads.len());
    for (i, block) in blocks.iter().enumerate() {
        let workload = &workloads[i / 2];
        let traced = i % 2 == 1;
        let header = format!(
            "# workload {workload} seed 42 seconds 0 trace {} mode smoke",
            u8::from(traced)
        );
        assert_eq!(block[0], header);
        let declared = if traced { &per_layer } else { &end_to_end };
        let lines: Vec<&&str> = block
            .iter()
            .filter(|l| !l.starts_with('#') && !l.starts_with('{'))
            .collect();
        assert_eq!(lines.len(), declared.len(), "{header}: {lines:?}");
        for (line, (name, unit)) in lines.iter().zip(declared) {
            let fields: Vec<&str> = line.split(' ').collect();
            assert_eq!(fields.len(), 3, "{header}: {line}");
            assert_eq!((fields[0], fields[2]), (name.as_str(), unit.as_str()));
            let value: f64 = fields[1].parse().expect("a number");
            assert!(value.is_finite() && value >= 0.0, "{header}: {line}");
            if !traced {
                assert!(value > 0.0, "{header}: end-to-end {line} must never be 0");
            }
        }

        let result = serde_json::parse_value(block.last().expect("a result line"))
            .unwrap_or_else(|e| panic!("{header}: last line is not JSON: {e}"));
        let keys: Vec<&str> = result
            .as_map()
            .expect("an object")
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(result.get("correct").and_then(Value::as_bool), Some(true));
        assert_eq!(result.get("failed").and_then(Value::as_u64), Some(0));
        assert!(result.get("attempted").and_then(Value::as_u64) >= Some(1));
        let metrics = result
            .get("metrics")
            .and_then(Value::as_map)
            .expect("metrics");
        let reported: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        let wanted: Vec<&str> = declared.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(reported, wanted, "{header}");
    }
}

#[test]
fn a_bad_command_line_exits_with_usage() {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["--workload", "no-such-workload"])
        .output()
        .expect("the benchmark runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}
