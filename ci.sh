#!/usr/bin/env bash
# Local CI: formatting, lints, full test suite. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (warnings are errors) =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== cargo test =="
cargo test --workspace -q

echo "== agenda == bare heap (proptest, release, raised case count) =="
# The scheduler under both engines must pop what a plain MinQueue pops.
# Release, because overflow checks and debug asserts are off there, as they
# are in every measured run; 20 000 random programs a property instead of
# the default 64.
PROPTEST_CASES=20000 cargo test --release -q -p desim --lib agenda

echo "== matmul kernels == naive product (proptest, release, raised case count) =="
# The column strips under backprop's narrow products (every 8/4/2/1 cascade
# split, odd row counts) and the loops beside them must equal matmul_naive
# bit for bit, into dirty buffers. Release, because that is the code every
# measured run and every pinned digest executes.
PROPTEST_CASES=20000 cargo test --release -q -p annet --lib kernels_equal_the_naive_product

echo "== one fleet engine (the execute_sharded shim has no caller) =="
# benchmark/ still calls the name, so a one-line shim stays until a benchmark
# PR re-points it; nothing in the workspace may lean on it meanwhile.
[ "$(grep -rn 'execute_sharded' crates tests examples | wc -l)" -eq 1 ] \
    || { echo "execute_sharded regrew a caller" >&2; exit 1; }

echo "== scenario corpus (parse + validate + builtin pin) =="
# Every committed scenarios/*.toml must parse, validate, and stay in sync
# with the built-in corpus the named repro targets resolve to.
cargo build --release -q -p bench --bin repro
target/release/repro validate-scenarios scenarios

echo "== perf baseline (smoke) =="
# The tracked perf baseline must keep producing well-formed BENCH files.
# Smoke mode shrinks the workloads to seconds; the JSON is validated with
# the same parser the tooling uses.
cargo build --release -q -p bench --bin perfbase
target/release/perfbase --smoke --out-dir target/bench-smoke
for f in target/bench-smoke/BENCH_sim.json target/bench-smoke/BENCH_train.json \
         target/bench-smoke/BENCH_infer.json target/bench-smoke/BENCH_planner.json; do
    [ -s "$f" ] || { echo "missing bench output: $f" >&2; exit 1; }
    python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$f" \
        || { echo "malformed bench output: $f" >&2; exit 1; }
done
# The inference baseline must carry the digest fields the A/B comparison
# and the bit-identity pins key on, plus all three timing sections.
python3 - target/bench-smoke/BENCH_infer.json <<'EOF' \
    || { echo "BENCH_infer.json schema check failed" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("mode", "rows", "reps", "scalar", "batched", "cached",
            "predictions_digest", "planner"):
    assert key in d, f"missing key: {key}"
for section in ("scalar", "batched", "cached"):
    assert "predictions_per_sec" in d[section], f"missing {section} rate"
assert "speedup_over_scalar" in d["batched"], "missing batched speedup"
assert "hit_rate" in d["cached"], "missing cache hit rate"
assert "planner_digest" in d["planner"], "missing planner digest"
int(d["predictions_digest"], 16)
int(d["planner"]["planner_digest"], 16)
EOF
# The simulation baseline must carry its digest plus the interleaved
# min-of-N obs-overhead measurement, with a ratio inside the sane band
# perfbase itself asserts (re-checked here against the written file).
python3 - target/bench-smoke/BENCH_sim.json <<'EOF' \
    || { echo "BENCH_sim.json schema check failed" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("mode", "threads", "sweep", "single_run", "obs_overhead",
            "peak_rss_kb"):
    assert key in d, f"missing key: {key}"
for key in ("points", "n_messages", "wall_s", "msgs_per_sec", "results_digest"):
    assert key in d["sweep"], f"missing sweep key: {key}"
for key in ("n_messages", "wall_s", "msgs_per_sec"):
    assert key in d["single_run"], f"missing single_run key: {key}"
for key in ("reps", "untraced_wall_s", "noop_wall_s", "noop_over_untraced"):
    assert key in d["obs_overhead"], f"missing obs_overhead key: {key}"
int(d["sweep"]["results_digest"], 16)
assert d["obs_overhead"]["reps"] >= 3, "obs overhead needs min-of-N reps"
ratio = d["obs_overhead"]["noop_over_untraced"]
assert 0.75 <= ratio <= 2.5, f"obs overhead ratio {ratio} outside sane band"
# The carried-forward baselines block, and a throughput floor on the
# single-run path: the refactored hot path must stay comfortably above the
# PR 8 baseline. The floor is 0.5x rather than the 2x stretch target
# because smoke mode times a 2k-message run on a shared 1-core CI host
# (single-shot, cold caches) — interleaved full-mode A/B numbers live in
# EXPERIMENTS.md; this assert exists to catch order-of-magnitude
# regressions, not to re-measure the speedup.
for key in ("pr8_single_run_msgs_per_sec", "pr8_sweep_msgs_per_sec"):
    assert key in d["baselines"], f"missing baselines key: {key}"
floor = 0.5 * d["baselines"]["pr8_single_run_msgs_per_sec"]
rate = d["single_run"]["msgs_per_sec"]
assert rate >= floor, (
    f"single-run throughput {rate:.0f} msgs/s fell below the regression "
    f"floor {floor:.0f} (0.5x the PR 8 baseline)")
EOF
# Memory regression band: warn (not fail — RSS depends on allocator and
# host) when the smoke run's peak RSS exceeds 1.5x the tracked full-mode
# baseline. Smoke workloads are strictly smaller than full ones, so a smoke
# RSS above the tracked full-mode peak means the arena/pool reuse regressed.
python3 - target/bench-smoke/BENCH_sim.json BENCH_sim.json <<'EOF'
import json, sys
smoke = json.load(open(sys.argv[1]))["peak_rss_kb"]
tracked = json.load(open(sys.argv[2]))["peak_rss_kb"]
if tracked and smoke > 1.5 * tracked:
    print(f"WARNING: smoke peak RSS {smoke} kB exceeds 1.5x the tracked "
          f"baseline {tracked} kB — check for per-message allocations",
          file=sys.stderr)
EOF
# The training baseline must carry the weights digest that pins training
# speedups to bit-identical results.
python3 - target/bench-smoke/BENCH_train.json <<'EOF' \
    || { echo "BENCH_train.json schema check failed" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("mode", "samples", "epochs", "wall_s", "epochs_per_sec",
            "final_mse", "weights_digest", "peak_rss_kb"):
    assert key in d, f"missing key: {key}"
int(d["weights_digest"], 16)
assert d["epochs_per_sec"] > 0, "non-positive training rate"
EOF
# The control-plane baseline must carry all three policy blocks. The
# online block has to prove the refit path was actually timed (refits >= 1
# and a matching model generation); the bandit block has to report its arm
# count; every block pins its chosen-config digest so policy decisions
# stay bit-identical run to run.
python3 - target/bench-smoke/BENCH_planner.json <<'EOF' \
    || { echo "BENCH_planner.json schema check failed" >&2; exit 1; }
import json, sys
d = json.load(open(sys.argv[1]))
for key in ("mode", "windows", "reps", "frozen", "online", "bandit",
            "peak_rss_kb"):
    assert key in d, f"missing key: {key}"
for section in ("frozen", "online", "bandit"):
    for key in ("decides", "wall_s", "decides_per_sec", "configs_digest"):
        assert key in d[section], f"missing {section} key: {key}"
    int(d[section]["configs_digest"], 16)
    assert d[section]["decides_per_sec"] > 0, f"non-positive {section} rate"
assert d["online"]["refits"] >= 1, "online policy never exercised a refit"
assert d["online"]["generation"] == d["online"]["refits"], \
    "model generation must track refit count"
assert d["bandit"]["arms"] > 0, "bandit reported an empty arm set"
EOF

echo "== thread-count determinism gate (smoke, 1 vs 4 threads) =="
# Two full smoke baselines at different worker-thread counts must agree on
# the sweep digest (run_sweep fans points out over a pool). A mismatch means
# thread count leaked into simulation results.
target/release/perfbase --smoke --threads 1 --out-dir target/bench-smoke-t1
target/release/perfbase --smoke --threads 4 --out-dir target/bench-smoke-t4
python3 - target/bench-smoke-t1/BENCH_sim.json target/bench-smoke-t4/BENCH_sim.json <<'EOF' \
    || { echo "thread-count determinism gate failed" >&2; exit 1; }
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
assert a["sweep"]["results_digest"] == b["sweep"]["results_digest"], (
    f"sweep digest differs across thread counts: "
    f"{a['sweep']['results_digest']} vs {b['sweep']['results_digest']}")
EOF
# The control-plane policies decide on a single thread, so their chosen
# configurations must not move with the worker pool either.
python3 - target/bench-smoke-t1/BENCH_planner.json target/bench-smoke-t4/BENCH_planner.json <<'EOF' \
    || { echo "policy digest determinism gate failed" >&2; exit 1; }
import json, sys
a = json.load(open(sys.argv[1]))
b = json.load(open(sys.argv[2]))
for section in ("frozen", "online", "bandit"):
    assert a[section]["configs_digest"] == b[section]["configs_digest"], (
        f"{section} policy digest differs across thread counts: "
        f"{a[section]['configs_digest']} vs {b[section]['configs_digest']}")
EOF

echo "== span profiler (smoke) =="
# The profiled smoke run must keep emitting a loadable Chrome trace:
# valid JSON, balanced and well-nested B/E events, monotone timestamps.
target/release/repro profile --quick --out target/profile-smoke
python3 - target/profile-smoke/trace.json <<'EOF' \
    || { echo "Chrome trace validation failed" >&2; exit 1; }
import json, sys
events = json.load(open(sys.argv[1]))
assert isinstance(events, list) and events, "trace is not a non-empty array"
depth, last_ts = 0, 0.0
for e in events:
    assert e["ph"] in ("B", "E"), f"unexpected phase {e['ph']}"
    assert e["ts"] >= last_ts, "timestamps must be non-decreasing"
    last_ts = e["ts"]
    depth += 1 if e["ph"] == "B" else -1
    assert depth >= 0, "E without matching B"
assert depth == 0, "unbalanced B/E events"
EOF
[ -s target/profile-smoke/profile.folded ] \
    || { echo "missing folded stacks" >&2; exit 1; }
[ -s target/profile-smoke/windows.csv ] \
    || { echo "missing windowed KPIs" >&2; exit 1; }

echo "== repo benchmark (smoke: seed-42 digests) =="
# All four workloads at smoke scale, untraced and traced. Every job's
# result is digested and compared with benchmark/expected.json, so a
# last-bit drift in trained weights, predictions, chosen configurations or
# simulated outcomes fails here (`correct: false`, exit 1), not in review.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke \
    > target/benchmark-smoke.log \
    || { grep '^# FAILED' target/benchmark-smoke.log >&2; echo "benchmark smoke failed" >&2; exit 1; }

echo "CI green."
