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

echo "== agenda and MinQueue == sorted map (proptest, release, raised case count) =="
# The scheduler under both engines, and the one queue it keeps, which every
# TCP channel keeps too (a short sorted run in front of std's BinaryHeap),
# must pop what a BTreeMap keyed by (time, seq) pops. Release, because overflow
# checks and debug asserts are off there, as they are in every measured run;
# 20 000 random programs a property instead of the default 64.
PROPTEST_CASES=20000 cargo test --release -q -p desim --lib -- \
    agenda queue_pops_what_a_sorted_map_pops

echo "== fleet: one flush event per phase == one per tenant; producer expiry sweep == full scan (proptest, release, raised case count) =="
# The fleet engine fires one event per flush phase tick, computes each class's
# count once from one carry per (phase, class), and walks the phase's tenants
# in index order; the per-tenant loop it replaced, with a carry per tenant, is
# kept in its test module. Over random fleets (1-40 producers of 1-3 classes,
# runs off the flush grid and shorter than the first phase, churn on every
# kind of tie, tight buckets, all three partitioners) both must give the same
# FleetOutcome but for events_fired. 20 000 random fleets instead of the
# default 64. The producer's expiry sweep (Accumulator::expire_all, which stops
# at the first unexpired batch while the ready queue's deadlines are in order)
# must expire what a full scan expires and leave its order flag true only
# while the queue is in order; a sweep that leaves that flag stale is missed
# at 64 programs and caught at 5 000.
PROPTEST_CASES=20000 cargo test --release -q -p kafkasim --lib -- \
    phase_flushes_equal_the_per_tenant_loop expire_all_equals_a_full_scan

echo "== known-answer skips: fleet bucket refill, TCP reassembly stash (proptest, release, raised case count) =="
# The fleet's PartitionState::accept skips its refill when time has not
# moved; over random buckets and instants (a third of them repeats, n = 0,
# batches past what the bucket holds) it must leave the tokens, refill
# instant and append count of a test-local copy of the always-refill form,
# bit for bit. TcpReceiver's stash is a start-sorted deque; over shuffled,
# duplicated and overlapping segments it must return every ack, and hold
# every contiguous(), that a BTreeMap keyed by start offset gives.
PROPTEST_CASES=20000 cargo test --release -q -p kafkasim --lib -- \
    accept_equals_the_always_refill_form
PROPTEST_CASES=20000 cargo test --release -q -p netsim --test tcp_properties -- \
    receiver_equals_a_btreemap_reassembler

echo "== matmul kernels: every instantiation == naive (proptest, release, raised case count) =="
# Every product runs through the public entry pinned to each instantiation
# the CPU runs (baseline, AVX2+FMA, AVX-512; the widest is what an unpinned
# call runs), compared bit for bit with matmul_naive into dirty buffers; the
# selection test beside the property fails if an entry (a product's or
# tanh's) did not pick the widest one detected, or a pin did not run the one
# it names; and a short paper-topology training and a 512-row prediction
# must end in the same bits under every instantiation. Release, because
# that is the code every measured run and every pinned digest executes.
PROPTEST_CASES=20000 cargo test --release -q -p annet --lib -- \
    kernels_equal_the_naive_product selection_rule same_bits_under_every_instantiation

echo "== own tanh: every instantiation == scalar, and == libm where libm has FMA (proptest, release, raised case count) =="
# Slices of 0..=70 random bit patterns or of values in +-25, through the
# dispatched entry pinned to each instantiation the CPU runs (the baseline's
# with library fma) and the scalar Activation::apply; then the dispatched
# entry against f64::tanh, which is
# the glibc build the port was taken from only on a CPU with FMA (the test
# is vacuous elsewhere; the golden table under `cargo test` is not).
PROPTEST_CASES=20000 cargo test --release -q -p annet --lib -- \
    slice_kernels_and_scalar_apply_agree_bitwise own_tanh_equals_the_libm_it_replaced

echo "== from_secs_f64 == f64::round (proptest, release, raised case count) =="
# The integer rounding under every simulated transmit, RTT update and service
# time against the libm call it replaced, over random magnitudes and ties.
PROPTEST_CASES=20000 cargo test --release -q -p desim --lib -- \
    from_secs_f64_equals_rounding_by_libm integer_rounding_equals_f64_round

echo "== contract digests (release) =="
# tests/contract_digests.rs already ran under `cargo test` above, in debug.
# Release is the code every measured run executes (no overflow checks, thin
# LTO across the crates), so the same constants must come out of it too.
cargo test --release -q -p kafka-predict --test contract_digests

echo "== one fleet engine (the execute_sharded shim has no caller) =="
# benchmark/ still calls the name, so a one-line shim stays until a benchmark
# PR re-points it; nothing in the workspace may lean on it meanwhile.
[ "$(grep -rn 'execute_sharded' crates tests examples | wc -l)" -eq 1 ] \
    || { echo "execute_sharded regrew a caller" >&2; exit 1; }

echo "== one link model (a constant delay and an i.i.d. loss rate; one crash per BrokerFault) =="
# No run reaches a per-packet delay or loss process, NetEm jitter or a
# flapping fault shape, so none is modelled: a link's delay and loss rate are
# set by the NetEm condition in force, Pareto delay and Gilbert-Elliott loss
# are sampled once per interval in the Fig. 9 generator only, and a flapping
# broker is a list of crashes.
! grep -rnwE 'DelayModel|LossModel|with_jitter|flaps|up_for' crates/*/src \
    || { echo "a deleted network or fault model is back" >&2; exit 1; }

echo "== one trainer (the TrainOptions::with_threads shim has no caller) =="
# Same arrangement: benchmark/ passes its thread count through the name.
[ "$(grep -rn 'with_threads' crates tests examples | wc -l)" -eq 1 ] \
    || { echo "with_threads regrew a caller" >&2; exit 1; }

echo "== one training path (train_model takes no thread count; one epoch loop) =="
# train_model trains the at-least-once head on one scoped worker beside the
# calling thread, bit-identical to training the heads in turn: there is no
# thread count to pass and no sequential fork beside it. Network::train and
# train_profiled are train_scratch, then train_in, then the closing mse, so
# outside tests annet/src/network.rs loops over epochs in one place.
train_sig="$(tr -s ' \n' ' ' < crates/core/src/train.rs | grep -oE 'pub fn train_model\([^)]*\)')"
grep -qxE 'pub fn train_model\( ?results: &\[ExperimentResult\], options: &TrainOptions, seed: u64,? ?\)' <<<"$train_sig" \
    && ! awk '/^pub struct TrainOptions \{/ { on = 1; next } on && /^\}/ { exit } on' crates/core/src/train.rs \
        | grep -q thread \
    || { echo "train_model or TrainOptions takes a thread count:" >&2; echo "$train_sig" >&2; exit 1; }
epoch_loops="$(awk '/^#\[cfg\(test\)\]/ { exit } /for .* in 0\.\.[a-z_.]*epochs/ { print FILENAME ":" FNR ": " $0 }' \
    crates/annet/src/network.rs)"
[ "$(grep -c . <<<"$epoch_loops")" -eq 1 ] \
    || { echo "annet/src/network.rs loops over epochs in more than one place:" >&2; echo "$epoch_loops" >&2; exit 1; }

echo "== one entry point per run engine =="
# KafkaRun and FleetRun each run through execute_profiled; execute and
# execute_traced are one-call wrappers over it, and those two suffixed names
# on those two types are the only run entries, public or crate-private, that
# differ from another by a suffix. Runs carry no buffers from one to the next.
entry_points="$(grep -rnE 'pub(\(crate\))? fn (execute|run)\w*_(pooled|with|traced|profiled)\b' crates || true)"
[ "$(grep -c . <<<"$entry_points")" -eq 4 ] \
    && [ "$(grep -cE '^crates/kafkasim/src/(runtime/mod|fleet/engine)\.rs:[0-9]+: +pub(\(crate\))? fn execute_(traced|profiled)\(' <<<"$entry_points")" -eq 4 ] \
    || { echo "a run entry point regrew a variant:" >&2; echo "$entry_points" >&2; exit 1; }
! grep -rn 'RunArena' crates tests examples \
    || { echo "RunArena is back" >&2; exit 1; }

echo "== one planning loop =="
# A Policy is the run loop's OnlineController, with no adapter between them,
# and the frozen and online-adaptive policies both plan through
# OnlineModelController::plan: outside tests, one function across online.rs
# and policy.rs builds the stepwise search.
! grep -rn 'PolicyController' crates tests examples \
    || { echo "PolicyController is back" >&2; exit 1; }
planners="$(for f in crates/core/src/online.rs crates/core/src/policy.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /(^| )fn [a-z_0-9]+[<(]/ { fn = $0 }
         /Recommender::new\(/ { print FILENAME ":" fn }' "$f"
done | sort -u)"
[ "$(grep -c . <<<"$planners")" -eq 1 ] \
    || { echo "the stepwise search is built in more than one function:" >&2; echo "$planners" >&2; exit 1; }

echo "== one request lifecycle =="
# Every request written to a socket sits in its connection's in-flight queue,
# tagged with the acks level it was sent under, and one teardown in the
# runtime's connection module settles it by that level, whether a request
# timeout, an acks=0 stall or a broker crash brought the connection down.
# BrokerFault is the one outage description.
! grep -rnE 'amo_outstanding|reset_amo|fail_connection_alo|teardown_append|BrokerOutage' \
    crates tests examples \
    || { echo "a second request table, reset path or outage type is back" >&2; exit 1; }
[ "$(grep -rnE '^\s*(pub(\([a-z]+\))? )?fn tear_down\(' crates/kafkasim/src | wc -l)" -eq 1 ] \
    && grep -qE '^pub\(super\) fn tear_down\(w: &mut World' crates/kafkasim/src/runtime/conn.rs \
    || { echo "the runtime's teardown is not one function in runtime/conn.rs" >&2; exit 1; }

echo "== one in-flight queue per connection =="
# A request lives in one place from its socket write until it is settled: the
# send-ordered queue on its connection. No global table, no second copy keyed
# by id, no per-connection epoch counter beside the channel's own reset count,
# no undelivered lists in the channel's reset report, and one loss enum
# (kafkasim's LossReason is obs's LossCause). The broker-side payload is
# built once, when the request's bytes reach the broker.
! grep -rnE 'InFlightTable|undelivered_from_|conn_epochs|to_loss_reason|to_loss_cause' \
    crates tests examples \
    || { echo "a second copy of the in-flight state or the loss enum is back" >&2; exit 1; }
[ "$(cat crates/kafkasim/src/runtime/*.rs | grep -vE '^(pub\(super\) )?struct RequestInfo \{' | grep -c 'RequestInfo {')" -eq 1 ] \
    || { echo "RequestInfo is built in more than one place" >&2; exit 1; }

echo "== one copy of the cluster's state =="
# Who leads each partition and which brokers are down live in
# kafkasim::cluster::Cluster only: the runtime keeps no partition-to-connection
# table and no liveness of its own, and replication and elections read the
# cluster's liveness instead of taking a mask. The signatures are matched with
# their lines joined, public or crate-private, as rustfmt may wrap them.
cluster_src="$(tr -s ' \n' ' ' < crates/kafkasim/src/cluster.rs)"
! grep -rnE 'partition_conn|down_mask|down_until' crates/kafkasim/src/runtime/ \
    || { echo "the runtime keeps a second copy of leadership or liveness" >&2; exit 1; }
! grep -nE '&\[bool\]' crates/kafkasim/src/cluster.rs \
    && grep -qE 'pub(\(crate\))? fn replicate\( ?&mut self, now: SimTime,? ?\)' <<<"$cluster_src" \
    && grep -qE 'pub(\(crate\))? fn election_candidate\( ?&self, partition: u32, now: SimTime,? ?\)' <<<"$cluster_src" \
    || { echo "Cluster::{replicate, election_candidate} take a liveness mask again" >&2; exit 1; }

echo "== one model per repro run =="
# repro trains one model a process, the paper's at full effort and the
# compact one under --quick, and hands it to every target that predicts or
# plans with it; no executor trains. Outside tests, one function under
# crates/bench/src calls the trainer.
! grep -rnE 'paper_ann|paper-ann|train_on\(|ann_accuracy|collect_training_results' \
    crates tests examples \
    || { echo "a second model choice or training path is back" >&2; exit 1; }
trainers="$(for f in $(grep -rl 'train_model(' crates/bench/src); do
    awk '/^#\[cfg\(test\)\]/ { exit } /(^| )fn [a-z_0-9]+[<(]/ { fn = $0 }
         /train_model\(/ { print FILENAME ":" fn }' "$f"
done | sort -u)"
[ "$(grep -c . <<<"$trainers")" -eq 1 ] \
    || { echo "the model is trained in more than one function:" >&2; echo "$trainers" >&2; exit 1; }

echo "== one sweep path =="
# A figure point's run is SweepSpec::run_at under either seed rule, and
# every untraced grid (collection, sweeps, sensitivity, the broker-fault
# matrix) runs on testbed::sweep::run_grid: the executor starts no run of
# its own, and one scoped spawn across testbed and bench is the only pool.
! grep -rnE 'sweep_fixed_seed|sweep_parallel' crates tests examples \
    || { echo "a second sweep path is back" >&2; exit 1; }
! grep -n 'KafkaRun::new(' crates/bench/src/exec.rs \
    || { echo "the executor runs a simulation outside the pool" >&2; exit 1; }
[ "$(grep -rn 'thread::scope' crates/testbed/src crates/bench/src | wc -l)" -eq 1 ] \
    || { echo "a second worker pool is back" >&2; exit 1; }

echo "== one read-back pass =="
# The audit reads the partition logs once, into two per-key columns sized
# from the ledger (copies and first-copy latency); the trace's ConsumerRead
# replay is a second pass over the same logs, made only when tracing. No list
# of consumed copies is built, a partition log stores only each record's key
# and append time, and the runtime sizes its ledger once from the message
# count.
! grep -rn 'ConsumedRecord' crates tests examples \
    || { echo "a list of consumed copies is back" >&2; exit 1; }
! grep -rn 'Ledger::new()' crates/kafkasim/src/runtime/ \
    || { echo "the runtime grows its ledger instead of sizing it once" >&2; exit 1; }
log_columns="$(awk '/^pub struct PartitionLog \{/ { on = 1; next } on && /^\}/ { exit }
    on && /: Vec</' crates/kafkasim/src/log.rs)"
[ "$(grep -c . <<<"$log_columns")" -eq 2 ] \
    || { echo "PartitionLog does not hold exactly two columns:" >&2; echo "$log_columns" >&2; exit 1; }

echo "== one JSON formatter =="
# serde_json's writer is the one place the data model becomes JSON text. A
# Value replays itself into it rather than formatting itself (no
# Value::write_json, no Display for Value), and the only other sink builds
# the Value tree: derived and hand-written Serialize impls emit sink calls,
# never text.
! grep -rn 'fn write_json\|Display for Value' vendor crates tests examples \
    || { echo "a second JSON formatter is back" >&2; exit 1; }
sinks="$(grep -rnE 'impl (serde::)?Sink for' vendor crates tests examples)"
[ "$(grep -c . <<<"$sinks")" -eq 2 ] \
    && grep -q '^vendor/serde/src/lib.rs:[0-9]*:impl Sink for ValueSink' <<<"$sinks" \
    && grep -q '^vendor/serde_json/src/lib.rs:[0-9]*:impl serde::Sink for JsonWriter' <<<"$sinks" \
    || { echo "a sink other than the tree builder and the JSON writer:" >&2; echo "$sinks" >&2; exit 1; }

echo "== model heads are shared =="
# A ReliabilityModel holds its three heads as Arc<Network>: a clone bumps
# reference counts and head_mut copies a head only while it is shared, so
# every policy holding the trained model costs no weights of its own.
heads="$(awk '/^pub struct ReliabilityModel \{/ { on = 1; next } on && /^\}/ { exit }
    on && /_head:/' crates/core/src/model.rs)"
[ "$(grep -c . <<<"$heads")" -eq 3 ] && [ "$(grep -c '_head: Arc<Network>,$' <<<"$heads")" -eq 3 ] \
    || { echo "ReliabilityModel's heads are not three Arc<Network>:" >&2; echo "$heads" >&2; exit 1; }

echo "== one model of the producer's host =="
# Eq. 2's service rate and wire bytes are computed from kafkasim's HostModel
# and WireFormat, not from a second analytic copy: no perfmodel crate, no
# ServiceModel or queue types, and the host's cost constants are named only
# where they are defined and where they are calibrated.
[ ! -e crates/perfmodel ] \
    || { echo "crates/perfmodel is back" >&2; exit 1; }
! grep -rnE 'ServiceModel|MM1Queue|MD1Queue' crates tests examples \
    || { echo "a second service or queue model is back" >&2; exit 1; }
! grep -rnE 'cpu_per_request|cpu_per_message|cpu_per_byte_ns' crates tests examples \
    | grep -vE '^crates/(kafkasim/src/config|testbed/src/calibration)\.rs:' \
    || { echo "the host's cost constants are copied outside HostModel and its calibration" >&2; exit 1; }

echo "== one unsafe call (annet's AVX2+FMA / AVX-512 dispatch; the other eight crates forbid it) =="
# Outside comments and lint attributes the keyword appears on exactly 2
# lines under crates/*/src, both in annet::matrix::Kernel<A>, which the
# three products and tanh share: the type of the one field holding both
# wide instantiations (`wide: [unsafe fn(A); 2]`), and the one block that
# calls an entry of it.
unsafe_lines="$(grep -rnw 'unsafe' crates/*/src | grep -vE ':[0-9]+: *//|unsafe_code')"
[ "$(grep -c . <<<"$unsafe_lines")" -eq 2 ] \
    && [ "$(grep -c 'matrix.rs:.*unsafe { self\.wide\[' <<<"$unsafe_lines")" -eq 1 ] \
    && [ "$(grep -rn 'allow(unsafe_code)' crates/*/src | wc -l)" -eq 1 ] \
    || { echo "unsafe grew past the one dispatch call:" >&2; echo "$unsafe_lines" >&2; exit 1; }
[ "$(grep -lx '#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs | wc -l)" -eq 8 ] \
    && grep -qx '#!\[deny(unsafe_code)\]' crates/annet/src/lib.rs \
    || { echo "a crate dropped forbid(unsafe_code)" >&2; exit 1; }

echo "== no fused multiply-add in the products (disassembly of the release binary) =="
# DESIGN 8b's "checked, not assumed": the wide instantiations are compiled
# with `fma` enabled, and the bits stand only because rustc never contracts a
# written `a * b + c`. So the three products' `avx2` and `avx512` symbols
# must hold no vfmadd/vfnmadd/vfmsub/vfnmsub at all, and tanh's two, where
# every fusion is a written `mul_add`, must hold some (else the grep has
# stopped seeing anything); all eight must be found. x86-64 only: elsewhere
# there is no wide symbol to look at.
if ! command -v objdump >/dev/null; then
    echo "note: objdump not found, product disassembly check skipped"
elif [ "$(uname -m)" != x86_64 ]; then
    echo "note: not x86-64, no wide instantiation to disassemble"
else
    cargo build --release -q -p bench --bin repro
    fused="$(objdump -d --no-show-raw-insn -C target/release/repro | awk '
        /^[0-9a-f]+ <.*>:$/ { sym = "" }
        /^[0-9a-f]+ <annet::matrix::Kernel<.*>::(ROWS|STRIPS|AT_B|TANH)::(avx2|avx512)>:$/ {
            parts = split(substr($0, 1, length($0) - 2), part, "::")
            sym = part[parts - 1] "::" part[parts]; seen[sym] = 1
        }
        sym != "" && /vfn?m(add|sub)/ { n[sym]++ }
        END { for (k in seen) print k, n[k] + 0 }' | sort)"
    echo "$fused" | tr '\n' ';'; echo
    [ "$(grep -c . <<<"$fused")" -eq 8 ] \
        && [ "$(grep -cE '^(AT_B|ROWS|STRIPS)::(avx2|avx512) 0$' <<<"$fused")" -eq 6 ] \
        && [ "$(grep -cE '^TANH::(avx2|avx512) [1-9]' <<<"$fused")" -eq 2 ] \
        || { echo "a product was compiled to a fused multiply-add, or a wide symbol is gone" >&2; exit 1; }
fi

echo "== no libm tanh in annet (f64::tanh only in the tests that pin the port to it) =="
# 0 lines: a `.tanh()` above a file's `#[cfg(test)]` would put the host's
# libm, and with it whether the CPU has FMA, back into every trained weight.
libm_tanh="$(for f in crates/annet/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /\.tanh\(\)/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)"
[ -z "$libm_tanh" ] \
    || { echo "annet calls libm's tanh outside its tests:" >&2; echo "$libm_tanh" >&2; exit 1; }

echo "== committed results: every results/*.txt regenerated in one process, at two thread counts =="
# repro check-results runs every built-in document through
# bench::exec::run_document at default effort, training once, and names the
# first line of each text that differs from results/. The second pass at one
# thread makes thread invariance a gate on every target.
cargo build --release -q -p bench --bin repro
target/release/repro check-results
target/release/repro check-results --threads 1

echo "== span profiler (smoke) =="
# The profiled smoke run must keep emitting a loadable Chrome trace:
# valid JSON, balanced and well-nested B/E events, monotone timestamps.
cargo build --release -q -p bench --bin repro
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
# The smoke is a run report like any other: its JSON loads and carries the
# profile's summary, and the profile itself is written beside it.
python3 - target/profile-smoke/report.json <<'EOF' \
    || { echo "report.json validation failed" >&2; exit 1; }
import json, sys
report = json.load(open(sys.argv[1]))
assert report["profile_summary"]["paths"] > 0, "report.json has no span profile"
assert report["delivery"]["n_source"] > 0, "report.json has no delivery"
EOF
[ -s target/profile-smoke/profile.json ] \
    || { echo "missing profile.json" >&2; exit 1; }

echo "== one inspection path =="
# repro report is the one way to look inside a run: the probe binary and
# the profile smoke's own result type and writer folded into it, so repro
# is the crate's only binary and write_report the one place bench makes a
# directory.
[ "$(ls crates/bench/src/bin)" = "repro.rs" ] \
    || { echo "crates/bench/src/bin holds more than repro.rs:" >&2; ls crates/bench/src/bin >&2; exit 1; }
[ "$(grep -rn 'create_dir_all' crates/bench/src | wc -l)" -eq 1 ] \
    || { echo "crates/bench/src makes directories in more than one place" >&2; exit 1; }
! grep -rn 'ProfileSmoke' crates tests examples \
    || { echo "ProfileSmoke is back" >&2; exit 1; }

echo "== repo benchmark (smoke: seed-42 digests) =="
# All four workloads at smoke scale, untraced and traced. Every job's
# result is digested and compared with benchmark/expected.json, so a
# last-bit drift in trained weights, predictions, chosen configurations or
# simulated outcomes fails here (`correct: false`, exit 1), not in review.
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- --smoke \
    > target/benchmark-smoke.log \
    || { grep '^# FAILED' target/benchmark-smoke.log >&2; echo "benchmark smoke failed" >&2; exit 1; }

echo "CI green."
