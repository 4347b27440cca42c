#!/usr/bin/env bash
# CI for the nested benchmark workspace: the root ci.sh cannot see it and
# must not be edited. Format, lints, unit tests, the --smoke run (inside the
# test suite and once more by hand for its exit code), and a diff of the
# [profile.release] block against the root manifest.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
root="$(dirname "$here")"
cd "$here"

echo "== cargo fmt --check"
cargo fmt --check

echo "== cargo clippy -D warnings"
cargo clippy --release --offline --all-targets -- -D warnings

echo "== cargo test"
cargo test --release --offline --quiet

echo "== --smoke"
cargo run --release --offline --quiet -- --smoke >/dev/null

echo "== [profile.release] matches the root manifest"
# The block's settings, without comments, up to the next table or the end.
profile() {
    awk '/^\[profile\.release\]/ {on = 1; next} /^\[/ {on = 0} on && /^[a-z]/' "$1" | sort
}
if ! diff <(profile "$root/Cargo.toml") <(profile "$here/Cargo.toml"); then
    echo "benchmark/Cargo.toml [profile.release] differs from the root Cargo.toml" >&2
    exit 1
fi

echo "benchmark checks passed"
