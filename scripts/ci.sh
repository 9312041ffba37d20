#!/usr/bin/env bash
# Full local CI gate: release build, tests, lints, formatting, and the
# one performance step (benchmark/run.sh --smoke). The source scans —
# the panic-site ratchet, the thread-spawn guard and the interpreted-
# predicate guard — are tier-1 tests in tests/source_guards.rs, and so
# is the byte-identity of the repro experiments with repro_output.txt
# and results/e*.json (tests/repro.rs).
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# The root package's tests above do not include the member crates' own
# unit tests (the n-ary kernel's, the key index's, the interpreter's
# cascade reference); this step runs every crate's.
echo "==> cargo test -q --workspace"
cargo test -q --workspace

# Heap requests per delivered combination on the warm serving path, and
# per cold plan (one serial, uncached optimize of a 4-star and a
# 4-chain): counts, so they repeat exactly on any host
# (tests/alloc_budget.rs pins them; the lines below are the figures of
# this run).
echo "==> allocation budget (cargo test --release --test alloc_budget)"
cargo test --release -q --test alloc_budget -- --nocapture | grep -o 'alloc_budget:.*'

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# benchmark/ is a package of its own, outside the root workspace: tier-1
# never compiles it, so drift in the surface it replays the handlers
# through (Session, ResultSet, render_rows, ServerState) only shows here.
echo "==> benchmark harness tests"
(cd benchmark && cargo test --offline -q)
echo "==> benchmark/run.sh --smoke (writes only under benchmark/out/)"
benchmark/run.sh --smoke

# Nothing above may write to a tracked file: the benchmark builds
# offline against its committed benchmark/Cargo.lock.
echo "==> git diff --exit-code (the run modified no tracked file)"
git diff --exit-code

echo "CI OK"
