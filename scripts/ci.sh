#!/usr/bin/env bash
# Full local CI gate: release build, tests, lints, formatting, a
# panic-site ratchet, and the one performance step
# (benchmark/run.sh --smoke).
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

# The one-shot experiments share the fetch stack (CachingService) with
# the daemon: their committed output must not move.
echo "==> repro output is byte-identical to repro_output.txt"
cargo run --release -q -p seco-bench --bin repro | diff - repro_output.txt

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# Panic sites — lines with `.unwrap()`, `.expect(`, `panic!(` or
# `unreachable!(` — in the non-test part (up to each file's `mod tests`
# line) of the services, exec, join, engine, server, optimizer and plan
# sources. The count may only fall: when a change lowers it, lower the
# ceiling too.
PANIC_SITE_CEILING=78
echo "==> panic-site ratchet (ceiling $PANIC_SITE_CEILING)"
panic_sites=$(find crates/{services,exec,join,engine,server,optimizer,plan}/src -name '*.rs' -print0 \
    | xargs -0 -n1 awk '/^ *(pub(\(crate\))? )?mod tests/ { exit } { print }' \
    | grep -cE '\.unwrap\(\)|\.expect\(|panic!\(|unreachable!\(' || true)
echo "panic sites: $panic_sites"
if [ "$panic_sites" -gt "$PANIC_SITE_CEILING" ]; then
    echo "panic sites rose above the ceiling of $PANIC_SITE_CEILING" >&2
    exit 1
fi

# Threads come from seco-exec: no library crate below the server spawns
# one of its own (same cut at `mod tests` as above). A joined-in-place
# `std::thread::scope` is not a spawn and is not counted.
echo "==> thread spawns outside seco-exec"
spawns=$(find crates/{model,query,plan,optimizer,join,services,engine}/src -name '*.rs' -print0 \
    | xargs -0 -n1 awk '/^ *(pub(\(crate\))? )?mod tests/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    | grep -E 'thread::spawn\(|thread::Builder' || true)
if [ -n "$spawns" ]; then
    echo "$spawns" >&2
    echo "threads are spawned outside seco-exec" >&2
    exit 1
fi

# One predicate evaluator in production: the join kernels and the engine
# evaluate through seco_query::CompiledPredicates (row form and batch
# kernels). The interpreted `satisfies_available` is the oracle's
# evaluator, so the non-test part (same cut as above) of the join and
# engine sources does not mention it.
echo "==> interpreted predicate evaluation outside the oracle"
interpreted=$(find crates/{join,engine}/src -name '*.rs' -print0 \
    | xargs -0 -n1 awk '/^ *(pub(\(crate\))? )?mod tests/ { exit } { print FILENAME ":" FNR ": " $0 }' \
    | grep -E 'satisfies' || true)
if [ -n "$interpreted" ]; then
    echo "$interpreted" >&2
    echo "the join or engine sources evaluate predicates through the interpreter" >&2
    exit 1
fi

# benchmark/ is a package of its own, outside the root workspace: tier-1
# never compiles it, so drift in the surface it replays the handlers
# through (Session, ResultSet, render_rows, ServerState) only shows here.
echo "==> benchmark harness tests"
(cd benchmark && cargo test --offline -q)
echo "==> benchmark/run.sh --smoke (writes only under benchmark/out/)"
benchmark/run.sh --smoke

# Nothing above may write to a tracked file: repro diffs against
# repro_output.txt and rewrites results/e*.json byte for byte, the
# benchmark builds offline against its committed benchmark/Cargo.lock.
echo "==> git diff --exit-code (the run modified no tracked file)"
git diff --exit-code

echo "CI OK"
