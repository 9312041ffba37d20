#!/usr/bin/env bash
# Full local CI gate: release build, tests, lints, formatting.
# Usage: scripts/ci.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

# Heap requests per delivered combination on the warm serving path: a
# count, so it repeats exactly on any host (tests/alloc_budget.rs pins
# it; the lines below are the figures of this run).
echo "==> allocation budget (cargo test --release --test alloc_budget)"
cargo test --release -q --test alloc_budget -- --nocapture | grep -o 'alloc_budget:.*'

# The one-shot experiments share the fetch stack (CachingService) with
# the daemon: their committed output must not move.
echo "==> repro output is byte-identical to repro_output.txt"
cargo run --release -q -p seco-bench --bin repro | diff - repro_output.txt

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

# results/ holds the committed full-mode reports; every smoke run
# below writes under target/smoke/ and the greps gate on those files,
# so a CI run leaves results/ as committed.
smoke=target/smoke

echo "==> fetch_bench --smoke"
cargo run --release -q -p seco-bench --bin fetch_bench -- --smoke

echo "==> join_bench --smoke"
cargo run --release -q -p seco-bench --bin join_bench -- --smoke
echo "==> rank join smoke summary (chunks fetched / time-to-kth)"
grep -E '"(chunks_fetched|chunks_saved|time_to_kth_us|chunk_fetch_reduction|time_to_kth_speedup)"' \
  "$smoke/BENCH_join.json"
echo "==> parallel-vs-serial smoke gate (modeled speedup at 4 workers >= 1.3x)"
grep -E '"(modeled_speedup_at_4_workers|target|pass)"' "$smoke/BENCH_join.json"
grep -q '"pass": true' "$smoke/BENCH_join.json"

echo "==> optimizer_bench --smoke"
cargo run --release -q -p seco-bench --bin optimizer_bench -- --smoke

echo "==> adaptive_bench --smoke"
cargo run --release -q -p seco-bench --bin adaptive_bench -- --smoke
echo "==> adaptive smoke summary (convergence / ratio / replans)"
grep -E '"(converged|ratio_vs_informed|replans|epoch_invalidations)"' "$smoke/BENCH_adaptive.json"
grep -q '"converged": true' "$smoke/BENCH_adaptive.json"

echo "==> serve_bench --smoke"
serve_smoke=$smoke/BENCH_serve.json
cargo run --release -q -p seco-server --bin bencher -- --smoke --out "$serve_smoke"
echo "==> serving smoke summary (aggregate cold vs warm p50, identity, p95 flatness)"
grep -E '"(aggregate_cold_p50_ms|aggregate_warm_p50_ms|warm_faster|concurrent_identical_to_serial|p95_flat_at_4x)"' \
  "$serve_smoke"
# The bencher itself asserts all three gates and exits non-zero
# otherwise; these greps pin the report format.
grep -q '"warm_faster": true' "$serve_smoke"
grep -q '"concurrent_identical_to_serial": true' "$serve_smoke"
grep -q '"p95_flat_at_4x": true' "$serve_smoke"

# benchmark/ is a package of its own, outside the root workspace: tier-1
# never compiles it, so drift in the surface it replays the handlers
# through (Session, ResultSet, render_rows, ServerState) only shows here.
echo "==> benchmark harness tests"
(cd benchmark && cargo test --offline -q)
echo "==> benchmark/run.sh --smoke (writes only under benchmark/out/)"
benchmark/run.sh --smoke

echo "CI OK"
