#!/usr/bin/env bash
# The one command: builds the benchmark (and, through its path
# dependencies, the program) in release mode, offline, then runs it.
#
#   benchmark/run.sh                      a full set: 5 workloads, rounds interleaved, traced passes
#   benchmark/run.sh --seed 7             the same on other inputs
#   benchmark/run.sh --smoke              a <=20 s check that everything runs and verifies
#   benchmark/run.sh --repeat 2           two sets; non-zero exit if a metric moved past its bound
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                         one workload; last line of stdout is the result as JSON
#
# Output goes under benchmark/out/ and nowhere else.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
CARGO_TARGET_DIR="$target" cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/seco-benchmark" --out "$here/out" "$@"
