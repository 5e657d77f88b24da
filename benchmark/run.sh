#!/usr/bin/env bash
# Build nxmark (release, offline) and run it with the given arguments.
#
#   benchmark/run.sh                              every workload, tracing off, checks results
#   benchmark/run.sh --seed 7                     the same on a held-out seed
#   benchmark/run.sh trace                        the traced runs (per-layer metrics)
#   benchmark/run.sh --quick                      smoke run of every code path (< 15 s)
#   benchmark/run.sh compare a.json b.json        judge two result files by BENCHMARK.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#                                                 one workload; last line is the result object
#
# Build output goes to $CARGO_TARGET_DIR when set, else <repo>/target/benchmark.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"
# Build messages go to stderr: stdout belongs to the result lines.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --target-dir "$target" 1>&2
NXMARK_HOME="$here" exec "$target/release/nxmark" "$@"
