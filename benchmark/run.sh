#!/usr/bin/env bash
# Build the benchmark (release, offline, locked) and run it from the
# repository root. With no arguments: every workload, untraced then traced.
#
#   benchmark/run.sh                                   # all -> benchmark/out/bench.json
#   benchmark/run.sh --quick                           # smoke run, under 30 s
#   benchmark/run.sh --workload sim_wide --seed 2      # one workload, result line last
#   benchmark/run.sh repeat 5                          # two alternating sets of 5 runs
#   benchmark/run.sh compare a.json b.json
#
# Builds into benchmark/target unless CARGO_TARGET_DIR says otherwise.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in
    /*) ;;
    *) target="$PWD/$target" ;;
esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --locked --quiet --manifest-path "$here/Cargo.toml" >&2

# trace files and documents go to benchmark/out relative to the root
cd "$here/.."
exec "$target/release/c2nn-benchmark" "$@"
