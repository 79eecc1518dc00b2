#!/usr/bin/env bash
# Builds punt and the benchmark program from source (into .bench_build/ of
# the current directory, which must be the repository root), then runs the
# program with every argument passed through:
#
#   bash puntbench/run.sh --workload registry --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr so the last line of stdout stays the result.
set -euo pipefail
build_dir=.bench_build
jobs=$(nproc 2>/dev/null || echo 2)
if [ "$jobs" -gt 4 ]; then jobs=4; fi
cmake -S puntbench -B "$build_dir" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build_dir" --target puntbench -j "$jobs" >&2
exec "$build_dir/puntbench" "$@"
