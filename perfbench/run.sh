#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it:
#
#   bash perfbench/run.sh --workload wisdm-burst --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Build outputs, the Go build cache and span
# dumps stay under .bench_build/ (or $CARGO_TARGET_DIR when set). The build
# needs the repository's own go.mod one level up, so a directory that holds
# only the benchmark fails here with a non-zero exit and no result line.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

export GOCACHE=$out/gocache GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly GOWORK=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/trace" "$@"
