#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it. Run from the
# repository root:
#   bash perfbench/run.sh --workload upload --seed 1 --seconds 10 --trace 0
# Build output and the Go build cache stay in .bench_build.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
