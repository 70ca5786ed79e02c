#!/usr/bin/env bash
# Builds the repository benchmark from source and runs one workload:
#
#   bash perfbench/run.sh --workload train-quick --seed 1 --seconds 10 --trace 0
#
# Run it from the repository root. Build output, the Go build cache and
# span dumps all stay under $CARGO_TARGET_DIR (default .bench_build), so
# the benchmark reads and writes nothing outside the checkout. The last
# line of standard output is the JSON result; build logs go to stderr.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
mkdir -p "$out"
out=$(cd "$out" && pwd)
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOENV=off GOFLAGS=-mod=mod GOTOOLCHAIN=local
export GOPROXY=off GOSUMDB=off GOWORK=off GOTELEMETRY=off

(cd "$here" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -out "$out" "$@"
