#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload gather --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the binary
# and the span files of traced runs.
set -euo pipefail

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in
/*) ;;
*) out=$root/$out ;;
esac
mkdir -p "$out/go-cache" "$out/go-tmp" "$out/go-path"

export GOCACHE=$out/go-cache GOTMPDIR=$out/go-tmp GOPATH=$out/go-path
export GOMODCACHE=$out/go-path/pkg/mod GOFLAGS=-mod=readonly GOPROXY=off
export GOTOOLCHAIN=local GOENV=off GOWORK=off GOTELEMETRY=off

go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" --out-dir "$out" "$@"
