#!/usr/bin/env bash
# run.sh builds the benchmark and the aurora-serve daemon from this
# checkout's sources, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload exact-int --seed 1 --seconds 15 --trace 0
#
# Build products and the Go build cache live under .bench_build/ (or
# $CARGO_TARGET_DIR when set), so nothing is written outside the checkout.
# Build output goes to stderr; stdout carries only the benchmark's report,
# whose last line is the JSON result.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out/bin"

export GOCACHE=$out/gocache GOPATH=$out/gopath GOTOOLCHAIN=local GOWORK=off GOFLAGS= GOENV=off
go build -o "$out/bin/aurora-serve" ./cmd/aurora-serve >&2
(cd perfbench && go build -o "$out/bin/perfbench" .) >&2

exec "$out/bin/perfbench" -root "$root" -out "$out/perfbench" -serve-bin "$out/bin/aurora-serve" "$@"
