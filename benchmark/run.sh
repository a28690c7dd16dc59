#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root:
#
#   bash benchmark/run.sh --workload paper-all --seed 42 --seconds 15 --trace 0
#
# Everything the build leaves behind (Go build cache, binary, profiles and
# span files) stays under .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C benchmark build -o "$out/mflowbenchmark" .
exec "$out/mflowbenchmark" "$@"
