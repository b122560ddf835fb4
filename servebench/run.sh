#!/usr/bin/env bash
# Builds ampserved and the benchmark program from the checkout in the current
# directory, then runs one workload:
#
#   bash servebench/run.sh --workload mix-pipelined --seed 1 --seconds 10 --trace 0
#
# Build outputs, the Go build cache, snapshots and trace files all go under
# .bench_build/ in the checkout.
set -euo pipefail

out="$(pwd)/.bench_build"
export GOCACHE="$out/gocache" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
mkdir -p "$out"
go build -o "$out/ampserved" ./cmd/ampserved
(cd servebench && go build -o "$out/servebench" .)
exec "$out/servebench" -server "$out/ampserved" -workdir "$out" "$@"
