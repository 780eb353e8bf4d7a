#!/usr/bin/env bash
# Builds the benchmark and the swiftdir-serve binary from the checkout it
# is run in, then runs one workload:
#
#   bash perfbench/run.sh --workload NAME --seed N --seconds S --trace 0|1
#
# Run it from the root of the checkout. Everything the build and the run
# write stays under .bench_build in that directory.
set -euo pipefail

root=$(pwd)
out=$root/.bench_build
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOENV=off GOFLAGS= CGO_ENABLED=0

go build -buildvcs=false -o "$out/swiftdir-serve" ./cmd/swiftdir-serve
(cd perfbench && go build -buildvcs=false -o "$out/perfbench" .)
exec "$out/perfbench" -serve-bin "$out/swiftdir-serve" -out "$out" "$@"
