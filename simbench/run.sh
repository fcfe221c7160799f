#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the root of a
# checkout; arguments pass through to the benchmark:
#
#   bash simbench/run.sh --workload sweep-scratch --seed 1 --seconds 20 --trace 0
#
# Every build product (Go build cache, binary, scratch data) stays under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/simbench" && go build -o "$build/simbench" .)
exec "$build/simbench" "$@"
