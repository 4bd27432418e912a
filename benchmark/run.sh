#!/usr/bin/env bash
# Entry point the benchmark driver calls from the root of a checkout:
#   bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
# It builds the rig from source into .bench_build/ and runs it. Nothing is
# read or written outside the checkout: the Go build cache lives there too,
# and the toolchain is told not to reach for the network.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
build="$root/.bench_build"
mkdir -p "$build/bin"
# XDG_CONFIG_HOME: the go command keeps its telemetry counters under the user config directory.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off
(cd "$root/benchmark" && go build -o "$build/bin/benchmark" .)
cd "$root"
exec "$build/bin/benchmark" "$@"
