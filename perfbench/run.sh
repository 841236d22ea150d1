#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it, passing
# every argument through:
#
#   bash perfbench/run.sh --workload stream-scratch --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The binary, the Go build cache and the
# traced run's spans all stay under .bench_build/ there.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath"
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
