#!/usr/bin/env bash
# Builds the OSPREY benchmark from the checkout it is started in and runs
# one workload:
#
#   bash perfbench/run.sh --workload task-stream --seed 1 --seconds 15 --trace 0
#
# Run it from the repository root. The Go build cache, module cache,
# temporary files, Go's own config and telemetry files, and the binary all
# stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	GOMODCACHE="$build/gopath/pkg/mod" XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOTOOLCHAIN=local GOWORK=off

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
