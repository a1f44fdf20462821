#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload covid-read-open --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temp files and the binary stay under .bench_build/ in
# the current directory, and the benchmark writes its stores, recovery
# images and span files there too.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/serve ]]; then
	echo "perfbench: run from the repository root (go.mod and internal/ not found)" >&2
	exit 2
fi
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
