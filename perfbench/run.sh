#!/usr/bin/env bash
# Builds the benchmark harness from source and runs one workload.
#
#   bash perfbench/run.sh --workload verify|synth|serve --seed N --seconds S --trace 0|1
#
# Run it from the repository root. Build cache, binary, temporary files and
# trace output all stay under .bench_build/ in that directory. The harness
# links the repository's packages through the replace directive in
# perfbench/go.mod, so outside a full checkout the build fails and the script
# exits non-zero without printing a result.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"
# HOME and XDG_CONFIG_HOME keep the go command's user files (such as its
# telemetry counters) inside the checkout too.
export HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOWORK=off GOENV=off GOPROXY=off GOFLAGS= CGO_ENABLED=0
export TMPDIR="$out/tmp" GOMAXPROCS=2

if ! go -C perfbench build -o "$out/perfbench" . >&2; then
	echo "perfbench: build failed" >&2
	exit 3
fi
exec "$out/perfbench" -out "$out" "$@"
