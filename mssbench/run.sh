#!/usr/bin/env bash
# Builds mssd and the benchmark from this checkout, then runs the benchmark.
# Usage (from the repository root):
#   bash mssbench/run.sh --workload scan --seed 1 --seconds 25 --trace 0
# Every build artefact, Go cache entry and data directory stays under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/gocache" "$out/gotmp" "$out/config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/gotmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off
export CGO_ENABLED=0
export GOFLAGS=-buildvcs=false
# Telemetry off: otherwise each go command forks a detached upload process
# that outlives this script.
mkdir -p "$out/config/go/telemetry"
echo off > "$out/config/go/telemetry/mode"

if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mssd" ]; then
	echo "mssbench: run from the repository root; go.mod or cmd/mssd is missing" >&2
	exit 1
fi

go build -o "$out/bin/mssd" ./cmd/mssd
(cd "$root/mssbench" && go build -o "$out/bin/mssbench" .)
exec "$out/bin/mssbench" -mssd "$out/bin/mssd" -work "$out" "$@"
