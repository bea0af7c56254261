#!/usr/bin/env bash
# Builds the end-to-end benchmark and the eendd worker from this checkout's
# sources, then runs one workload:
#
#   bash benchmark/run.sh --workload design-field1k --seed 7 --seconds 30 --trace 0
#
# Build outputs and the Go build cache go under .bench_build/ at the root
# of the checkout, so a run writes nothing outside it.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOFLAGS=-mod=readonly GOPROXY=off GOWORK=off GOTOOLCHAIN=local

(
	cd "$root/benchmark"
	go build -o "$out/eendbench" .
	go build -o "$out/eendd" eend/cmd/eendd
)
cd "$root"
exec "$out/eendbench" -eendd "$out/eendd" "$@"
