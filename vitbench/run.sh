#!/usr/bin/env bash
# Builds the benchmark and cmd/vitdynd from this checkout's source, then
# runs one benchmark run; arguments pass through, e.g.
#
#   bash vitbench/run.sh --workload mixed --seed 1 --seconds 45 --trace 0
#
# Run it from the repository root. Everything it builds or writes stays
# under .bench_build/ in the checkout: the Go build cache, GOPATH, the Go
# toolchain's config directory (telemetry counters) and temporary files.
set -euo pipefail
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" TMPDIR="$out/tmp" \
	GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off
go -C vitbench build -o "$out/vitbench" .
go -C vitbench build -o "$out/vitdynd" vitdyn/cmd/vitdynd
exec "$out/vitbench" --daemon "$out/vitdynd" --workdir "$out/tmp" "$@"
