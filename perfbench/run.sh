#!/usr/bin/env bash
# Builds the host-performance benchmark from source and runs it with the
# given arguments:
#
#   bash perfbench/run.sh --workload compile-ept --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go build cache, temporary files, the
# binary) stays under .bench_build/ at the repository root.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/cache" "$out/tmp" "$out/home"
export GOCACHE="$out/cache" GOTMPDIR="$out/tmp" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home" GOPATH="$out/home/go" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
