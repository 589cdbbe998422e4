#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --workload mine-batch --seed 1 --seconds 20 --trace 0
#
# Every build and run artifact stays under .bench_build/ in the current
# directory: the Go build cache, the binary, temp files, and span dumps.
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/internal" ]; then
	echo "benchmark: run from the repository root (no ohminer module in $root)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp" "$out/home"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export XDG_CACHE_HOME="$out/home/.cache"
export GOTOOLCHAIN=local
export GOFLAGS=
export GOTELEMETRY=off
export CGO_ENABLED=0

(cd "$root/benchmark" && go build -trimpath -o "$out/ohmbench-e2e" .)
exec "$out/ohmbench-e2e" --out "$out" "$@"
