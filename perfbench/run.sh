#!/usr/bin/env bash
# Builds the emsort binary and the benchmark harness from the sources of the
# checkout this script sits in, then runs one benchmark invocation:
#
#   bash perfbench/run.sh --workload query_zipf --seed 1 --seconds 20 --trace 0
#
# Build caches, binaries and the per-run scratch directory all live under
# .bench_build/ at the checkout root; the scratch directory is removed on exit.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/emsort" ]]; then
	echo "perfbench: program sources not found next to $(dirname "${BASH_SOURCE[0]}")" >&2
	exit 1
fi

build="$root/.bench_build"
mkdir -p "$build/tmp"
# Keep every toolchain write inside the checkout and never reach the network.
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off

go -C "$root" build -o "$build/emsort" ./cmd/emsort >&2
go -C "$root/perfbench" build -o "$build/perfbench" . >&2

scratch="$(mktemp -d "$build/run.XXXXXX")"
trap 'rm -rf "$scratch"' EXIT
"$build/perfbench" -emsort "$build/emsort" -scratch "$scratch" -traces "$build/traces" "$@"
