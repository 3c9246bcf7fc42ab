#!/usr/bin/env bash
# Builds the benchmark driver from the checkout's sources and runs it.
#
#   bash perfbench/run.sh --workload erp-select --seed 7 --seconds 15 --trace 0
#   bash perfbench/run.sh                       # every workload, one summary
#
# Run from the repository root. Every build product, temporary input file,
# journal and span dump lands under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "perfbench: $root/go.mod missing; the benchmark builds the module's sources" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTELEMETRY=off
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local

(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
