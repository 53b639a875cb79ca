#!/usr/bin/env bash
# Builds perfbench from this checkout and runs it with the given arguments,
# e.g.: bash perfbench/run.sh --workload serve-single --seed 1 --seconds 10 --trace 0
# Run from the repository root. The build cache, the binary and every file a
# run writes stay under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOMODCACHE="$out/gopath/pkg/mod" GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOWORK=off

# The benchmark is its own module that builds the repository next to it.
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
