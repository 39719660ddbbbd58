#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash perfbench/run.sh --workload paper-grid --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary, temporary result
# stores, traces and per-run result files.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/config" "$out/bin"

# A hermetic, offline build: no toolchain download, no module proxy, and
# the build cache, module cache and Go telemetry all inside the checkout.
env GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" \
    GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off \
    go -C "$root/perfbench" build -o "$out/bin/perfbench" . >&2

exec "$out/bin/perfbench" "$@"
