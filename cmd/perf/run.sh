#!/usr/bin/env bash
# The benchmark driver's entry point (BENCHMARK.json's command): build
# cmd/perf from source into .bench_build/ at the root of the checkout, then
# run it with the driver's arguments. Everything the Go toolchain writes —
# build cache, module cache, telemetry — is kept under .bench_build/ too, so
# a run reads and writes only inside its checkout. The first run builds the
# standard library into the fresh cache; later runs find everything cached.
#
# By hand, `go run ./cmd/perf ...` from the repo root does the same with the
# user's own Go caches.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
cd "$root"
GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off \
	go build -o "$build/perf" ./cmd/perf
exec "$build/perf" "$@"
