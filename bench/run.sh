#!/usr/bin/env bash
# Entry point of the benchmark (BENCHMARK.json's command). Builds the
# bench binary from source and runs it from the root of the checkout; the
# binary builds cmd/qr2server and cmd/wdbserver itself. Every file the
# toolchain or the run writes stays inside the checkout: build cache,
# temporaries and binaries under .bench_build/, logs and span files under
# bench/out/.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
cd "$root"
mkdir -p .bench_build/bin .bench_build/tmp
export GOCACHE="$root/.bench_build/gocache"
export GOTMPDIR="$root/.bench_build/tmp"
export XDG_CONFIG_HOME="$root/.bench_build/config"
go build -C bench -o "$root/.bench_build/bin/bench" .
exec "$root/.bench_build/bin/bench" -root "$root" "$@"
