#!/usr/bin/env bash
# Builds ftbench from source and runs it with the given arguments, e.g.
#
#   bash bench/run.sh --workload fig3 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, temporary files,
# the binary, the serve-mix cache and the traced runs' spans all stay
# under .bench_build in the current directory.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/gopath" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

go -C "$(dirname "$0")" build -o "$build/ftbench" ./cmd/ftbench
exec "$build/ftbench" -workdir "$build" "$@"
