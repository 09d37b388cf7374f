#!/usr/bin/env bash
# Builds the harness and runs it from the repository root. Go's build cache,
# module path and telemetry counters are pointed inside the checkout, so
# nothing is written outside it.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=-modcacherw
mkdir -p "$out"
go -C "$root/benchmark" build -o "$out/benchmark" .
cd "$root"
exec "$out/benchmark" "$@"
