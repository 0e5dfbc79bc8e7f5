#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#
#   bash cmd/benchmark/run.sh --workload fig11 --seed 1 --seconds 30 --trace 0
#
# Everything the build writes (binary, Go build cache, temp files, Go's
# config and telemetry) stays under .bench_build/ at the checkout root.
# The module's go.mod replaces splitio with ../.., so outside a full
# checkout the build, and therefore the run, fails.
set -euo pipefail

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/home"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
  HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
  GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= CGO_ENABLED=0

go build -C "$root/cmd/benchmark" -o "$out/" . ./calibrate >&2
cd "$root"
exec "$out/benchmark" "$@"
