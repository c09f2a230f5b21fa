#!/usr/bin/env bash
# Builds vbench from source and runs it with the given arguments. Run it
# from the repository root, e.g.
#
#   bash bench/run.sh --workload flow --seed 1 --seconds 15 --trace 0
#
# Everything the build writes (binary, Go build cache, temporary files)
# stays under .bench_build/ in the current directory.
set -euo pipefail

out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOWORK=off GOPROXY=off
go -C bench build -o "$out/vbench" ./cmd/vbench
exec "$out/vbench" "$@"
