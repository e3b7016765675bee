#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ (build cache
# included, so nothing is written outside the checkout) and runs it with
# the given flags:
#
#   bash bench/run.sh --workload serve-warm --seed 1 --seconds 20 --trace 0
#
# The build fails, and so does this script, when the repository's own
# module is not next to bench/.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
go -C "$root/bench" build -o "$out/perfbench" .
cd "$root"
exec "$out/perfbench" "$@"
