#!/usr/bin/env bash
# Builds the cachebench harness and runs it from the repository root, passing
# every argument through:
#
#   bash cmd/cachebench/run.sh --workload bulk --seed 1 --seconds 30 --trace 0
#
# Binaries, Go build caches and temporary files all live under .bench_build/
# at the root, so a run writes nothing outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/../.."
out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C cmd/cachebench build -o "$out/cachebench" .
exec "$out/cachebench" "$@"
