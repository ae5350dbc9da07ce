#!/usr/bin/env bash
# Builds hmcbench from source and runs it with the given flags. Run it
# from the repository root, for example:
#
#   bash bench/hmcbench/run.sh --workload gups-hmc --seed 1 --seconds 20 --trace 0
#
# The Go build cache, the binaries and every output stay under
# .bench_build/ in the current directory.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS=
go -C bench/hmcbench build -o "$out/bin/hmcbench" .
exec "$out/bin/hmcbench" "$@"
