#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments, from the root of the checkout:
#
#   bash perfbench/run.sh --workload live-read --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run leave behind (Go build cache, binary,
# sockets, result records, span and profile dumps) goes under
# .bench_build/perfbench in the checkout.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out=".bench_build/perfbench"
mkdir -p "$out/gocache" "$out/tmp"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export GOMODCACHE="$out/modcache"
# The go command keeps its telemetry counters under the user config
# directory; keep them inside the checkout too.
export XDG_CONFIG_HOME="$out/config"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

go build -C "$here" -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
