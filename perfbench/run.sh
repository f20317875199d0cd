#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it from the
# repository root, passing every argument through:
#
#   bash perfbench/run.sh --workload tables --seed 1 --seconds 35 --trace 0
#
# Everything the build and the run write goes under .bench_build/.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" -dir "$out" "$@"
