#!/usr/bin/env bash
# Builds tesla-perf from source and runs it with the given arguments.
# Run it from the repository root:
#
#   bash cmd/tesla-perf/run.sh --workload fleet --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the benchmark's
# scratch files (artifact caches, write-ahead spools, snapshots, spans).
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/go-cache" "$out/go-tmp"

export GOCACHE="$out/go-cache"
export GOTMPDIR="$out/go-tmp"
export GOMODCACHE="$out/go-mod"
export GOFLAGS=
export GOWORK=off
export GOTOOLCHAIN=local
export GOPROXY=off
export GOENV=off
export TMPDIR="$out/go-tmp"

(cd "$root/cmd/tesla-perf" && go build -o "$out/tesla-perf" .)
exec "$out/tesla-perf" -workdir "$out/tesla-perf-work" "$@"
