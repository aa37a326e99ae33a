#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload hot --seed 1 --seconds 6 --trace 0
#
# Run it from the root of a checkout. Every build artefact and Go cache
# lives under .bench_build/ in that checkout; build output goes to stderr,
# so the benchmark's JSON result stays the last line of stdout.
set -euo pipefail
root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOMODCACHE="$out/go-mod" GOPATH="$out/go-path"
export XDG_CONFIG_HOME="$out/config" XDG_CACHE_HOME="$out/cache"
export GOTOOLCHAIN=local GOFLAGS= GOWORK=off CGO_ENABLED=0 GOPROXY=off GOSUMDB=off
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
cd "$root"
exec "$out/perfbench" "$@"
