#!/usr/bin/env bash
# Builds the end-to-end HTTP benchmark from the checkout it sits in and runs
# it. Every build artifact (binary, Go build cache) stays under .bench_build
# at the checkout root.
#
# Usage: bash httpbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOENV=off GOFLAGS= GOPROXY=off
(cd "$root/httpbench" && go build -o "$out/httpbench" .)
cd "$root"
exec "$out/httpbench" -out "$out/traces" "$@"
