#!/usr/bin/env bash
# Builds soclserved and the benchmark from this checkout, then runs one
# benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_churn --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/soclserved" ]]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/soclserved here)" >&2
	exit 1
fi
build="$root/.bench_build"
mkdir -p "$build"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" XDG_CACHE_HOME="$build/cache"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOENV=off GOWORK=off

go build -o "$build/soclserved" ./cmd/soclserved
(cd perfbench && go build -o "$build/perfbench" .)

PERFBENCH_COMMIT=$(git rev-parse HEAD 2>/dev/null || true)
export PERFBENCH_COMMIT
exec "$build/perfbench" -server .bench_build/soclserved -out .bench_build/out -root . "$@"
