#!/usr/bin/env bash
# Builds the benchmark from the checkout it is run in and runs it with
# the given arguments, e.g. from the repository root:
#
#   bash perfbench/run.sh --workload serve --seed 1 --seconds 15 --trace 0
#
# Everything it writes (Go build cache, Go's config and telemetry,
# binary, exact-count ledger, span dumps) goes under .bench_build/ in the
# current directory. Build output goes to standard error; a failed build
# exits non-zero before any result is printed.
set -euo pipefail

root=$(pwd)
here=$(cd "$(dirname "$0")" && pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/tmp"

export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

(cd "$here" && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" --state-dir "$build/state" "$@"
