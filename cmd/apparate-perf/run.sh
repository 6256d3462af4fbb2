#!/usr/bin/env bash
# Builds apparate-perf from the checkout in the current directory and
# runs it there with the given arguments:
#
#   bash cmd/apparate-perf/run.sh --workload gen --seed 1 --seconds 25 --trace 0
#
# The benchmark is a module of its own (cmd/apparate-perf/go.mod) that
# uses the repository's module through a replace directive. The binary,
# the Go build cache, Go's config and telemetry files and every temporary
# file stay under .bench_build/ in the current directory. Where the
# directory holds no repository module the build fails, and the script
# exits non-zero without running anything.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/gocache" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd cmd/apparate-perf && go build -o "$build/apparate-perf" .)
exec "$build/apparate-perf" "$@"
