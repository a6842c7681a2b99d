#!/usr/bin/env bash
# Builds the ConfValley benchmark from this checkout's sources and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-xml --seed 1 --seconds 25 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache, its
# config) stays under .bench_build/ in the checkout. The build needs the
# rest of the repository; without it the build fails and so does this
# script, before any result is printed.
set -euo pipefail
build="$(pwd)/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local GOFLAGS=-mod=mod GOENV=off GOPROXY=off
(cd perfbench && go build -o "$build/perfbench" .) >&2
exec "$build/perfbench" "$@"
