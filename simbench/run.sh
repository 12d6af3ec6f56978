#!/usr/bin/env bash
# Builds the simbench binary from the sources of this checkout and runs it
# with the given arguments. Run from the repository root:
#
#   bash simbench/run.sh --workload keepalive --seed 1 --seconds 25 --trace 0
#
# The binary, the Go build cache and the run records stay under
# $CARGO_TARGET_DIR (default .bench_build) in the working directory, so
# nothing is written outside the checkout. Without the simulator's sources
# next to simbench/ the build fails and the script exits non-zero.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build"

export GOCACHE=$build/gocache GOMODCACHE=$build/gomodcache XDG_CONFIG_HOME=$build/config
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd "$root/simbench" && go build -o "$build/simbench" .) >&2
exec "$build/simbench" "$@"
