#!/usr/bin/env bash
# Builds perfbench from the checkout's sources and runs it. Run from the
# repository root:
#
#   bash perfbench/run.sh --workload online-zipf --seed 1 --seconds 10 --trace 0
#
# Every file the build and the run write stays under $CARGO_TARGET_DIR
# (default .bench_build) inside the checkout: the Go build cache, the
# binary, per-run index files and WALs, and the traced run's spans.
set -euo pipefail
root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case $build in
/*) ;;
*) build=$root/$build ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/config"
export GOCACHE=$build/gocache GOTMPDIR=$build/gotmp GOMODCACHE=$build/gomodcache
export XDG_CONFIG_HOME=$build/config GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --work "$build/perfbench-work" "$@"
