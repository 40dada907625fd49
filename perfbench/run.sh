#!/usr/bin/env bash
# Builds the benchmark from source and runs one workload.
#
# Run from the repository root:
#   bash perfbench/run.sh --workload fig3-sweep --seed 1 --seconds 20 --trace 0
#
# Every build artifact (Go build cache, temp files, the binary) lands in
# $CARGO_TARGET_DIR, default .bench_build, inside the working directory.
# The build needs the repository's own module one directory up; without
# it the script fails before printing any result.
set -euo pipefail

root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache"
export GOMODCACHE="$build/gomodcache"
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"
export GOTOOLCHAIN=local
export GOWORK=off
export GOFLAGS=
export GOPROXY=off

go build -C "$root/perfbench" -o "$build/perfbench" .
exec "$build/perfbench" -out "$build" "$@"
