#!/usr/bin/env bash
# Builds the SOFT benchmark (softbench) from source and runs it. Run it from the
# repository root, e.g.
#
#   bash bench/run.sh --workload explore-flowmod --seed 1 --seconds 25 --trace 0
#
# The build cache, the binary, temporary stores, traces and results files
# all go under one directory: $CARGO_TARGET_DIR if set, else .bench_build.
set -eu
root=$PWD
dir=${CARGO_TARGET_DIR:-.bench_build}
case $dir in /*) ;; *) dir=$root/$dir ;; esac
mkdir -p "$dir/tmp"
export GOCACHE="$dir/gocache" GOMODCACHE="$dir/gomod" GOTMPDIR="$dir/tmp" TMPDIR="$dir/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$dir/softbench" .) >&2
exec "$dir/softbench" -dir "$dir" "$@"
