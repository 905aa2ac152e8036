#!/usr/bin/env bash
# Builds the fleet-over-TCP benchmark from the checkout's sources and runs
# it with the given arguments. Run from the root of the checkout:
#
#   bash perfbench/run.sh --workload mwpsr-single --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh steady -k 5 --seconds 20
#
# Every build and run artifact stays under .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"
export GOTOOLCHAIN=local GOFLAGS=-mod=readonly CGO_ENABLED=0
export GOCACHE=$out/gocache GOMODCACHE=$out/gomodcache GOPATH=$out/gopath
export XDG_CONFIG_HOME=$out/config
(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
export PERFBENCH_DATA=$out/data
exec "$out/perfbench" "$@"
