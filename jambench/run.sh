#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# repository root:
#
#   bash jambench/run.sh --workload victim-link --seed 1 --seconds 15 --trace 0
#
# Every build artefact, cache and result file stays under the build directory
# ($CARGO_TARGET_DIR when set, else .bench_build) so a run writes nothing
# outside the checkout.
set -euo pipefail

root=$(pwd)
build=${CARGO_TARGET_DIR:-.bench_build}
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
out="$build/jambench"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

go -C "$root/jambench" build -o "$out/jambench" .
exec "$out/jambench" --out "$out/results" "$@"
