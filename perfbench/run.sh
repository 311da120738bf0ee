#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on.
# Run it from the repository root:
#
#   bash perfbench/run.sh --workload tcp-stream --seed 1 --seconds 8 --trace 0
#
# The binary, the Go build cache and the traced run's span files all go
# under the build directory ($CARGO_TARGET_DIR, default .bench_build), so
# a run reads and writes nothing outside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -f perfbench/go.mod ]]; then
  echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
  exit 2
fi
root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
[[ $out == /* ]] || out=$root/$out
mkdir -p "$out/tmp"
export GOCACHE=$out/gocache GOPATH=$out/gopath GOTMPDIR=$out/tmp XDG_CONFIG_HOME=$out/config
export GOFLAGS= GOPROXY=off GOTOOLCHAIN=local GOWORK=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans" "$@"
