#!/usr/bin/env bash
# Entry point of the repository benchmark (the "command" of BENCHMARK.json).
# Builds the benchmark, armus-serve and armus-store from source into
# .bench_build/ at the root of the checkout, then runs the benchmark there.
# Everything the toolchain writes (build cache, temporary files) is kept
# inside the checkout too.
#
#   bash benchmark/run.sh --workload serve-gate --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh --seed 1                 # every workload, both kinds of run
#   bash benchmark/run.sh -compare a.json b.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/tmp"

export GOCACHE="$build/gocache" GOMODCACHE="$build/gomod" GOPATH="$build/gopath"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
export TMPDIR="$build/tmp"

# One go invocation builds all three; with a warm cache it takes about a second.
(cd "$root/benchmark" && go build -o "$build/bin/" . armus/cmd/armus-serve armus/cmd/armus-store)
# A cold build leaves some hundred MB of dirty pages; written back later, they
# would take CPU from the first run measured. Write them back now.
sync

cd "$root"
exec "$build/bin/benchmark" -root . -bin "$build/bin" "$@"
