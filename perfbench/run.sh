#!/usr/bin/env bash
# Builds the wall-clock benchmark from this checkout's sources and runs it.
# Run from the repository root:
#
#	bash perfbench/run.sh --workload fig1-kmeans --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, temporary files, the process pool's socket
# and spill directory, and the runtime/trace file of a traced run.
set -euo pipefail
root=$(pwd)
out=.bench_build
mkdir -p "$out/tmp"
export GOCACHE="$root/$out/gocache" GOTMPDIR="$root/$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd perfbench && go build -o "$root/$out/perfbench" .)
# TMPDIR is relative so the pool's unix socket path stays short however
# deep the checkout is; pool workers inherit the working directory.
TMPDIR="$out/tmp" exec "$out/perfbench" "$@"
