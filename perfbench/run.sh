#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload compile-cold --seed 1 --seconds 30 --trace 0
#
# The Go build cache and the binary live in .bench_build/ of the
# checkout, so the run reads and writes nothing outside it. Without the
# repository's sources next to perfbench/ the build fails, and so does
# the run.
set -euo pipefail
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" \
	GOPATH="$build/gopath" GOTOOLCHAIN=local GOFLAGS=
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
