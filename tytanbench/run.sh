#!/usr/bin/env bash
# Builds the TyTAN benchmark from source and runs it. Run from the
# repository root, e.g.
#
#   bash tytanbench/run.sh --workload secure-load --seed 1 --seconds 10 --trace 0
#
# The Go build cache, temporary files and the binary stay inside
# .bench_build/ under the root, so a run touches nothing outside the
# checkout. Outside a checkout (no ../go.mod) the build fails and the
# script exits non-zero without printing a result.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache"
export GOENV=off GOFLAGS= GOWORK=off GOTOOLCHAIN=local CGO_ENABLED=0

go -C tytanbench build -o "$out/tytanbench" .
exec "$out/tytanbench" "$@"
