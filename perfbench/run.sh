#!/usr/bin/env bash
# Builds fuzzyserve, fuzzygen and the benchmark from the checkout this
# script lives in, then runs the benchmark with the given arguments. All
# build and run outputs stay under .bench_build/ at the checkout's root.
#
#   bash perfbench/run.sh --workload paper_aknn --seed 1 --seconds 14 --trace 0
#   bash perfbench/run.sh steady --workload churn_log --runs 10 --sets 2
#   bash perfbench/run.sh spans .bench_build/spans/churn_log-1.jsonl
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/bin"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/gotmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off

(cd "$root" && go build -o "$build/bin/" ./cmd/fuzzyserve ./cmd/fuzzygen)
(cd "$root/perfbench" && go build -o "$build/bin/perfbench" .)

cd "$root"
case "${1:-}" in
steady) exec "$build/bin/perfbench" steady -root "$root" -bin "$build/bin" "${@:2}" ;;
spans) exec "$build/bin/perfbench" "$@" ;;
*) exec "$build/bin/perfbench" -root "$root" -bin "$build/bin" "$@" ;;
esac
