#!/usr/bin/env bash
# Builds the lhg benchmark from source and runs one workload.
#
#   bash lhgbench/run.sh --workload verify-exact --seed 1 --seconds 22 --trace 0
#
# Run it from the root of the lhg repository. Everything it builds or writes
# (Go build cache, binary, temp dirs, trace files) stays under .bench_build/
# in that root. The last line of standard output is the JSON result.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -f "$root/lhg.go" || ! -f "$root/lhgbench/go.mod" ]]; then
	echo "lhgbench: run from the root of the lhg repository (go.mod, lhg.go and lhgbench/ must be present)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS= GOENV=off GOWORK=off

go -C "$root/lhgbench" build -o "$out/lhgbench" . >&2
exec "$out/lhgbench" --out "$out" "$@"
