#!/usr/bin/env bash
# Builds castload from this checkout and runs it with the arguments given.
# Run it from the repository root, e.g.
#
#   bash cmd/castload/bench.sh --workload msg-small --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout: the Go build cache, the castload and castd binaries. The build
# fails (and so does this script, printing nothing on standard output) when
# the checkout does not hold the root module next to cmd/castload.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go build -C cmd/castload -o "$out/castload" . >&2
exec "$out/castload" -root "$root" -build-dir "$out" "$@"
