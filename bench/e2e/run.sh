#!/usr/bin/env bash
# Builds and runs the end-to-end benchmark from the repository root:
#
#   bash bench/e2e/run.sh --workload release --seed 1 --seconds 30 --trace 0
#
# Every build product, cache and temporary file stays under
# .bench_build/ in the repository, and the Go toolchain is kept offline
# and local.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/netdpsynd ]; then
	echo "run.sh: run from the repository root (no go.mod and cmd/netdpsynd here)" >&2
	exit 2
fi
out="$PWD/.bench_build/e2e"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C bench/e2e -o "$out/e2e" .
exec "$out/e2e" "$@"
