#!/usr/bin/env bash
# Builds the benchmark and the mvpar server from this checkout, then runs
# one benchmark run. Run it from the repository root:
#
#   bash mvbench/run.sh --workload miss-small --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# checkout (Go's build cache included); the run record lands in
# .bench_build/records/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" \
	XDG_CONFIG_HOME="$out/home/.config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

cd "$root/mvbench"
go build -o "$out/mvbench" .
go build -o "$out/mvpar" mvpar/cmd/mvpar
cd "$root"
exec "$out/mvbench" -server "$out/mvpar" -records "$out/records" "$@"
