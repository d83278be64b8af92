#!/usr/bin/env bash
# Builds the LASH benchmark from source and runs one workload. Run it from
# the root of a checkout:
#
#   bash lashbench/run.sh --workload text-ngram --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write (Go build cache, binary, corpora,
# spill files) stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/lashbench/go.mod" ]; then
	echo "lashbench: run from the root of a lash checkout (go.mod and lashbench/ missing)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOPATH="$out/gopath"
export TMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off

go build -C lashbench -o "$out/lashbench" .
exec "$out/lashbench" -dir "$out" "$@"
