#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it, passing every argument through. Run it from the repository
# root:
#
#   bash perfbench/run.sh --workload population-engine --seed 1 --seconds 10 --trace 0
#
# The build cache, the binary, results and traces all stay under
# .perfbench/ in the current directory; the toolchain never reaches the
# network.
set -euo pipefail
out="$PWD/.perfbench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOENV=off \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=readonly
(cd perfbench && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
