#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it with
# the given arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload hypercube-16k --seed 1 --seconds 20 --trace 0
#
# Every build product and cache goes under .bench_build/ in the current
# directory, and the build never touches the network.
set -euo pipefail
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
