#!/usr/bin/env bash
# Builds the benchmark and runs it from the repository root:
#
#   bash perfbench/run.sh --workload paper-cold --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh compare OLD.json NEW.json
#
# Everything the build and the runs write stays under .bench_build/ in
# the current directory, which must be the repository root.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/obmsimd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, cmd/obmsimd and perfbench/ must be here)" >&2
	exit 2
fi
out="$PWD/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" TMPDIR="$out/tmp"
# The Go toolchain keeps its config and telemetry under XDG_CONFIG_HOME.
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
go -C perfbench build -o "$out/bench" .
exec "$out/bench" -root . "$@"
