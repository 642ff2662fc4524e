#!/usr/bin/env bash
# Builds the perfbench program and the program binaries under test from
# the checkout's sources, then runs perfbench with this script's arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload verify-cold --seed 1 --seconds 20 --trace 0
#
# Every build product and scratch file stays under .bench_build/ in the
# current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/bin" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTELEMETRY=off
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off

if ! go build -o "$out/bin/" ./cmd/climatebench ./cmd/climatebenchd >&2; then
	echo "perfbench: building the program failed" >&2
	exit 1
fi
if ! (cd "$root/perfbench" && go build -o "$out/bin/perfbench" .) >&2; then
	echo "perfbench: building the benchmark failed" >&2
	exit 1
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" "$@"
