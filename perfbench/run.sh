#!/usr/bin/env bash
# Builds the benchmark from the surrounding checkout and runs it with
# the given arguments, e.g.
#
#   bash perfbench/run.sh --workload plummer_serial --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run leave
# behind (binary, Go build cache, records, spans) goes under
# .bench_build/perfbench, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home" "$out/config"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOENV=off

sha=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	sha=$(git rev-parse HEAD 2>/dev/null || echo unknown)
	if ! git diff --quiet HEAD -- 2>/dev/null; then
		sha="$sha-dirty"
	fi
fi

# HOME and XDG_CONFIG_HOME keep the toolchain's own state (telemetry
# counters, config) inside the checkout as well.
(cd perfbench && HOME="$out/home" XDG_CONFIG_HOME="$out/config" \
	go build -buildvcs=false -ldflags "-X main.gitSHA=$sha" -o "$out/perfbench" .)
exec "$out/perfbench" --out "$out" "$@"
