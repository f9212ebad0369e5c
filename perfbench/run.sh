#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload campaign-gen1 --seed 9 --seconds 30 --trace 0
#
# Every build artefact (binary, Go build cache, the go command's own
# configuration and telemetry files) stays under .bench_build in the
# checkout root. The build fails, and so does this script, when the
# checkout does not hold the eaao module next to perfbench/.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config"
export GOWORK=off GOTOOLCHAIN=local GOFLAGS=-mod=mod GOPROXY=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
