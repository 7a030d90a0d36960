#!/usr/bin/env bash
# Builds the benchmark program from source and runs it:
#
#   bash perfbench/run.sh --workload <incast|websearch|reconverge|serve> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the repository root. The Go build cache, the binary and
# the traced run's output all stay under .bench_build/ in that root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off XDG_CONFIG_HOME="$out/config"
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)
exec "$out/bin/perfbench" "$@"
