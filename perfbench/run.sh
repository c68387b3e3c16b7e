#!/usr/bin/env bash
# Builds the session benchmark from source and runs it with the given
# arguments. Run from the repository root:
#
#   bash perfbench/run.sh --workload bulk-wan --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go caches and config, and traced spans stay under
# .bench_build in the working directory.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOPATH="$out/gopath" GOCACHE="$out/gocache" GOMODCACHE="$out/gopath/pkg/mod" GOTMPDIR="$out/tmp" GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
