#!/usr/bin/env bash
# Builds brsmnd and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload pubsub-hit --seed 1 --seconds 20 --trace 0
#
# Build outputs, the Go build cache and run state stay under
# .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/brsmnd" ]; then
	echo "run.sh: $root holds no brsmn source tree to build" >&2
	exit 2
fi
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off GOTELEMETRY=off
mkdir -p "$build/bin" "$build/tmp"
(cd "$root" && go build -o "$build/bin/brsmnd" ./cmd/brsmnd)
(cd "$here" && go build -o "$build/bin/perfbench" .)
export BENCH_COMMIT="${BENCH_COMMIT:-$(GIT_CEILING_DIRECTORIES="$(dirname "$root")" git -C "$root" rev-parse --short HEAD 2>/dev/null || echo unknown)}"
exec "$build/bin/perfbench" -brsmnd "$build/bin/brsmnd" -work "$build" "$@"
