#!/usr/bin/env bash
# Builds planetd and the perfbench program from the source tree this script
# sits in, then runs one workload:
#
#   bash perfbench/run.sh --workload sim-surge --seed 1 --seconds 12 --trace 0
#
# Everything the build and the run write (binaries, the Go build cache,
# live-cluster data dirs) stays under .bench_build/ at the repo root. A
# failed build exits non-zero before perfbench prints anything.
set -euo pipefail

here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out=$root/.bench_build
mkdir -p "$out/bin" "$out/gocache" "$out/tmp"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

(cd "$root" && go build -o "$out/bin/planetd" ./cmd/planetd) >&2
(cd "$here" && go build -o "$out/bin/perfbench" .) >&2
exec "$out/bin/perfbench" -planetd "$out/bin/planetd" -workdir "$out" "$@"
