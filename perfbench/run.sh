#!/usr/bin/env bash
# Builds the U-tree benchmark from the checkout it is run in and runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload read_disk --seed 1 --seconds 40 --trace 0
#
# Everything the build and the run write stays under .bench_build/.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOFLAGS=

commit=unknown
if [ -d .git ] && command -v git >/dev/null 2>&1; then
	commit=$(git rev-parse --short HEAD 2>/dev/null || echo unknown)
fi

(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -commit "$commit" -dir "$out" "$@"
