#!/usr/bin/env bash
# Builds dropbench from the checkout this script sits in and runs it with the
# given arguments. Everything the build and the run write — Go's build cache,
# the binary, journals, follower logs, trace files — stays under .bench_build/
# in the checkout: the program takes its scratch space from os.TempDir, which
# TMPDIR points there.
set -euo pipefail

root=$(cd "$(dirname "$0")/../.." && pwd)
cd "$root"
if [ ! -f go.mod ] || [ ! -d internal ]; then
	echo "dropbench: $root is not a checkout of the repository (go.mod or internal/ missing)" >&2
	exit 2
fi

build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/gocache" "$build/gopath" "$build/xdg"
export TMPDIR="$build/tmp" GOTMPDIR="$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/xdg" XDG_CACHE_HOME="$build/xdg"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -o "$build/dropbench" ./cmd/dropbench
exec "$build/dropbench" "$@"
