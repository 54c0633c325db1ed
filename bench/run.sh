#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags.
# Run from the repository root: bash bench/run.sh -workload NAME -seed N
# The binary, the Go build cache, the go command's own files and
# temporary CPU profiles stay under .bench_build in the repository
# root; nothing is fetched.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/.bench_build"
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off TMPDIR="$out/tmp"
(cd "$here" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
