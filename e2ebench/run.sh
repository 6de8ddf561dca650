#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, from the root of the checkout:
#
#   bash e2ebench/run.sh --workload formation --seed 1 --seconds 20 --trace 0
#
# Everything the build and the runs write stays under .bench_build in the
# checkout: the binary, the Go build cache and the traces.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"

# Keep the toolchain's caches, temp files and telemetry inside the
# checkout, and never reach for a module proxy: the benchmark's only
# dependency is the repository itself, replaced from the parent directory.
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home" \
	GOFLAGS= GOWORK=off GOPROXY=off GOTOOLCHAIN=local

go -C "$root/e2ebench" build -o "$out/e2ebench" .
cd "$root"
exec "$out/e2ebench" "$@"
