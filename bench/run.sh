#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it with the given
# arguments. Everything the Go tool writes -- binaries, build cache,
# scratch directories, its own config and telemetry counters -- lands in
# .bench_build/ at the root of the checkout; skynetd is built later by the
# benchmark itself and inherits the same environment.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config"
export GOPROXY=off GOTOOLCHAIN=local
go build -C "$root/bench" -o "$out/bench" .
cd "$root"
exec "$out/bench" "$@"
