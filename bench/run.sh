#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the Go
# toolchain writes — build cache, module cache, temporary files, binaries —
# is kept under .bench_build/ so a run touches nothing outside the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOFLAGS= GOTOOLCHAIN=local GOPROXY=off
(cd "$root/bench" && go build -o "$out/bench" .)
cd "$root"
exec "$out/bench" "$@"
