#!/usr/bin/env bash
# Builds the benchmark and runs it from the checkout root. The binary, the
# Go build cache, the compiler's temp files and any module cache the toolchain
# wants all live in .bench_build/, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOPATH="$build/gopath" GOFLAGS=-mod=readonly GOTOOLCHAIN=local
go build -C bench -o "$build/pacebench" .
exec "$build/pacebench" "$@"
