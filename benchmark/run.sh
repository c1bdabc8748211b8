#!/usr/bin/env bash
# Builds the benchmark harness from the checkout's source and runs it.
# Everything the build writes stays under benchmark/out (the Go build
# cache, GOPATH and the toolchain's own counter files under
# XDG_CONFIG_HOME included), so a run reads and writes only inside its
# checkout.
set -euo pipefail
cd "$(dirname "$0")"
mkdir -p out/bin out/gotmp
export GOCACHE="$PWD/out/gocache" GOTMPDIR="$PWD/out/gotmp" GOPATH="$PWD/out/gopath" XDG_CONFIG_HOME="$PWD/out/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local
go build -o out/bin/benchmark .
exec out/bin/benchmark "$@"
