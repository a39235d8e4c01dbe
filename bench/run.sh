#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the harness from source inside
# the checkout and runs it with the arguments given. Everything the build
# writes (Go build cache included) stays under .bench_build/, so a run
# touches nothing outside its checkout. Fails without output, and before
# starting any process, where the module's sources are missing.
set -euo pipefail
cd "$(dirname "$0")/.."
[[ -f go.mod && -f melissa.go ]] || exit 1
build="$PWD/.bench_build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-buildvcs=false
# With a fresh config dir the go command forks a telemetry sidecar that
# outlives it; mode "off" stops that, so no process survives this script.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$build/melissa-bench" ./bench
exec "$build/melissa-bench" "$@"
