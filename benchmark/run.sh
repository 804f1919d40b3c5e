#!/usr/bin/env bash
# BENCHMARK.json's command: build the benchmark binary from source, then
# replace this shell with it. One foreground process does all the work —
# no `go run`, no `&`, no spawned server — so nothing can outlive a run.
#
# Everything written stays under .bench_build/ in the checkout (the root
# .gitignore names it): the binary, the Go build cache, temp and spill
# files, and the traced run's trace.json. The driver's contract is that a
# run "reads and writes only inside its checkout", which rules out the
# ambient build cache and mktemp; the price is that the first run in a
# checkout compiles the standard library (≈ 20 s here, of the 900 s the
# contract gives that run).
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" TMPDIR="$build/tmp" GOPATH="${GOPATH:-$build/gopath}"
(cd "$here" && go build -o "$build/dixq-benchmark" .)
cd "$root"
exec "$build/dixq-benchmark" -traceout "$build/trace.json" "$@"
