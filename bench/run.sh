#!/usr/bin/env bash
# Builds the benchmark into .bench_build/ under the current directory (the
# checkout root) and runs it there. The Go build cache and GOPATH are moved
# inside the checkout as well, so a run reads and writes nothing outside it.
set -euo pipefail
root=$(pwd)
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTOOLCHAIN=local GOPROXY=off
(cd "$here" && go build -o "$build/proteus-bench" .)
exec "$build/proteus-bench" "$@"
