#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the arguments
# given (see main.go). Everything building and running leave behind goes to
# .bench_build/ at the root of the checkout, the Go build cache included, so
# a run reads and writes nothing outside the checkout.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/gocache"
export GOFLAGS="${GOFLAGS:-} -buildvcs=false"
# The go tool wants a GOPATH even though this module downloads nothing.
if [ -z "${HOME:-}" ] && [ -z "${GOPATH:-}" ]; then
	export GOPATH="$build/gopath"
fi
cd "$here"
go build -o "$build/bin/bench" .
exec "$build/bin/bench" "$@"
