#!/usr/bin/env bash
# Builds the harness from source into .bench_build/ at the repository root
# and runs it with the given arguments. Everything the build and the run
# write stays inside the checkout: the Go build cache, module cache, temp
# files and tool configuration are all pointed into .bench_build/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build/tmp"

(
	cd "$here"
	export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp"
	export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS=-mod=readonly
	go build -o "$build/asmbench" .
)

cd "$root"
exec "$build/asmbench" "$@"
