#!/bin/sh
# Builds the end-to-end benchmark from source and runs it. Run it from the
# root of a checkout:
#
#	sh perfbench/run.sh --workload serve_campaign --seed 1 --seconds 25 --trace 0
#
# Without --workload it runs every workload, each in its own process. The
# Go build cache, temporary files and the binary stay under .bench_build/ in
# the checkout.
set -eu

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GIT_CEILING_DIRECTORIES=$(dirname "$root")

commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
go -C "$root/perfbench" build -buildvcs=false -o "$build/perfbench" .
exec "$build/perfbench" --commit "$commit" "$@"
