#!/usr/bin/env bash
# Builds the layer benchmark from the checkout's sources and runs it.
# Run from the repository root; every argument is passed through, e.g.
#   bash layerbench/run.sh --workload wordfreq --seed 1 --seconds 12 --trace 0
# Build outputs, the Go build cache and traces stay under .bench_build/.
set -euo pipefail
out="$PWD/.bench_build/layerbench"
mkdir -p "$out/gocache" "$out/tmp" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/home/go" \
	HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=
(cd layerbench && go build -o "$out/layerbench" .)
# Between sessions the Go runtime hands freed heap pages back to the kernel,
# and by default (MADV_DONTNEED) the next session faults every one of them
# in again. With MADV_FREE the pages are reused without a fault unless the
# kernel has taken them meanwhile. See "Steadiness" in README.md.
export GODEBUG="${GODEBUG:+$GODEBUG,}madvdontneed=0"
exec "$out/layerbench" "$@"
