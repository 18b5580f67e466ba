#!/usr/bin/env bash
# Builds the campaign benchmark from source and runs it. Every build
# product, cache, temp file and trace stays under .bench_build/ at the
# root of the checkout. Usage, from the root:
#
#   bash campaignbench/run.sh --workload exact-cold --seed 1 --seconds 25 --trace 0
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" GOFLAGS= GOPROXY=off CGO_ENABLED=0 GOTOOLCHAIN=local GOENV=off GOWORK=off
(cd "$root/campaignbench" && go build -o "$out/campaignbench" .) >&2
exec "$out/campaignbench" "$@"
