#!/usr/bin/env bash
# Builds the live-cluster benchmark from this checkout's source and runs it.
#
#   bash livebench/run.sh --workload config-read --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build products, the Go build cache, Go's
# config and telemetry files and the traced run's span files all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout. The last
# line of stdout is the result object; build output goes to stderr.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "$here/.." && pwd)"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/livebench" "$out/gocache" "$out/gopath" "$out/tmp" "$out/config"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOFLAGS=
(cd "$here" && go build -o "$out/livebench/livebench" .) >&2
exec "$out/livebench/livebench" --out "$out/livebench" "$@"
