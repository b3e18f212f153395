#!/usr/bin/env bash
# Builds the benchmark from the engine source in this checkout and runs it.
# Usage (from the checkout root):
#   bash perfbench/run.sh --workload read-cached --seed 1 --seconds 10 --trace 0
# Build outputs, scratch databases and results go under .bench_build/.
set -euo pipefail

root="$(pwd)"
[ -f "$root/perfbench/go.mod" ] || { echo "run.sh: run from the checkout root" >&2; exit 2; }
[ -f "$root/go.mod" ] || { echo "run.sh: engine source (go.mod) missing from $root" >&2; exit 2; }

out="$root/.bench_build"
mkdir -p "$out"
# Keep the Go tool's cache, module and config/telemetry directories inside
# the checkout, and never reach the network.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOSUMDB=off GOFLAGS=-buildvcs=false GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

commit="unknown"
if command -v git >/dev/null 2>&1 && git -C "$root" rev-parse --git-dir >/dev/null 2>&1; then
	commit="$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench" "$@"
