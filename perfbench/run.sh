#!/usr/bin/env bash
# Builds the benchmark from source and runs it; every argument is passed
# through (see main.go for the flags). Run from the repository root:
#
#	bash perfbench/run.sh --workload dumbbell --seed 1 --seconds 20 --trace 0
#
# All build state — Go's build cache included — lives under .bench_build,
# so the benchmark reads and writes only inside the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the repository root" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" "$@"
