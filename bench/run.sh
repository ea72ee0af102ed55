#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs one
# workload:
#
#   bash bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Every build artefact (binary, Go build cache, temporary files, traces,
# checkpoints) lives under .bench_build/ at the checkout root, so the run
# reads and writes nothing outside the checkout. Build output goes to
# standard error; standard output carries the benchmark report, whose last
# line is the JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/tmp" "$out/config" "$out/modcache"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOMODCACHE="$out/modcache" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOWORK=off GOPROXY=off GOFLAGS=
(cd "$root/bench" && go build -o "$out/evfed-bench" .) >&2
cd "$root"
exec "$out/evfed-bench" "$@"
