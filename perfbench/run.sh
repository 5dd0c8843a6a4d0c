#!/usr/bin/env bash
# Builds termcheckd, termcheck, chase and the perfbench program from source,
# then runs perfbench with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload warm-replay --seed 3 --seconds 10 --trace 0
#
# Run it from the repository root. Everything the build and the run write
# stays under .bench_build/ in that root: the Go build cache included, so
# the first run builds from scratch and later runs reuse it.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/termcheckd" ]; then
	echo "perfbench: run from the repository root (the module with cmd/termcheckd)" >&2
	exit 3
fi

out="$root/.bench_build/perfbench"
mkdir -p "$out/bin" "$out/work" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
export TMPDIR="$out/tmp"             # go build's work directories
export XDG_CONFIG_HOME="$out/config" # go's telemetry and env files
go build -o "$out/bin/" ./cmd/termcheckd ./cmd/termcheck ./cmd/chase
(cd "$root/perfbench" && go build -o "$out/bin/perfbench" .)

commit=unknown
if [ -e "$root/.git" ]; then
	commit=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown)
fi
exec "$out/bin/perfbench" -bin "$out/bin" -work "$out/work" -commit "$commit" "$@"
