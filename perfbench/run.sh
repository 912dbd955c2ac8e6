#!/usr/bin/env bash
# Builds perfbench from the checkout's own source and runs it with the
# given arguments. Run it from the root of an orderlight checkout:
#
#   bash perfbench/run.sh --workload sim-cold --seed 1 --seconds 25 --trace 0
#
# Everything it writes (the Go build cache, the binary, span dumps)
# goes under .bench_build/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod ]] || ! grep -qx 'module orderlight' go.mod || [[ ! -d internal/serve ]]; then
	echo "perfbench: run from the root of an orderlight checkout (its go.mod and internal/ are missing here)" >&2
	exit 2
fi

# Keep the toolchain's own writes (build cache, module path, telemetry
# and env files under the config dir) inside the checkout too.
out="$PWD/.bench_build"
mkdir -p "$out"
GOCACHE="$out/gocache" GOPATH="$out/gopath" XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local \
	go build -buildvcs=false -o "$out/perfbench/perfbench" ./perfbench

# Provenance: the commit of this checkout, when it is a git work tree
# of its own.
commit=unknown
if top=$(git rev-parse --show-toplevel 2>/dev/null) && [[ "$top" == "$PWD" ]]; then
	commit=$(git rev-parse HEAD)
	[[ -z "$(git status --porcelain 2>/dev/null)" ]] || commit+="+dirty"
fi
export PERFBENCH_COMMIT="$commit"
exec "$out/perfbench/perfbench" "$@"
