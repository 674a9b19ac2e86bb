#!/usr/bin/env bash
# Builds tspdbd and the end-to-end benchmark from the checkout in the
# current directory, then runs the benchmark with the given arguments:
#
#   bash e2ebench/run.sh --workload ingest --seed 1 --seconds 30 --trace 0
#   bash e2ebench/run.sh --workload all --repeat 5 --seconds 30
#
# Every build product, the Go build cache included, stays under
# .bench_build/ in the checkout, and nothing is fetched from the network.
set -euo pipefail
root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/tspdbd" || ! -d "$root/internal" ]]; then
  echo "e2ebench: $root is not a tspdb checkout (go.mod, cmd/tspdbd, internal/ missing)" >&2
  exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/bin"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
  XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOFLAGS= CGO_ENABLED=0
go build -o "$out/bin/tspdbd" ./cmd/tspdbd
(cd "$root/e2ebench" && go build -o "$out/bin/e2ebench" .)
exec "$out/bin/e2ebench" -root "$root" -tspdbd "$out/bin/tspdbd" "$@"
