#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it is run in and
# runs it with the given arguments; see main.go for the flags. Run it from
# the root of the checkout:
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
#
# Everything it writes (the Go build cache, the binary and the state
# directories) stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/go-cache" GOPATH="$out/go-path" GOENV=off GOFLAGS= \
	GOTOOLCHAIN=local GOPROXY=off GOTELEMETRY=off XDG_CONFIG_HOME="$out/config"
# Replace the binary only when it changed: rewriting 8 MB on every run would
# leave dirty pages whose writeback lands on the timed fsyncs.
go build -C perfbench -o "$out/perfbench.new" .
if cmp -s "$out/perfbench.new" "$out/perfbench"; then
	rm "$out/perfbench.new"
else
	mv "$out/perfbench.new" "$out/perfbench"
fi
exec "$out/perfbench" -workdir "$out/work" "$@"
