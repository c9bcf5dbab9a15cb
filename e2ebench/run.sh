#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload dense-paper --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. Every build artifact, the Go build cache
# and the traces land in .bench_build/ (or $CARGO_TARGET_DIR when set), so
# nothing is written outside the checkout. The build fails, and the script
# exits nonzero without a result, when the repository's sources are absent.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOFLAGS=
export E2EBENCH_OUT="$build"

(cd "$root/e2ebench" && go build -o "$build/e2ebench" .)
exec "$build/e2ebench" "$@"
