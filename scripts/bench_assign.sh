#!/usr/bin/env bash
# Runs the assignment-stage benchmarks and writes BENCH_assign.json:
# a "_meta" header (commit, go version, GOMAXPROCS) followed by a flat map of
# benchmark name -> {ns_per_op, allocs_per_op}. Consumers that iterate the
# map must skip the "_meta" key.
#
# Usage: scripts/bench_assign.sh [output.json]
# From the repo root. Pass -short via GOFLAGS if needed.
set -euo pipefail

out="${1:-BENCH_assign.json}"
tmp="$(mktemp)"
trap 'rm -f "$tmp"' EXIT

commit="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
if [ -n "$(git status --porcelain 2>/dev/null)" ]; then
    commit="${commit}-dirty"
fi
gover="$(go env GOVERSION)"

# -cpu 1 pins GOMAXPROCS to the committed baseline's: the pooled solvers
# allocate per worker, so allocs/op depend on it.
go test ./internal/assign -run NONE -bench . -benchmem -count=1 -cpu 1 | tee "$tmp" >&2

awk -v commit="$commit" -v gover="$gover" '
BEGIN { n = 0; maxprocs = 1 }
/^Benchmark/ {
    name = $1
    # The -N suffix on the bench name is the GOMAXPROCS the run used;
    # Go omits it entirely when GOMAXPROCS=1, hence the default above.
    procs = name
    if (sub(/^.*-/, "", procs) && procs + 0 > 0) maxprocs = procs + 0
    sub(/-[0-9]+$/, "", name)       # strip GOMAXPROCS suffix
    ns = ""; allocs = ""
    for (i = 2; i <= NF; i++) {
        if ($(i) == "ns/op")     ns = $(i - 1)
        if ($(i) == "allocs/op") allocs = $(i - 1)
    }
    if (ns == "") next
    names[n] = name
    lines[n] = "{\"ns_per_op\": " ns ", \"allocs_per_op\": " (allocs == "" ? 0 : allocs) "}"
    n++
}
END {
    print "{"
    printf "  \"_meta\": {\"commit\": \"%s\", \"go\": \"%s\", \"gomaxprocs\": %d}", commit, gover, maxprocs
    for (i = 0; i < n; i++) printf ",\n  \"%s\": %s", names[i], lines[i]
    print "\n}"
}
' "$tmp" > "$out"

echo "wrote $out" >&2
