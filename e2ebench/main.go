// Command e2ebench is the repository's end-to-end benchmark. One run
// generates one workload's alignment instances from a seed, times the calls
// into each layer (gen/noise, algo, assign, partition, incremental,
// metrics) for a fixed time, checks every output, and prints each metric by
// name with its unit. The last line of standard output is the result:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (set-up, pass wall and
// CPU time, step geomean, peak RSS, allocation, success share and the five
// quality measures); with --trace 1 a further traced pass writes a JSONL
// trace that alignstat summary reads and the metrics are the per-layer
// ones. Run it through run.sh, which builds it first:
//
//	bash e2ebench/run.sh --workload sharded --seed 7 --seconds 35 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"
)

func main() {
	os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr))
}

func cli(args []string, stdout, stderr io.Writer) int {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Int64("seed", 1, "instance seed")
	seconds := fs.Float64("seconds", 35, "how long the untraced passes run")
	trace := fs.Int("trace", 0, "1 adds a traced pass and reports the per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookup(*name)
	if !ok || fs.NArg() > 0 || *seconds < 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "usage: e2ebench --workload {%s} --seed N --seconds S --trace {0|1}\n", strings.Join(names, "|"))
		return 2
	}
	outDir := os.Getenv("CARGO_TARGET_DIR")
	if outDir == "" {
		outDir = ".bench_build"
	}
	rep, err := run(context.Background(), config{
		w: w, p: w.full, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, outDir: outDir, log: stderr,
	})
	if err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	if err := emit(stdout, rep, *trace == 1); err != nil {
		fmt.Fprintln(stderr, "e2ebench:", err)
		return 1
	}
	return 0
}

// emit prints the run's diagnostics line and then the result line.
func emit(w io.Writer, rep *report, traced bool) error {
	ms := rep.e2e
	if traced {
		ms = rep.layers
	}
	if err := finite(ms); err != nil {
		return err
	}
	diag, err := json.Marshal(map[string]any{"diagnostics": rep.diag})
	if err != nil {
		return err
	}
	res, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, ms})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n%s\n", diag, res)
	return err
}
