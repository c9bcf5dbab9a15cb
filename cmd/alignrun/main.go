// Command alignrun aligns two edge-list graphs with any of the nine
// algorithms and prints the node mapping plus quality measures.
//
// Usage:
//
//	alignrun -algo CONE -src a.edges -dst b.edges [-assign JV] [-truth truth.txt]
//
// The mapping is printed one "srcLabel dstLabel" pair per line on stdout;
// metrics go to stderr. When -truth is given (lines of "srcLabel dstLabel",
// the node labels of the -src and -dst files, as graphgen -truth writes
// them), accuracy is reported as well.
//
// -trace-out run.jsonl streams structured span events (a run span with
// similarity/assign phases plus the algorithm's inner phases) as JSONL,
// ready for `alignstat summary`; tracing never changes the alignment.
//
// -topk K (K > 0) runs the assignment over per-row top-K candidates instead
// of the dense matrix, and -workers bounds the run's parallel fan-out; both
// apply in every mode, and the mapping is identical for any -workers value.
//
// -partitions K (K >= 2) routes the run through the partition-align-stitch
// sharding layer: the graphs are co-partitioned into K matched cluster
// pairs, each pair is aligned independently across -workers goroutines with
// a fresh aligner instance, and the shard mappings are stitched, then
// refined on the cross-shard boundary by greedy rounds (refine.Rounds).
// Combine with -topk to keep the per-shard assignment sparse. This is what
// makes n=100k alignments fit in commodity memory (see DESIGN.md §15); 0 =
// off, byte-identical to the monolithic path.
//
// -edits stream.edits replays an evolving-graph workload (DESIGN.md §16):
// the pair is cold-aligned once, then each blank-line-separated batch of
// "add u v" / "del u v" lines is applied to the target graph and
// re-aligned incrementally (warm-started auction, delta-tolerant candidate
// reuse). Per-batch statistics go to stderr; the printed mapping and
// metrics are those of the final alignment against the final edited
// target. -incr-out writes the incr_* metrics registry as JSON afterwards.
// Requires an embedding- or factor-producing algorithm; the assignment
// method is fixed to the warm-startable sparse auction, so -edits cannot be
// combined with -assign (or -partitions).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"

	"graphalign"
	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/core"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

func main() {
	var (
		algoName = flag.String("algo", "CONE", "algorithm: IsoRank, GRAAL, NSD, LREA, REGAL, GWL, S-GWL, CONE, GRASP")
		srcPath  = flag.String("src", "", "source graph edge list (required)")
		dstPath  = flag.String("dst", "", "target graph edge list (required)")
		method   = flag.String("assign", "", "assignment method NN, SG, MWM, JV (default: the algorithm's own)")
		truthP   = flag.String("truth", "", "ground-truth file of 'srcLabel dstLabel' lines")
		quiet    = flag.Bool("q", false, "suppress the mapping output, print only metrics")
		traceOut = flag.String("trace-out", "", "write span events as JSONL to this file (alignstat summary input)")
		parts    = flag.Int("partitions", 0, "partition-align-stitch sharding: co-partition into this many matched cluster pairs, align shards independently and stitch with boundary refinement; 0 = off (monolithic)")
		topK     = flag.Int("topk", 0, "sparse assignment over per-row top-k candidates (0 = dense; with -edits: candidate list length, 0 = 10)")
		workers  = flag.Int("workers", 0, "parallel fan-out of candidates, auction, shards or refresh (0 = one per CPU; the mapping is the same for any value)")
		edits    = flag.String("edits", "", "edit-stream file of blank-line-separated 'add u v'/'del u v' batches: replay incrementally against the target graph")
		incrOut  = flag.String("incr-out", "", "write the incr_* metrics registry snapshot as JSON to this file (only with -edits)")
		incrTol  = flag.Float64("incr-tol", 0, "incremental embedding-row change tolerance: 0 = bitwise, >0 = relative (negative or NaN is rejected)")
		incrHops = flag.Int("incr-hops", 0, "restrict incremental target refresh to nodes within this many hops of an edit (0 = tolerance only)")
		drift    = flag.Float64("drift", 0, "dirty-row fraction above which incremental re-alignment falls back to a cold solve (0 = default 0.5, >=1 = never)")
	)
	flag.Parse()
	if *srcPath == "" || *dstPath == "" {
		fmt.Fprintln(os.Stderr, "alignrun: need -src and -dst")
		flag.Usage()
		os.Exit(2)
	}
	if *edits != "" && *parts >= 2 {
		fatal(fmt.Errorf("-edits and -partitions are mutually exclusive"))
	}
	if *edits != "" && *method != "" {
		fatal(fmt.Errorf("-edits and -assign are mutually exclusive: the incremental session always runs the sparse auction"))
	}
	src, srcLabels, err := graphalign.ReadGraphFile(*srcPath)
	if err != nil {
		fatal(err)
	}
	dst, dstLabels, err := graphalign.ReadGraphFile(*dstPath)
	if err != nil {
		fatal(err)
	}

	var tracer *obsv.Tracer
	var traceSink *obsv.WriterSink
	if *traceOut != "" {
		f, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		traceSink = obsv.NewWriterSink(f)
		tracer = obsv.New(traceSink).SetTraceID(obsv.NewTraceID("alignrun"))
		tracer.EmitTraceMeta(map[string]any{
			"cmd":        "alignrun",
			"algo":       *algoName,
			"src":        *srcPath,
			"dst":        *dstPath,
			"partitions": *parts,
			"go":         runtime.Version(),
			"gomaxprocs": runtime.GOMAXPROCS(0),
		})
	}

	var trueMap []int
	if *truthP != "" {
		trueMap, err = readTruth(*truthP, srcLabels, dstLabels)
		if err != nil {
			fatal(err)
		}
	}

	var res core.RunResult
	var mapping []int
	if *edits != "" {
		res, mapping, err = alignIncremental(*algoName, src, dst, trueMap,
			*edits, *incrOut, *topK, *workers, *incrTol, *incrHops, *drift, tracer)
	} else {
		res, mapping = core.RunInstance(context.Background(),
			func() (algo.Aligner, error) { return graphalign.NewAligner(*algoName) },
			noise.Pair{Source: src, Target: dst, TrueMap: trueMap}, assign.Method(*method),
			core.RunSpec{Tracer: tracer, AssignTopK: *topK, Workers: *workers, Partitions: *parts})
		err = res.Err
	}
	if err != nil {
		fatal(err)
	}
	if traceSink != nil {
		if werr := traceSink.Err(); werr != nil {
			fatal(fmt.Errorf("trace-out: %w", werr))
		}
	}

	if !*quiet {
		w := bufio.NewWriter(os.Stdout)
		for u, v := range mapping {
			if v < 0 {
				continue
			}
			fmt.Fprintf(w, "%s %s\n", srcLabels[u], dstLabels[v])
		}
		if err := w.Flush(); err != nil {
			fatal(err)
		}
	}
	fmt.Fprintf(os.Stderr, "algorithm=%s time=%s sim_time=%s assign_time=%s EC=%.4f ICS=%.4f S3=%.4f MNC=%.4f",
		*algoName, (res.SimilarityTime + res.AssignTime).Round(time.Millisecond), res.SimilarityTime.Round(time.Millisecond),
		res.AssignTime.Round(time.Millisecond), res.Scores.EC, res.Scores.ICS, res.Scores.S3, res.Scores.MNC)
	if trueMap != nil {
		fmt.Fprintf(os.Stderr, " accuracy=%.4f", res.Scores.Accuracy)
	}
	fmt.Fprintln(os.Stderr)
}

// alignIncremental replays an edit-stream file against the target graph:
// cold-align once (reported as the similarity time), then apply each batch
// with warm-started re-alignment (the summed apply time is reported as the
// assignment time). The final mapping is scored against the final edited
// target.
func alignIncremental(name string, src, dst *graph.Graph, trueMap []int, editsPath, incrOut string, topK, workers int, tol float64, hops int, drift float64, tracer *obsv.Tracer) (core.RunResult, []int, error) {
	var res core.RunResult
	f, err := os.Open(editsPath)
	if err != nil {
		return res, nil, err
	}
	batches, err := graph.ReadEditStream(f)
	f.Close()
	if err != nil {
		return res, nil, fmt.Errorf("edits: %w", err)
	}
	a, err := graphalign.NewAligner(name)
	if err != nil {
		return res, nil, err
	}
	if topK == 0 {
		topK = 10
	}
	reg := obsv.NewRegistry()
	// Materialize the whole incr_* family up front so -incr-out always has
	// the full series set, zeros included, whatever the stream exercised.
	incremental.PreRegisterMetrics(reg)
	t0 := time.Now()
	sess, err := incremental.NewSession(context.Background(), a, src, dst, incremental.Options{
		TopK:           topK,
		Workers:        workers,
		DriftThreshold: drift,
		ColTolerance:   tol,
		DirtyHops:      hops,
		Tracer:         tracer,
		Registry:       reg,
	})
	res.SimilarityTime = time.Since(t0)
	if err != nil {
		return res, nil, err
	}
	for i, batch := range batches {
		t1 := time.Now()
		stats, err := sess.Apply(context.Background(), batch)
		res.AssignTime += time.Since(t1)
		if err != nil {
			return res, nil, fmt.Errorf("batch %d: %w", i, err)
		}
		fmt.Fprintf(os.Stderr, "batch=%d edits=%d dirty_rows=%d dirty_cols=%d rescan_rows=%d warm=%t rebid_rows=%d rounds=%d noop=%t time=%s\n",
			i, stats.Edits, stats.DirtyRows, stats.ChangedCols, stats.RescanRows, stats.Warm,
			stats.RebidRows, stats.Rounds, stats.Noop,
			(stats.RefreshTime + stats.CandidateTime + stats.SolveTime).Round(time.Microsecond))
	}
	if incrOut != "" {
		out, err := os.Create(incrOut)
		if err != nil {
			return res, nil, err
		}
		if err := reg.WriteJSON(out); err != nil {
			out.Close()
			return res, nil, err
		}
		if err := out.Close(); err != nil {
			return res, nil, err
		}
	}
	mapping := sess.Mapping()
	res.Scores = metrics.All(src, sess.Target(), mapping, trueMap)
	return res, mapping, nil
}

// readTruth reads "srcLabel dstLabel" lines and resolves both columns
// through the label tables of the two edge-list files, which number nodes
// by first appearance. Source nodes without a line map to -1. A malformed
// line or a label absent from its graph is an error.
func readTruth(path string, srcLabels, dstLabels []string) ([]int, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	srcID, dstID := labelIndex(srcLabels), labelIndex(dstLabels)
	out := make([]int, len(srcLabels))
	for i := range out {
		out[i] = -1
	}
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if len(fields) != 2 {
			return nil, fmt.Errorf("truth line %d: want \"srcLabel dstLabel\", got %q", line, sc.Text())
		}
		u, ok := srcID[fields[0]]
		if !ok {
			return nil, fmt.Errorf("truth line %d: %q is not a node of -src", line, fields[0])
		}
		v, ok := dstID[fields[1]]
		if !ok {
			return nil, fmt.Errorf("truth line %d: %q is not a node of -dst", line, fields[1])
		}
		out[u] = v
	}
	return out, sc.Err()
}

func labelIndex(labels []string) map[string]int {
	id := make(map[string]int, len(labels))
	for i, l := range labels {
		id[l] = i
	}
	return id
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "alignrun:", err)
	os.Exit(1)
}
