package core

import (
	"context"
	"fmt"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/incremental"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// IncrementalSpec routes a run through the evolving-graph mode
// (internal/incremental): the pair is cold-aligned once, then every batch
// of target-graph edits is applied and re-aligned with warm-started
// assignment and delta-tolerant candidate reuse. The run's scores are those
// of the final alignment against the final (post-edit) target; the
// similarity/assign time split reports the cold alignment vs the whole
// replay. See DESIGN.md §16.
type IncrementalSpec struct {
	// Batches is the edit stream, applied in order; each batch triggers one
	// re-alignment. An empty batch is a noop probe (the mapping must come
	// back byte-identical).
	Batches [][]graph.Edit
	// Options configures the session. Zero-valued TopK, Workers, Tracer and
	// Registry inherit the run's AssignTopK, Workers, Tracer and the
	// tracer's registry.
	Options incremental.Options
}

// runInstanceIncremental is the IncrementalSpec branch of RunInstance.
// The assignment method is fixed by the mode (the warm-startable ε-scaling
// auction, falling back to dense JV when the candidate graph is
// unmatchable), so the requested method is ignored; the caller's deferred
// recover and error classification still apply.
func runInstanceIncremental(ctx context.Context, a algo.Aligner, pair noise.Pair, spec RunSpec, run *obsv.Span, reg *obsv.Registry) (RunResult, []int) {
	res := RunResult{Algorithm: a.Name(), Assign: assign.AuctionSparse}
	inc := spec.Incremental
	opts := inc.Options
	if opts.TopK == 0 {
		opts.TopK = spec.AssignTopK
	}
	if opts.Workers == 0 {
		opts.Workers = spec.Workers
	}
	if opts.Tracer == nil {
		opts.Tracer = spec.Tracer
	}
	if opts.Registry == nil {
		opts.Registry = reg
	}
	run.Set("incremental_batches", len(inc.Batches))

	t0 := time.Now()
	sess, err := incremental.NewSession(ctx, a, pair.Source, pair.Target, opts)
	res.SimilarityTime = time.Since(t0)
	if err != nil {
		res.Err = classifyRunErr(fmt.Errorf("incremental session: %w", err), spec.Budget, reg)
		return endRunErr(run, reg, res), nil
	}
	t1 := time.Now()
	for bi, batch := range inc.Batches {
		if _, err := sess.Apply(ctx, batch); err != nil {
			res.Err = classifyRunErr(fmt.Errorf("incremental batch %d: %w", bi, err), spec.Budget, reg)
			return endRunErr(run, reg, res), nil
		}
	}
	res.AssignTime = time.Since(t1)

	mapping := sess.Mapping()
	sp := run.Phase("metrics")
	res.Scores = metrics.All(pair.Source, sess.Target(), mapping, pair.TrueMap)
	sp.End()
	run.End()
	return res, mapping
}
