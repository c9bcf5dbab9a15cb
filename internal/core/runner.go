// Package core is the experiment framework of the study: it composes graph
// sources (generators or dataset stand-ins), noise models, alignment
// algorithms, assignment methods and quality metrics into reproducible
// experiments, and regenerates every table and figure of the paper
// (see experiments.go for the per-figure specifications).
package core

import (
	"context"
	"errors"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
	"graphalign/internal/partition"
)

// Factory instantiates an alignment algorithm by its canonical paper name.
// The root graphalign package provides one wired to the Table 1 registry.
type Factory func(name string) (algo.Aligner, error)

// RunResult captures one algorithm run on one alignment instance.
type RunResult struct {
	Algorithm string
	Assign    assign.Method
	Scores    metrics.Scores
	// SimilarityTime is the time spent computing the similarity matrix;
	// the paper reports runtime excluding the assignment step.
	SimilarityTime time.Duration
	// AssignTime is the time spent extracting the matching.
	AssignTime time.Duration
	// AllocBytes is the total heap allocated during the run (a
	// single-process proxy for the paper's peak-memory measurements). It is
	// only populated by RunInstanceProfiled: process-wide allocation deltas
	// are meaningless when other runs execute concurrently, so RunInstance
	// leaves it zero and the memory experiments opt into
	// the serialized profiled mode instead (Options.MemProfile).
	AllocBytes uint64
	// Err records a failed run; Scores are zero in that case. The paper
	// likewise reports nothing for runs that exceed its limits.
	Err error
}

// RunSpec bundles the optional knobs of a single run: observability,
// fault-tolerance, the sparse assignment pipeline, sharding and the artifact
// cache. The zero value means untraced, unbounded, dense, monolithic and
// uncached.
type RunSpec struct {
	// Tracer receives run/phase spans; nil disables tracing.
	Tracer *obsv.Tracer
	// Budget bounds the run's wall clock (off when zero); see RunInstance.
	Budget time.Duration
	// AssignTopK, when positive, routes the assignment through the sparse
	// candidate pipeline (algo.Plan.TopK): the similarity is reduced to
	// per-row top-k candidates — read off an algo.ScoringAligner's scorer
	// without materializing the dense matrix — and solved by the sparse
	// variant of the requested method. Zero keeps the dense solvers.
	AssignTopK int
	// Workers bounds the run's intra-run parallel fan-out (candidate
	// generation, auction bidding rounds, concurrent shards); 0 means one
	// per CPU. Results are identical for any value.
	Workers int
	// Partitions, when >= 2, routes the run through the partition-align-
	// stitch layer (internal/partition): both graphs are co-partitioned
	// into that many matched cluster pairs by structural-signature
	// chunking, every shard pair is aligned independently on the parallel
	// pool by its own aligner, and the shard mappings are stitched, then
	// refined on the cross-shard boundary by greedy rounds (refine.Rounds).
	// 0 and 1 are off and byte-identical to the monolithic path. Composes
	// with AssignTopK (each shard's matching then runs the sparse
	// pipeline). See DESIGN.md §15.
	Partitions int
	// Cache, when non-nil, is handed to every aligner the run builds — the
	// monolithic one and each shard's. Cached artifacts are keyed per graph
	// and bitwise what the aligner would compute itself, so the mapping is
	// the same with or without it (DESIGN.md §10).
	Cache *cache.Cache
}

// RunInstance aligns pair.Source to pair.Target with an aligner built by
// newAligner and the given assignment method (empty selects the aligner's
// DefaultAssignment, which RunResult.Assign then reports), scores the
// result against the instance's ground truth, and returns the scores
// together with the mapping itself (mapping[u] = the pair.Target node
// aligned to pair.Source node u, -1 for unmatched; nil exactly when res.Err
// is non-nil). Partitioned runs call newAligner once more per shard, so
// shards never share mutable algorithm state across goroutines; newAligner
// must therefore return a fresh instance on every call. RunInstance is safe
// to call concurrently; AllocBytes is left zero (see RunInstanceProfiled).
//
// The run is fault-tolerant: the similarity stage observes ctx through the
// algorithm's cooperative cancellation checks, a positive spec.Budget bounds
// the run's wall clock (deadline exceeded becomes a *TimeoutError unwrapping
// to ErrTimeout), and a panic anywhere in the run is recovered into a
// *PanicError unwrapping to ErrPanic with the stack captured — the calling
// worker survives. A parent-context cancellation (ctx.Err() ==
// context.Canceled) passes through unclassified so callers can distinguish
// "the whole grid was stopped" from "this run timed out".
//
// With spec.Tracer set, the run is bracketed by run_start/run_end events,
// the similarity, assignment and scoring stages become nested phase spans,
// and algorithms implementing algo.Instrumented record their own inner
// phases under the run span. Tracing never changes the computation, only
// what is observed about it.
func RunInstance(ctx context.Context, newAligner func() (algo.Aligner, error), pair noise.Pair, method assign.Method, spec RunSpec) (res RunResult, outMapping []int) {
	build := func() (algo.Aligner, error) {
		a, err := newAligner()
		if err == nil {
			algo.ApplyCache(a, spec.Cache)
		}
		return a, err
	}
	a, err := build()
	if err != nil {
		return RunResult{Err: err}, nil
	}
	if method == "" {
		method = a.DefaultAssignment()
	}
	tr, budget := spec.Tracer, spec.Budget
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	res = RunResult{Algorithm: a.Name(), Assign: method}
	run := tr.StartRun(a.Name(), map[string]any{
		"assign": string(method),
		"n_src":  pair.Source.N(),
		"n_dst":  pair.Target.N(),
	})
	reg := tr.Registry()
	reg.Counter("runs_total").Add(1)
	defer func() {
		if r := recover(); r != nil {
			res.Err = &PanicError{Value: r, Stack: debug.Stack()}
			res.Scores = metrics.Scores{}
			reg.Counter("run_panics_total").Add(1)
			res = endRunErr(run, reg, res)
		}
	}()

	var mapping []int
	if spec.Partitions >= 2 {
		// The shard fan-out replaces the monolithic similarity/assign
		// stages: co-partition + shard wall time is reported as
		// SimilarityTime, stitch + refinement as AssignTime.
		run.Set("partitions", spec.Partitions)
		var pstats partition.Stats
		mapping, pstats, err = partition.Align(ctx, build, pair.Source, pair.Target, method, partition.Options{
			K:       spec.Partitions,
			Workers: spec.Workers,
			TopK:    spec.AssignTopK,
			Tracer:  tr,
			Span:    run,
		})
		res.SimilarityTime, res.AssignTime = pstats.AlignTime, pstats.StitchTime
	} else {
		var out algo.Result
		out, err = algo.Run(ctx, a, pair.Source, pair.Target, algo.Plan{
			Method: method, TopK: spec.AssignTopK, Workers: spec.Workers, Span: run,
		})
		mapping = out.Mapping
		res.SimilarityTime, res.AssignTime = out.SimTime, out.AssignTime
	}
	if err != nil {
		res.Err = classifyRunErr(err, budget, reg)
		return endRunErr(run, reg, res), nil
	}

	sp := run.Phase("metrics")
	res.Scores = metrics.All(pair.Source, pair.Target, mapping, pair.TrueMap)
	sp.End()
	run.End()
	return res, mapping
}

// endRunErr closes a failed run's span with its error annotated and counts
// it in the registry.
func endRunErr(run *obsv.Span, reg *obsv.Registry, res RunResult) RunResult {
	run.Set("err", res.Err.Error())
	run.End()
	reg.Counter("run_errors_total").Add(1)
	return res
}

// classifyRunErr maps a run's error onto its typed cause: a deadline blown
// inside the run becomes a *TimeoutError (counted as run_timeouts_total),
// while parent-context cancellation and ordinary algorithm errors pass
// through unchanged.
func classifyRunErr(err error, budget time.Duration, reg *obsv.Registry) error {
	if errors.Is(err, context.DeadlineExceeded) {
		reg.Counter("run_timeouts_total").Add(1)
		return &TimeoutError{Budget: budget}
	}
	return err
}

// memProfileMu serializes profiled runs: runtime.ReadMemStats reports
// process-wide counters, so two overlapping profiled runs would attribute
// each other's allocations to themselves.
var memProfileMu sync.Mutex

// RunInstanceProfiled is RunInstance plus an AllocBytes measurement taken
// from the process-wide TotalAlloc delta around the run. Profiled runs are
// serialized behind a global mutex so concurrent runs cannot pollute each
// other's delta; background runtime activity (GC metadata, timers) is still
// included, so treat AllocBytes as an upper-bound proxy for the paper's
// peak-memory numbers, not an exact footprint.
func RunInstanceProfiled(ctx context.Context, newAligner func() (algo.Aligner, error), pair noise.Pair, method assign.Method, spec RunSpec) RunResult {
	memProfileMu.Lock()
	defer memProfileMu.Unlock()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, _ := RunInstance(ctx, newAligner, pair, method, spec)
	runtime.ReadMemStats(&after)
	res.AllocBytes = after.TotalAlloc - before.TotalAlloc
	return res
}

// Average folds a set of run results into mean scores and times, skipping
// failed runs; ok reports how many runs succeeded. When every run failed,
// the returned result carries an error joining the distinct failure
// messages, so a mixed-cause cell (e.g. one timeout and two numerical
// failures) is not misreported as its first cause alone.
func Average(runs []RunResult) (mean RunResult, ok int) {
	if len(runs) == 0 {
		return RunResult{}, 0
	}
	mean.Algorithm = runs[0].Algorithm
	mean.Assign = runs[0].Assign
	var simT, asgT time.Duration
	var alloc uint64
	for _, r := range runs {
		if r.Err != nil {
			continue
		}
		ok++
		mean.Scores.Accuracy += r.Scores.Accuracy
		mean.Scores.EC += r.Scores.EC
		mean.Scores.ICS += r.Scores.ICS
		mean.Scores.S3 += r.Scores.S3
		mean.Scores.MNC += r.Scores.MNC
		simT += r.SimilarityTime
		asgT += r.AssignTime
		alloc += r.AllocBytes
	}
	if ok == 0 {
		mean.Err = joinRunErrors(runs)
		return mean, 0
	}
	f := float64(ok)
	mean.Scores.Accuracy /= f
	mean.Scores.EC /= f
	mean.Scores.ICS /= f
	mean.Scores.S3 /= f
	mean.Scores.MNC /= f
	mean.SimilarityTime = simT / time.Duration(ok)
	mean.AssignTime = asgT / time.Duration(ok)
	mean.AllocBytes = alloc / uint64(ok)
	return mean, ok
}

// joinRunErrors collapses the errors of an all-failed cell into one error
// listing each distinct message once, in first-occurrence order. A cell
// with a single distinct cause keeps its original error (and wrap chain).
func joinRunErrors(runs []RunResult) error {
	var firsts []error
	seen := make(map[string]bool)
	for _, r := range runs {
		if r.Err == nil || seen[r.Err.Error()] {
			continue
		}
		seen[r.Err.Error()] = true
		firsts = append(firsts, r.Err)
	}
	switch len(firsts) {
	case 0:
		return nil
	case 1:
		return firsts[0]
	}
	msgs := make([]string, len(firsts))
	for i, err := range firsts {
		msgs[i] = err.Error()
	}
	return errors.New(strings.Join(msgs, "; "))
}
