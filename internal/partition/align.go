package partition

import (
	"context"
	"errors"
	"fmt"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/obsv"
	"graphalign/internal/parallel"
	"graphalign/internal/refine"
)

// Options configure one partitioned alignment. Only K is required; every
// observability field is nil-safe, so the zero value plus K is a working
// configuration.
type Options struct {
	// K is the requested shard count (clamped to min(n_src, n_dst)).
	K int
	// Workers bounds the shard-level parallel fan-out and the boundary
	// refinement's row-scoring fan-out; 0 means one per CPU. The result is
	// identical for any value.
	Workers int
	// TopK, when positive, routes each shard's assignment through the
	// sparse candidate pipeline (algo.Plan.TopK) instead of the dense
	// solvers — the composition that keeps large shards subquadratic.
	TopK int
	// Tracer, when non-nil, gives each shard a per-shard child trace:
	// shard_start / shard_done events around a run span holding the shard's
	// similarity and assign phases, so a daemon job's progress stream shows
	// shards as they complete and a trace shows where each shard's time went.
	// The tracer's registry receives the partition_* metrics.
	Tracer *obsv.Tracer
	// Span, when non-nil, is the enclosing run span; the partition, shard,
	// stitch and refine stages become phases under it.
	Span *obsv.Span
}

// Stats reports what a partitioned alignment did.
type Stats struct {
	// Shards is the effective shard count.
	Shards int
	// BoundaryNodes is the size of the cross-partition re-bid set.
	BoundaryNodes int
	// RefineRounds is the number of boundary-refinement rounds whose
	// outcome was applied.
	RefineRounds int
	// Rebound counts boundary nodes whose target changed during refinement.
	Rebound int
	// AlignTime is the wall clock of co-partitioning plus the parallel
	// shard alignments; StitchTime covers stitching and refinement. The
	// core runner reports them as the run's similarity/assignment split.
	AlignTime  time.Duration
	StitchTime time.Duration
}

// refineRounds caps the boundary refinement after stitching.
const refineRounds = 2

// Align runs the full partition-align-stitch pipeline: co-partition src and
// dst into matched shard pairs (Graphs), align every pair independently on
// the parallel pool — each shard with its own freshly built aligner from mk,
// inheriting ctx, panic isolation and a child trace — then stitch the shard
// mappings (Stitch) and re-bid the cross-partition boundary nodes
// (refine.Rounds).
//
// The first failing shard (by shard index, independent of scheduling order)
// fails the whole run; a panic inside a shard is recovered into an error so
// the caller's worker survives. The mapping is deterministic for any
// Workers value.
func Align(ctx context.Context, mk func() (algo.Aligner, error), src, dst *graph.Graph, method assign.Method, opts Options) ([]int, Stats, error) {
	var st Stats
	if mk == nil {
		return nil, st, errors.New("partition: nil aligner factory")
	}
	if src.N() > dst.N() {
		return nil, st, fmt.Errorf("partition: source graph larger than target (%d > %d)", src.N(), dst.N())
	}
	if src.N() == 0 {
		return []int{}, st, nil
	}
	reg := opts.Tracer.Registry()
	reg.Counter("partition_runs_total").Add(1)

	t0 := time.Now()
	sp := opts.Span.Phase("partition")
	cp := Graphs(src, dst, opts.K)
	k := cp.K
	sp.Set("shards", k)
	sp.End()
	st.Shards = k
	reg.Histogram("partition_shards", obsv.SizeBuckets()).Observe(float64(k))

	shards := make([]ShardMapping, k)
	errs := make([]error, k)
	spShards := opts.Span.Phase("shards")
	ferr := parallel.ForCtx(ctx, opts.Workers, k, func(i int) {
		shards[i], errs[i] = alignShard(ctx, mk, src, dst, cp.SrcClusters[i], cp.DstClusters[i], method, opts, i)
	})
	spShards.End()
	for i, err := range errs {
		if err != nil {
			reg.Counter("partition_shard_errors_total").Add(1)
			return nil, st, fmt.Errorf("partition: shard %d/%d: %w", i, k, err)
		}
	}
	if ferr != nil {
		return nil, st, ferr
	}
	st.AlignTime = time.Since(t0)

	t1 := time.Now()
	sp = opts.Span.Phase("stitch")
	mapping := Stitch(src.N(), dst.N(), shards)
	sp.End()

	if k > 1 {
		sp = opts.Span.Phase("refine")
		rows := boundary(src, cp)
		rounds, moved := refine.Rounds(ctx, src, dst, mapping, rows, refineRounds, opts.Workers)
		sp.Set("boundary_nodes", len(rows))
		sp.Set("rounds", rounds)
		sp.Set("moved", moved)
		sp.End()
		st.BoundaryNodes, st.RefineRounds, st.Rebound = len(rows), rounds, moved
		reg.Histogram("partition_boundary_nodes", obsv.SizeBuckets()).Observe(float64(len(rows)))
		reg.Histogram("partition_refine_rounds", obsv.SizeBuckets()).Observe(float64(rounds))
		reg.Counter("partition_rebid_moves_total").Add(int64(moved))
	}
	st.StitchTime = time.Since(t1)
	return mapping, st, nil
}

// alignShard aligns one shard pair with a fresh aligner. The shard inherits
// ctx, runs under its own child trace, and recovers its own panics — a
// crashing inner aligner fails the run, not the process, because parallel
// pool goroutines have no recovery of their own.
func alignShard(ctx context.Context, mk func() (algo.Aligner, error), src, dst *graph.Graph, srcIDs, dstIDs []int, method assign.Method, opts Options, i int) (sm ShardMapping, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("partition: inner aligner panicked: %v", r)
		}
	}()
	var shardTr *obsv.Tracer
	if opts.Tracer != nil {
		id := fmt.Sprintf("shard-%03d", i)
		if root := opts.Tracer.TraceID(); root != "" {
			id = root + "/" + id
		}
		shardTr = opts.Tracer.ChildTrace(id)
	}
	sub1, _ := graph.InducedSubgraph(src, srcIDs)
	sub2, _ := graph.InducedSubgraph(dst, dstIDs)
	shardTr.Emit("shard_start", fmt.Sprintf("shard-%03d", i), map[string]any{
		"shard": i, "n_src": sub1.N(), "n_dst": sub2.N(),
	})

	t0 := time.Now()
	a, err := mk()
	if err != nil {
		return sm, err
	}
	run := shardTr.StartRun(a.Name(), map[string]any{
		"assign": string(method), "shard": i, "n_src": sub1.N(), "n_dst": sub2.N(),
	})
	res, err := algo.Run(ctx, a, sub1, sub2, algo.Plan{Method: method, TopK: opts.TopK, Workers: 1, Span: run})
	if err != nil {
		run.Set("err", err.Error())
	}
	run.End()
	wall := time.Since(t0)
	opts.Tracer.Registry().Histogram("partition_shard_seconds", obsv.DurationBuckets()).Observe(wall.Seconds())
	fields := map[string]any{"shard": i, "seconds": wall.Seconds()}
	if err != nil {
		fields["err"] = err.Error()
	}
	shardTr.Emit("shard_done", fmt.Sprintf("shard-%03d", i), fields)
	if err != nil {
		return sm, err
	}
	return ShardMapping{Src: srcIDs, Dst: dstIDs, Local: res.Mapping}, nil
}

// boundary returns the source nodes with at least one edge into another
// shard, in ascending order: the rows the refinement re-bids.
func boundary(src *graph.Graph, cp *CoPartition) []int {
	shardOf := make([]int, src.N())
	for s, members := range cp.SrcClusters {
		for _, u := range members {
			shardOf[u] = s
		}
	}
	var rows []int
	for u := range shardOf {
		for _, w := range src.Neighbors(u) {
			if shardOf[w] != shardOf[u] {
				rows = append(rows, u)
				break
			}
		}
	}
	return rows
}
