package partition

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/obsv"
	"graphalign/internal/parallel"
)

// Options configure one partitioned alignment. Only K is required; every
// observability field is nil-safe, so the zero value plus K is a working
// configuration.
type Options struct {
	// K is the requested shard count (clamped to min(n_src, n_dst)).
	K int
	// Workers bounds the shard-level parallel fan-out and the refinement
	// auction's bidding fan-out; 0 means one per CPU. The result is
	// identical for any value.
	Workers int
	// TopK, when positive, routes each shard's assignment through the
	// sparse candidate pipeline (algo.Plan.TopK) instead of the dense
	// solvers — the composition that keeps large shards subquadratic.
	TopK int
	// ShardBudget bounds each shard's wall clock (0 = none). A shard over
	// budget fails the whole run with a context.DeadlineExceeded-wrapping
	// error, which the core runner classifies as a run timeout.
	ShardBudget time.Duration
	// RefineRounds caps the boundary-refinement passes; 0 means the
	// default of 2, negative disables refinement.
	RefineRounds int
	// BoundaryFrac caps the boundary re-bid set at this fraction of the
	// source nodes (0 means the default of 1.0: every node with a
	// cross-shard edge is re-bid). Lowering it bounds the refinement
	// auction's cost on graphs where signature chunks cut through many
	// edges, at a measurable accuracy cost — on a relabel-only instance the
	// full re-bid recovers the monolithic mapping almost exactly, while a
	// 1/8 cap leaves most of the boundary loss in place.
	BoundaryFrac float64
	// Tracer, when non-nil, gives each shard a per-shard child trace:
	// shard_start / shard_done events around a run span holding the shard's
	// similarity and assign phases, so a daemon job's progress stream shows
	// shards as they complete and a trace shows where each shard's time went.
	Tracer *obsv.Tracer
	// Span, when non-nil, is the enclosing run span; the partition, shard,
	// stitch and refine stages become phases under it.
	Span *obsv.Span
	// Registry receives the partition_* metrics; nil disables them.
	Registry *obsv.Registry
}

// Stats reports what a partitioned alignment did.
type Stats struct {
	// Shards is the effective shard count.
	Shards int
	// BoundaryNodes is the size of the cross-partition re-bid set.
	BoundaryNodes int
	// RefineRounds is the number of boundary-refinement auction rounds
	// whose outcome was applied.
	RefineRounds int
	// Rebound counts boundary nodes whose target changed during refinement.
	Rebound int
	// AlignTime is the wall clock of co-partitioning plus the parallel
	// shard alignments; StitchTime covers stitching and refinement. The
	// core runner reports them as the run's similarity/assignment split.
	AlignTime  time.Duration
	StitchTime time.Duration
}

const (
	defaultRefineRounds = 2
	defaultBoundaryFrac = 1.0
	refineCandidates    = 8
)

// Align runs the full partition-align-stitch pipeline: co-partition src and
// dst into matched shard pairs (Graphs), align every pair independently on
// the parallel pool — each shard with its own freshly built aligner from mk,
// inheriting ctx, an optional per-shard budget, panic isolation and a child
// trace — then stitch the shard mappings (Stitch) and re-bid the
// cross-partition boundary nodes through the auction solver (refine).
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
	reg := opts.Registry
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

	if opts.RefineRounds >= 0 && k > 1 {
		sp = opts.Span.Phase("refine")
		boundary, rounds, moved := refine(ctx, src, dst, cp, mapping, opts)
		sp.Set("boundary_nodes", boundary)
		sp.Set("rounds", rounds)
		sp.Set("moved", moved)
		sp.End()
		st.BoundaryNodes, st.RefineRounds, st.Rebound = boundary, rounds, moved
		reg.Histogram("partition_boundary_nodes", obsv.SizeBuckets()).Observe(float64(boundary))
		reg.Histogram("partition_refine_rounds", obsv.SizeBuckets()).Observe(float64(rounds))
		reg.Counter("partition_rebid_moves_total").Add(int64(moved))
	}
	st.StitchTime = time.Since(t1)
	return mapping, st, nil
}

// alignShard aligns one shard pair with a fresh aligner. The shard inherits
// ctx (optionally tightened by ShardBudget), runs under its own child trace,
// and recovers its own panics — a crashing inner aligner fails the run, not
// the process, because parallel pool goroutines have no recovery of their
// own.
func alignShard(ctx context.Context, mk func() (algo.Aligner, error), src, dst *graph.Graph, srcIDs, dstIDs []int, method assign.Method, opts Options, i int) (sm ShardMapping, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("partition: inner aligner panicked: %v", r)
		}
	}()
	if opts.ShardBudget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.ShardBudget)
		defer cancel()
	}
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
	opts.Registry.Histogram("partition_shard_seconds", obsv.DurationBuckets()).Observe(wall.Seconds())
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

// refine re-bids the cross-partition boundary nodes through the auction
// solver. Boundary nodes are source nodes with at least one edge into
// another shard, ranked by cross-shard degree (ties to the lower id) and
// capped at BoundaryFrac of the source graph. Each boundary node bids over
// the targets its matched neighborhood points at — for candidate v, the
// score is the number of neighbors w of u with mapping[w] adjacent to v,
// plus a small stability bonus for its current target and a degree-prior
// tie-break — restricted to targets that are unassigned or owned by other
// boundary nodes, so non-boundary assignments are never disturbed. A round
// is applied only when it strictly improves the total neighborhood
// agreement of the re-bid set; refinement stops at the first non-improving
// or fixed-point round.
func refine(ctx context.Context, src, dst *graph.Graph, cp *CoPartition, mapping []int, opts Options) (boundarySize, rounds, moved int) {
	n1, n2 := src.N(), dst.N()
	shardOf := make([]int, n1)
	for s, members := range cp.SrcClusters {
		for _, u := range members {
			shardOf[u] = s
		}
	}
	type bnode struct{ u, cross int }
	var bn []bnode
	for u := 0; u < n1; u++ {
		cross := 0
		for _, w := range src.Neighbors(u) {
			if shardOf[w] != shardOf[u] {
				cross++
			}
		}
		if cross > 0 {
			bn = append(bn, bnode{u, cross})
		}
	}
	slices.SortFunc(bn, func(a, b bnode) int {
		if a.cross != b.cross {
			return cmp.Compare(b.cross, a.cross)
		}
		return cmp.Compare(a.u, b.u)
	})
	frac := opts.BoundaryFrac
	if frac <= 0 {
		frac = defaultBoundaryFrac
	}
	limit := int(frac * float64(n1))
	if limit < 1 {
		limit = 1
	}
	if len(bn) > limit {
		bn = bn[:limit]
	}
	if len(bn) == 0 {
		return 0, 0, 0
	}
	rows := make([]int, len(bn))
	for i, b := range bn {
		rows[i] = b.u
	}
	slices.Sort(rows)
	boundarySize = len(rows)
	inB := make([]bool, n1)
	for _, u := range rows {
		inB[u] = true
	}

	maxRounds := opts.RefineRounds
	if maxRounds == 0 {
		maxRounds = defaultRefineRounds
	}
	deg1, deg2 := src.Degrees(), dst.Degrees()

	// Scratch reused across rounds. poolStamp marks pool membership with
	// the round number, so neither it nor colOf is cleared between rounds.
	owner := make([]int, n2)
	candBuf := make([]refineCand, len(rows)*refineCandidates)
	rowCands := make([][]refineCand, len(rows))
	poolStamp := make([]int, n2)
	colOf := make([]int, n2)
	var live, pool []int

	for round := 0; round < maxRounds; round++ {
		if ctx.Err() != nil {
			return boundarySize, rounds, moved
		}
		for v := range owner {
			owner[v] = -1
		}
		for u, v := range mapping {
			if v >= 0 {
				owner[v] = u
			}
		}

		// Per-row candidate scoring in contiguous row blocks. Each block
		// accumulates agreement counts in its own n2-length scratch, reset
		// through the touched list, and keeps a row's best candidates in
		// that row's fixed slots of candBuf.
		parallel.Blocks(opts.Workers, len(rows), func(lo, hi int) {
			acc := make([]float64, n2)
			seen := make([]bool, n2)
			var touched []int
			for r := lo; r < hi; r++ {
				u := rows[r]
				touched = touched[:0]
				for _, w := range src.Neighbors(u) {
					t := mapping[w]
					if t < 0 {
						continue
					}
					for _, v := range dst.Neighbors(t) {
						if owner[v] == -1 || inB[owner[v]] {
							if !seen[v] {
								seen[v] = true
								touched = append(touched, v)
							}
							acc[v]++
						}
					}
				}
				cur := mapping[u]
				if cur >= 0 && !seen[cur] {
					seen[cur] = true
					touched = append(touched, cur)
				}
				top := candBuf[r*refineCandidates : r*refineCandidates : (r+1)*refineCandidates]
				for _, v := range touched {
					a := acc[v]
					score := a + 0.25/(1+absInt(deg1[u]-deg2[v]))
					if v == cur {
						score += 0.5
					}
					top = insertCand(top, refineCand{v: v, score: score, agree: a})
					acc[v] = 0
					seen[v] = false
				}
				rowCands[r] = top
			}
		})

		// Rows with no candidates keep their assignment and sit the auction
		// out; the remaining rows bid over the union of their candidates.
		stamp := round + 1
		live, pool = live[:0], pool[:0]
		addPool := func(v int) {
			if poolStamp[v] != stamp {
				poolStamp[v] = stamp
				pool = append(pool, v)
			}
		}
		for r, cands := range rowCands {
			if len(cands) == 0 {
				continue
			}
			live = append(live, r)
			for _, c := range cands {
				addPool(c.v)
			}
		}
		if len(live) == 0 {
			return boundarySize, rounds, moved
		}
		// The auction needs Rows <= Cols. Grow the pool first with the live
		// rows' own current targets (they are freed when the round is
		// applied, so reassigning them keeps the mapping injective), then
		// with unowned targets; since n2 >= n1 this always reaches
		// |pool| >= |live|, so the guard below is purely defensive.
		for _, r := range live {
			if v := mapping[rows[r]]; v >= 0 {
				addPool(v)
			}
		}
		for v := 0; v < n2 && len(pool) < len(live); v++ {
			if owner[v] == -1 {
				addPool(v)
			}
		}
		if len(pool) < len(live) {
			return boundarySize, rounds, moved
		}
		slices.Sort(pool)
		for j, v := range pool {
			colOf[v] = j
		}

		kk := refineCandidates
		if len(pool) < kk {
			kk = len(pool)
		}
		c := &assign.Candidates{
			Rows: len(live), Cols: len(pool), K: kk,
			Col: make([]int, len(live)*kk),
			Val: make([]float64, len(live)*kk),
			Len: make([]int, len(live)),
		}
		for li, r := range live {
			cands := rowCands[r]
			if len(cands) > kk {
				cands = cands[:kk]
			}
			c.Len[li] = len(cands)
			for ci, cd := range cands {
				c.Col[li*kk+ci] = colOf[cd.v]
				c.Val[li*kk+ci] = cd.score
			}
			for ci := len(cands); ci < kk; ci++ {
				c.Col[li*kk+ci] = -1
			}
		}
		sol, _, _, ok := assign.SolveAuction(c, opts.Workers)
		if !ok {
			// The candidate graph left some row unmatchable; fall back to the
			// deterministic sparse greedy, which always yields an injective
			// assignment. The acceptance gate below still protects quality.
			sol = assign.SolveGreedySparse(c)
		}

		// One-step acceptance on the pure agreement objective, measured
		// against the mapping the bids were computed from.
		agreeOf := func(r, v int) float64 {
			if v < 0 {
				return 0
			}
			for _, cd := range rowCands[r] {
				if cd.v == v {
					return cd.agree
				}
			}
			return 0
		}
		var before, after float64
		changed := 0
		for li, r := range live {
			oldV := mapping[rows[r]]
			newV := -1
			if sol[li] >= 0 {
				newV = pool[sol[li]]
			}
			before += agreeOf(r, oldV)
			after += agreeOf(r, newV)
			if newV != oldV {
				changed++
			}
		}
		if after <= before || changed == 0 {
			return boundarySize, rounds, moved
		}
		for _, r := range live {
			mapping[rows[r]] = -1
		}
		for li, r := range live {
			if sol[li] >= 0 {
				mapping[rows[r]] = pool[sol[li]]
			}
		}
		rounds++
		moved += changed
	}
	return boundarySize, rounds, moved
}

// refineCand is one scored boundary-refinement candidate.
type refineCand struct {
	v     int
	score float64 // composite bid value
	agree float64 // pure neighborhood agreement (the objective)
}

// candBefore is the candidate order: score descending, ties to the lower
// target. It is total, so keeping the first refineCandidates under it
// equals sorting every candidate and taking the prefix.
func candBefore(a, b refineCand) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	return a.v < b.v
}

// insertCand inserts c into top, which is kept in candBefore order, and
// drops the last element once len(top) reaches cap(top).
func insertCand(top []refineCand, c refineCand) []refineCand {
	i := len(top)
	if i < cap(top) {
		top = top[:i+1]
	} else if !candBefore(c, top[i-1]) {
		return top
	} else {
		i--
	}
	for ; i > 0 && candBefore(c, top[i-1]); i-- {
		top[i] = top[i-1]
	}
	top[i] = c
	return top
}

func absInt(x int) float64 {
	if x < 0 {
		x = -x
	}
	return float64(x)
}
