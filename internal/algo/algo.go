// Package algo defines the interface every alignment algorithm implements
// and the shared helpers for turning a node-similarity matrix into a final
// alignment. Concrete algorithms live in the subpackages (isorank, graal,
// nsd, lrea, regal, gwl, sgwl, cone, grasp).
//
// The paper factors every method into a similarity notion plus an
// assignment step (Section 3); this package mirrors that factoring so the
// experiment framework can pair any similarity with any assignment
// algorithm, exactly as the study's Section 6.2 does.
package algo

import (
	"context"
	"fmt"
	"time"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// Aligner is a graph alignment algorithm reduced to its similarity notion.
type Aligner interface {
	// Name returns the algorithm's short name as used in the paper.
	Name() string
	// Similarity computes the |V_src| x |V_dst| matrix of node-to-node
	// similarity scores (higher means more likely to correspond). It
	// observes cooperative cancellation: once ctx is done it returns
	// ctx.Err(), possibly wrapped, promptly. A ctx that is never cancelled
	// does not change the result.
	Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error)
	// DefaultAssignment is the extraction method proposed by the original
	// authors (Table 1's "Assign" column).
	DefaultAssignment() assign.Method
}

// Similarity computes a's similarity matrix under ctx, checking ctx before
// the call so that an already-cancelled run does no work at all.
func Similarity(ctx context.Context, a Aligner, src, dst *graph.Graph) (*matrix.Dense, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return a.Similarity(ctx, src, dst)
}

// ScoringAligner is optionally implemented by aligners whose similarity has
// a form the sparse pipeline can read row by row without materializing the
// dense |V_src| x |V_dst| matrix: an embedding distance kernel (REGAL, CONE,
// GRASP) or an explicit low-rank factor product (NSD, LREA). The returned
// scorer is private to the caller. The aligner's dense Similarity is the
// scorer's materialization (see Materialize), possibly memoized, so the two
// agree bitwise under the same ctx.
type ScoringAligner interface {
	ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error)
}

// Materialize returns the dense matrix of a's scorer on (src, dst): the
// Similarity of every ScoringAligner.
func Materialize(ctx context.Context, a ScoringAligner, src, dst *graph.Graph) (*matrix.Dense, error) {
	s, err := a.ScorerCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return s.Similarity(), nil
}

// IncrementalScorer is an optional refinement of ScoringAligner for
// evolving-target sessions (internal/incremental): RefreshScorerCtx
// recomputes the scorer of (src, dst) after target-side edits, reusing
// whatever internal state the previous call on the same pair lineage left
// behind, and restricting fresh target-side work to the nodes scope allows
// (nil = all; implementations whose terms are global may ignore it). The
// first call — or any call whose state no longer matches the inputs
// (different source graph, changed shape) — computes from scratch and is
// equivalent to ScorerCtx. When the target's fingerprint is unchanged since
// the previous call the result must be bitwise identical to the previous one
// (the noop-replay contract). Outside those cases the result may carry
// bounded staleness: rows whose inputs moved less than the implementation's
// refresh tolerance keep their previous values until the accumulated
// movement crosses it.
//
// Implementations keep per-instance state, so an instance used for refresh
// must not be shared across sessions. The returned scorer is of the same
// concrete type on every call and is a read-only view of that state, valid
// until the next call on the instance, which may patch it in place: a caller
// that keeps it past that point copies it (the session clones once, when it
// first takes a scorer or replaces it wholesale, and afterwards only reads
// the moved rows out of each view).
type IncrementalScorer interface {
	ScoringAligner
	RefreshScorerCtx(ctx context.Context, src, dst *graph.Graph, scope []bool) (assign.Scorer, error)
}

// Instrumented is optionally implemented by aligners that can report the
// inner phases of Similarity (eigendecompositions, optimal-transport
// recursions, power-iteration convergence) through an observability span.
// Run calls SetSpan with Plan.Span, the enclosing run's span, before
// invoking Similarity; with tracing disabled the span is nil, which is a
// valid value — obsv.Span methods no-op on nil, so implementations store
// and use it unconditionally.
type Instrumented interface {
	SetSpan(*obsv.Span)
}

// Cacheable is optionally implemented by aligners that can draw shared
// per-graph artifacts (degree vectors, Laplacians, spectral decompositions,
// embeddings) from the experiment-wide artifact cache instead of recomputing
// them. SetCache is called by the experiment runner before Similarity; a nil
// cache is valid and means "compute everything locally", so implementations
// store it unconditionally — every cache helper is nil-safe. Implementations
// must keep cached and uncached runs byte-identical: only pure functions of
// the cache key may be memoized, and shared values must never be mutated.
type Cacheable interface {
	SetCache(*cache.Cache)
}

// ApplyCache hands the artifact cache to a, if a supports one. Nil-safe in c.
func ApplyCache(a Aligner, c *cache.Cache) {
	if ca, ok := a.(Cacheable); ok {
		ca.SetCache(c)
	}
}

// Plan configures one alignment run.
type Plan struct {
	// Method is the assignment method; empty selects the aligner's
	// DefaultAssignment. Nearest-neighbor extractions are restricted to
	// one-to-one outputs, as the paper does for comparability.
	Method assign.Method
	// TopK, when positive, routes the assignment through the sparse
	// pipeline: the similarity is reduced to per-row top-k candidates — read
	// straight off the scorer of a ScoringAligner, so the dense matrix is
	// never materialized — and solved by the sparse variant of Method (exact
	// methods map to the ε-scaling auction with a dense-JV fallback when the
	// candidate graph leaves rows unmatchable; see assign.SolveSparse).
	// Zero keeps the dense solvers.
	TopK int
	// Workers bounds the sparse pipeline's parallel fan-out (0 = one per
	// CPU); the mapping is identical for any value.
	Workers int
	// Span, when non-nil, is the run span: the similarity and assign stages
	// become phases under it, Instrumented aligners record their inner
	// phases there, and the assignment metrics go to its tracer's registry.
	Span *obsv.Span
}

// Result is what Run reports besides the mapping's error.
type Result struct {
	// Mapping[u] is the target node aligned to source node u.
	Mapping []int
	// SimTime is the similarity computation alone — the paper's runtime
	// figures exclude assignment. AssignTime covers candidate generation
	// and the solve.
	SimTime, AssignTime time.Duration
	// Stats reports what the sparse pipeline did (zero on the dense path).
	Stats assign.SparseStats
}

// Run aligns src to dst with a: similarity followed by the assignment plan.
// ctx is threaded into the similarity loops and checked between
// the stages; the assignment solvers run to completion (they are polynomial
// in the already-computed similarity, never the hanging stage). Errors are
// prefixed with the failing stage, "similarity: " or "assignment: ".
func Run(ctx context.Context, a Aligner, src, dst *graph.Graph, plan Plan) (Result, error) {
	var res Result
	if src.N() > dst.N() {
		return res, fmt.Errorf("algo: source graph larger than target (%d > %d)", src.N(), dst.N())
	}
	if plan.Method == "" {
		plan.Method = a.DefaultAssignment()
	}
	if inst, ok := a.(Instrumented); ok {
		inst.SetSpan(plan.Span)
	}
	reg := plan.Span.Registry()

	sp := plan.Span.Phase("similarity")
	t0 := time.Now()
	var scorer assign.Scorer
	var err error
	if sa, ok := a.(ScoringAligner); ok && plan.TopK > 0 {
		sp.Set("factored", true)
		scorer, err = sa.ScorerCtx(ctx, src, dst)
	} else {
		var sim *matrix.Dense
		if sim, err = Similarity(ctx, a, src, dst); err == nil {
			scorer = assign.DenseScorer{Sim: sim}
		}
	}
	res.SimTime = time.Since(t0)
	sp.End()
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return res, fmt.Errorf("similarity: %w", err)
	}

	sp = plan.Span.Phase("assign")
	defer sp.End()
	sp.Set("method", string(plan.Method))
	sp.Set("size", src.N())
	reg.Histogram("lap_solve_size", obsv.SizeBuckets()).Observe(float64(src.N()))
	t1 := time.Now()
	if plan.TopK > 0 {
		sp.Set("topk", plan.TopK)
		cands := assign.TopK(scorer, plan.TopK, plan.Workers)
		res.Mapping, res.Stats, err = assign.SolveSparse(plan.Method, cands, scorer, plan.Workers)
		if err == nil {
			reg.Histogram("assign_candidates_per_row", obsv.SizeBuckets()).Observe(float64(res.Stats.CandidatesPerRow))
			reg.Histogram("assign_auction_rounds", obsv.SizeBuckets()).Observe(float64(res.Stats.Rounds))
			sp.Set("auction_rounds", res.Stats.Rounds)
			sp.Set("fallback", res.Stats.FellBack)
			if res.Stats.FellBack {
				reg.Counter("assign_fallbacks_total").Add(1)
			}
		}
	} else {
		sim := scorer.Similarity()
		res.Mapping, err = assign.Solve(plan.Method, sim)
		if err == nil && plan.Method == assign.NearestNeighbor {
			res.Mapping = assign.EnforceOneToOne(sim, res.Mapping)
		}
	}
	res.AssignTime = time.Since(t1)
	if err != nil {
		return Result{SimTime: res.SimTime, AssignTime: res.AssignTime}, fmt.Errorf("assignment: %w", err)
	}
	return res, nil
}

// DegreePrior computes the paper's degree-based prior similarity
// (Section 6.1) as a dense ns x nd matrix; entries are degreePriorEntry.
func DegreePrior(src, dst *graph.Graph) *matrix.Dense {
	e := matrix.NewDense(src.N(), dst.N())
	ddst := dst.Degrees()
	for i, du := range src.Degrees() {
		row := e.Row(i)
		for j, dv := range ddst {
			row[j] = degreePriorEntry(du, dv)
		}
	}
	return e
}

// degreePriorEntry is the Section 6.1 prior of a node pair with degrees du
// and dv: 1 - |du - dv| / max(du, dv). Isolated pairs (both degree zero)
// get similarity 1.
func degreePriorEntry(du, dv int) float64 {
	maxD := du
	if dv > maxD {
		maxD = dv
	}
	if maxD == 0 {
		return 1
	}
	diff := du - dv
	if diff < 0 {
		diff = -diff
	}
	return 1 - float64(diff)/float64(maxD)
}

// DegreeClassPrior is DegreePrior as a linear operator (linalg.Operator),
// factored by degree class. A prior row depends only on its source node's
// degree and a prior column only on its target node's, so the operator
// keeps one row per distinct source degree (Ds x nd) and one column per
// distinct target degree (Dd x ns): O((Ds+Dd)·n) memory where the dense
// prior takes ns·nd.
type DegreeClassPrior struct {
	srcClass, dstClass []int         // node -> degree class on each side
	rows               *matrix.Dense // Ds x nd: the prior row of each source class
	cols               *matrix.Dense // Dd x ns: the prior column of each target class
}

// NewDegreeClassPrior builds the class operator of the (src, dst) prior.
func NewDegreeClassPrior(src, dst *graph.Graph) *DegreeClassPrior {
	dsrc, ddst := src.Degrees(), dst.Degrees()
	srcClass, srcDegs := degreeClasses(dsrc)
	dstClass, dstDegs := degreeClasses(ddst)
	rows := matrix.NewDense(len(srcDegs), len(ddst))
	for c, du := range srcDegs {
		row := rows.Row(c)
		for j, dv := range ddst {
			row[j] = degreePriorEntry(du, dv)
		}
	}
	cols := matrix.NewDense(len(dstDegs), len(dsrc))
	for c, dv := range dstDegs {
		col := cols.Row(c)
		for i, du := range dsrc {
			col[i] = degreePriorEntry(du, dv)
		}
	}
	return &DegreeClassPrior{srcClass: srcClass, dstClass: dstClass, rows: rows, cols: cols}
}

// degreeClasses numbers the distinct values of deg in order of first
// appearance: class[i] is node i's class and degs[c] the degree of class c.
func degreeClasses(deg []int) (class, degs []int) {
	class = make([]int, len(deg))
	index := make(map[int]int)
	for i, d := range deg {
		c, ok := index[d]
		if !ok {
			c = len(degs)
			index[d] = c
			degs = append(degs, d)
		}
		class[i] = c
	}
	return class, degs
}

// Dims returns the prior's shape (ns, nd).
func (p *DegreeClassPrior) Dims() (int, int) { return len(p.srcClass), len(p.dstClass) }

// Mul returns prior·X (ns x p) for X (nd x p). Each source class's row is
// multiplied once and copied to every member of the class. matrix.Mul
// forms an output row from its input row alone, so every copy is bitwise
// the row DegreePrior·X holds.
func (p *DegreeClassPrior) Mul(x *matrix.Dense) *matrix.Dense {
	return expandClasses(matrix.Mul(p.rows, x), p.srcClass)
}

// MulT returns priorᵀ·Y (nd x p) for Y (ns x p), once per target class
// like Mul, bitwise DegreePrior(src, dst).T()·Y.
func (p *DegreeClassPrior) MulT(y *matrix.Dense) *matrix.Dense {
	return expandClasses(matrix.Mul(p.cols, y), p.dstClass)
}

// expandClasses returns the matrix whose row i is perClass's row class[i].
func expandClasses(perClass *matrix.Dense, class []int) *matrix.Dense {
	out := matrix.NewDense(len(class), perClass.Cols)
	for i, c := range class {
		copy(out.Row(i), perClass.Row(c))
	}
	return out
}

// DegreePriorCached is DegreePrior drawn through the artifact cache, keyed by
// the (src, dst) pair fingerprint; IsoRank reads it (NSD decomposes a
// DegreeClassPrior instead). The returned matrix is shared across the
// runs of a cell: treat it as READ-ONLY (clone before mutating, as IsoRank
// does before normalizing). A nil cache computes directly.
func DegreePriorCached(c *cache.Cache, src, dst *graph.Graph) *matrix.Dense {
	v, _ := c.GetOrCompute(context.Background(), cache.PairKey(src, dst)+"/degprior", func() (any, int64, error) {
		m := DegreePrior(src, dst)
		return m, cache.DenseBytes(m), nil
	})
	return v.(*matrix.Dense)
}

// NormalizeSim scales a similarity matrix so entries sum to one; useful for
// iterations that must preserve mass. No-op on an all-zero matrix.
func NormalizeSim(s *matrix.Dense) {
	sum := s.Sum()
	if sum != 0 {
		s.Scale(1 / sum)
	}
}
