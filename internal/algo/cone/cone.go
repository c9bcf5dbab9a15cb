// Package cone implements CONE-Align (Chen, Heimann, Vahedian, Koutra
// 2020): proximity-preserving node embeddings computed per graph, followed
// by embedding-subspace alignment that alternates a Wasserstein step
// (Sinkhorn) for the node correspondence P with a Procrustes step (SVD) for
// the orthogonal basis rotation Q (Equation 12 of the survey).
//
// Base embeddings use a NetMF-style factorization of the truncated
// random-walk proximity matrix, computed with this repository's own SVD
// (see DESIGN.md, substitution 5).
package cone

import (
	"context"
	"errors"
	"fmt"
	"math"

	"graphalign/internal/algo"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
	"graphalign/internal/ot"
)

// CONE aligns graphs by embedding-space alignment.
type CONE struct {
	// Dim is the embedding dimensionality (the study tunes 512 for large
	// graphs; it is clamped to n-1).
	Dim int
	// Window is the random-walk window of the NetMF proximity (original: 10).
	Window int
	// NegSamples is NetMF's negative sampling constant (original: 1).
	NegSamples float64
	// Iters is the number of Wasserstein/Procrustes alternations
	// (original: ~50, preceded by a short warm start).
	Iters int
	// SinkhornEps and SinkhornIters configure the Wasserstein step.
	SinkhornEps   float64
	SinkhornIters int

	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally. The NetMF embedding — the dominant per-graph cost
	// — is cached per (graph, Dim, Window, NegSamples), and the cache is
	// propagated into the NSD/REGAL warm starts so their similarities are
	// shared with standalone runs of those algorithms.
	cache *cache.Cache
}

// SetCache implements algo.Cacheable.
func (c *CONE) SetCache(ch *cache.Cache) { c.cache = ch }

// New returns CONE with the study's tuned hyperparameters (dim=512).
func New() *CONE {
	return &CONE{Dim: 512, Window: 10, NegSamples: 1, Iters: 20, SinkhornEps: 0.05, SinkhornIters: 50}
}

// Name implements algo.Aligner.
func (c *CONE) Name() string { return "CONE" }

// DefaultAssignment implements algo.Aligner; CONE extracts alignments by
// nearest neighbor over aligned embeddings.
func (c *CONE) DefaultAssignment() assign.Method { return assign.NearestNeighbor }

// EmbedCtx computes the NetMF-style proximity embedding of one graph.
// Cancellation is checked per random-walk window power and threaded into
// the factorization. With a cache attached the embedding is memoized per
// (graph, Dim, Window, NegSamples) — it is a deterministic function of
// those inputs — and a private clone is returned.
func (c *CONE) EmbedCtx(ctx context.Context, g *graph.Graph) (*matrix.Dense, error) {
	if c.cache == nil {
		return c.computeEmbed(ctx, g)
	}
	key := fmt.Sprintf("%s/coneemb/d%d/w%d/n%g", cache.GraphKey(g), c.Dim, c.Window, c.NegSamples)
	v, err := c.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		m, err := c.computeEmbed(ctx, g)
		if err != nil {
			return nil, 0, err
		}
		return m, cache.DenseBytes(m), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*matrix.Dense).Clone(), nil
}

// computeEmbed is the uncached NetMF embedding pipeline.
func (c *CONE) computeEmbed(ctx context.Context, g *graph.Graph) (*matrix.Dense, error) {
	n := g.N()
	if n == 0 {
		return nil, errors.New("cone: empty graph")
	}
	dim := c.Dim
	if dim > n-1 {
		dim = n - 1
	}
	if dim < 1 {
		dim = 1
	}
	window := c.Window
	if window < 1 {
		window = 1
	}
	// M = vol/(window*b) * (sum_{r=1..window} P^r) D^-1, entrywise
	// log(max(M, 1)).
	p := cache.RowNormalizedAdjacency(c.cache, g) // D^-1 A, shared: read-only
	// Accumulate powers times D^-1 densely (n x n); CONE's own
	// implementation does the same for exactness on benchmark-scale graphs.
	acc := matrix.NewDense(n, n)
	cur, next := p.ToDense(), matrix.NewDense(n, n)
	for r := 1; r <= window; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		acc.AddScaled(cur, 1)
		if r < window {
			p.MulDenseTo(next, cur)
			cur, next = next, cur
		}
	}
	vol := 2 * float64(g.M())
	coef := vol / (float64(window) * c.NegSamples)
	for i := 0; i < n; i++ {
		row := acc.Row(i)
		for j := 0; j < n; j++ {
			d := g.Degree(j)
			v := 0.0
			if d > 0 {
				v = coef * row[j] / float64(d)
			}
			if v < 1 {
				v = 1
			}
			row[j] = math.Log(v)
		}
	}
	// The NetMF matrix is symmetric, so its SVD comes cheaply from the
	// symmetric eigendecomposition.
	u, s, _, err := linalg.TopKSVDSymCtx(ctx, acc, dim)
	if err != nil {
		return nil, err
	}
	emb := matrix.NewDense(n, dim)
	for j := 0; j < dim; j++ {
		f := math.Sqrt(math.Max(s[j], 0))
		for i := 0; i < n; i++ {
			emb.Set(i, j, u.At(i, j)*f)
		}
	}
	// Row-normalize: CONE aligns directions of embeddings.
	for i := 0; i < n; i++ {
		matrix.Normalize(emb.Row(i))
	}
	return emb, nil
}

// AlignEmbeddingsCtx runs the alternating Wasserstein/Procrustes
// refinement and returns the rotated source embeddings alongside the target
// ones. The initial correspondence comes from the warmStart plan (the
// original's convex Frank–Wolfe initialization is replaced by a
// degree-prior plan — both serve only to break the orthogonal ambiguity
// between the two independently computed embeddings). Cancellation is
// checked once per alternation and threaded into the Sinkhorn rounds.
func (c *CONE) AlignEmbeddingsCtx(ctx context.Context, ySrc, yDst, warmStart *matrix.Dense) (*matrix.Dense, *matrix.Dense, error) {
	a := c.newAlternation(ySrc, yDst)
	if err := a.start(ctx, warmStart); err != nil {
		return nil, nil, err
	}
	if err := a.run(ctx, c.iters()); err != nil {
		return nil, nil, err
	}
	return a.rot, yDst, nil
}

// iters is the number of full alternation rounds, at least one.
func (c *CONE) iters() int {
	return max(c.Iters, 1)
}

// alternation is one Wasserstein/Procrustes alignment of ySrc onto yDst:
// the rotated source embeddings it refines, and the buffers every round
// overwrites, allocated once per alignment.
type alternation struct {
	ySrc, ySrcT, yDst *matrix.Dense
	mu, nu            []float64
	eps               float64
	sinkhornIters     int

	plan   *matrix.Dense // n1 x n2: squared distances, then in place their Sinkhorn plan
	target *matrix.Dense // n1 x d: n1 · P · Ydst
	cross  *matrix.Dense // d x d: Ysrcᵀ · target
	rot    *matrix.Dense // n1 x d: the rotated source embeddings
	polar  linalg.Polar  // the Procrustes step's d x d scratch
}

func (c *CONE) newAlternation(ySrc, yDst *matrix.Dense) *alternation {
	n1, n2, d := ySrc.Rows, yDst.Rows, ySrc.Cols
	return &alternation{
		ySrc: ySrc, ySrcT: ySrc.T(), yDst: yDst,
		mu: ot.UniformWeights(n1), nu: ot.UniformWeights(n2),
		eps: c.SinkhornEps, sinkhornIters: c.SinkhornIters,
		plan:   matrix.NewDense(n1, n2),
		target: matrix.NewDense(n1, d),
		cross:  matrix.NewDense(d, d),
		rot:    matrix.NewDense(n1, d),
	}
}

// start sets rot by one Procrustes step against the warm-start
// correspondence, or to ySrc itself when there is none.
func (a *alternation) start(ctx context.Context, warm *matrix.Dense) error {
	if warm == nil {
		copy(a.rot.Data, a.ySrc.Data)
		return nil
	}
	return a.procrustes(ctx, warm)
}

// run continues the alternation for rounds more rounds, updating rot in
// place.
func (a *alternation) run(ctx context.Context, rounds int) error {
	for it := 0; it < rounds; it++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		// Wasserstein step: transport between rotated source and target.
		matrix.PairwiseSqDistTo(a.plan, a.rot, a.yDst)
		if err := ot.SinkhornTo(ctx, a.plan, a.plan, a.mu, a.nu, a.eps, a.sinkhornIters); err != nil {
			return err
		}
		if err := a.procrustes(ctx, a.plan); err != nil {
			return err
		}
	}
	return nil
}

// procrustes sets rot = Ysrc Q for Q = argmin ||Ysrc Q - n1 P Ydst||, the
// polar factor of Ysrcᵀ (n1 P Ydst).
func (a *alternation) procrustes(ctx context.Context, p *matrix.Dense) error {
	matrix.MulTo(a.target, p, a.yDst).Scale(float64(a.ySrc.Rows))
	q, err := a.polar.Orthogonal(ctx, matrix.MulTo(a.cross, a.ySrcT, a.target))
	if err != nil {
		return err
	}
	matrix.MulTo(a.rot, a.ySrc, q)
	return nil
}

// pilotIters is the length of the pilot alternation that scores each warm
// start.
const pilotIters = 4

// alignFromWarmStarts runs a pilotIters-round pilot from every warm start,
// scores each by its mean nearest-neighbor distance, and returns the
// rotated source embeddings of the full alternation from the best one. That
// alternation's first pilotIters rounds are the winning pilot's, bit for
// bit, so it continues from the pilot instead of repeating them.
func (c *CONE) alignFromWarmStarts(ctx context.Context, ySrc, yDst *matrix.Dense, warms []*matrix.Dense) (*matrix.Dense, error) {
	a := c.newAlternation(ySrc, yDst)
	kept := matrix.NewDense(a.rot.Rows, a.rot.Cols) // the best pilot's rotation
	winner, bestObj := -1, math.Inf(1)
	for i, w := range warms {
		if err := a.start(ctx, w); err != nil {
			return nil, err
		}
		if err := a.run(ctx, pilotIters); err != nil {
			return nil, err
		}
		if obj := meanNNDistance(a.rot, yDst); obj < bestObj {
			winner, bestObj = i, obj
			a.rot, kept = kept, a.rot
		}
	}
	iters := c.iters()
	rounds := iters - pilotIters
	if winner >= 0 && rounds >= 0 {
		a.rot = kept
	} else {
		// A full alternation shorter than the pilot, or no pilot with a
		// finite score: restart from the chosen warm start.
		if err := a.start(ctx, warms[max(winner, 0)]); err != nil {
			return nil, err
		}
		rounds = iters
	}
	if err := a.run(ctx, rounds); err != nil {
		return nil, err
	}
	return a.rot, nil
}

// alignmentDim returns the number of leading embedding columns used for
// subspace alignment and matching: at most 128 (NetMF columns are ordered
// by singular value, so the leading block carries the structural signal and
// the Procrustes step costs O(d^3)), and at most a third of the node count.
// The second cap is what makes the warm start corrective rather than
// self-fulfilling: with d close to n, an orthogonal map exists that
// realizes ANY anchor correspondence exactly (the rotation memorizes the
// anchor, errors included); with d << n the rotation is over-constrained by
// the anchor's correct majority and the embedding geometry overrules its
// errors.
func alignmentDim(n int) int {
	d := n / 3
	if d > 128 {
		d = 128
	}
	if d < 8 {
		d = 8
	}
	return d
}

// Similarity implements algo.Aligner. The orthogonal ambiguity between the
// two independently computed embeddings is broken by a warm start (the
// original uses a convex Frank–Wolfe initialization for the same purpose):
// hard one-to-one correspondences obtained from cheap structural
// similarities (NSD, REGAL) are tried as Procrustes anchors, short pilot
// alternations score each candidate by its mean nearest-neighbor distance,
// and the full alternation continues from the winner. A partially correct
// anchor suffices — its correct mass dominates the rotation estimate while
// its errors average out.
//
// ctx reaches the embedding factorizations, the warm-start similarities,
// and every pilot and full alternation round.
func (c *CONE) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	return algo.Materialize(ctx, c, src, dst)
}

// ScorerCtx implements algo.ScoringAligner: the subspace-aligned
// embeddings in factored form with the exp(-d²) kernel CONE shares with
// REGAL, for the sparse assignment pipeline's k-NN candidate search.
// Similarity materializes it.
func (c *CONE) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	rot, yd, err := c.alignedEmbeddingsCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return &assign.Embedding{Src: rot, Dst: yd, SimFromDist2: regal.ExpKernel}, nil
}

// alignedEmbeddingsCtx runs the full CONE pipeline up to (but excluding) the
// dense similarity materialization: per-graph embeddings, common-space
// padding and truncation, warm-start selection, and the Wasserstein/
// Procrustes alternation. Returns the rotated source embeddings and the
// target embeddings.
func (c *CONE) alignedEmbeddingsCtx(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, *matrix.Dense, error) {
	ySrc, yDst, err := c.subspaceEmbeddings(ctx, src, dst)
	if err != nil {
		return nil, nil, err
	}
	warms, err := c.warmStarts(ctx, src, dst)
	if err != nil {
		return nil, nil, err
	}
	rot, err := c.alignFromWarmStarts(ctx, ySrc, yDst, warms)
	if err != nil {
		return nil, nil, err
	}
	return rot, yDst, nil
}

// subspaceEmbeddings returns both graphs' embeddings in the common
// alignment subspace: the smaller one padded with zero columns so
// Procrustes operates in a common space, then both truncated to
// alignmentDim columns.
func (c *CONE) subspaceEmbeddings(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, *matrix.Dense, error) {
	ySrc, err := c.EmbedCtx(ctx, src)
	if err != nil {
		return nil, nil, err
	}
	yDst, err := c.EmbedCtx(ctx, dst)
	if err != nil {
		return nil, nil, err
	}
	if ySrc.Cols != yDst.Cols {
		d := ySrc.Cols
		if yDst.Cols > d {
			d = yDst.Cols
		}
		ySrc = padCols(ySrc, d)
		yDst = padCols(yDst, d)
	}
	if d := alignmentDim(minInt(src.N(), dst.N())); ySrc.Cols > d {
		ySrc = leadingCols(ySrc, d)
		yDst = leadingCols(yDst, d)
	}
	return ySrc, yDst, nil
}

// warmStarts builds the candidate anchor plans: hard JV matchings of the
// NSD and REGAL similarities, as transport-plan-shaped matrices.
func (c *CONE) warmStarts(ctx context.Context, src, dst *graph.Graph) ([]*matrix.Dense, error) {
	var out []*matrix.Dense
	nsdAligner := nsd.New()
	nsdAligner.SetCache(c.cache)
	nsdSim, err := nsdAligner.Similarity(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	out = append(out, permutationPlan(assign.SolveJV(nsdSim), dst.N()))
	regalAligner := regal.New()
	regalAligner.SetCache(c.cache)
	regalSim, err := regalAligner.Similarity(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	out = append(out, permutationPlan(assign.SolveJV(regalSim), dst.N()))
	return out, nil
}

// permutationPlan lifts a hard mapping into a transport plan with uniform
// mass on the matched pairs.
func permutationPlan(mapping []int, cols int) *matrix.Dense {
	n := len(mapping)
	w := matrix.NewDense(n, cols)
	if n == 0 {
		return w
	}
	mass := 1 / float64(n)
	for i, j := range mapping {
		if j >= 0 && j < cols {
			w.Set(i, j, mass)
		}
	}
	return w
}

// leadingCols returns the first k columns as a new matrix with rows
// re-normalized (Embed normalizes full-dimension rows).
func leadingCols(m *matrix.Dense, k int) *matrix.Dense {
	out := matrix.NewDense(m.Rows, k)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i), m.Row(i)[:k])
		matrix.Normalize(out.Row(i))
	}
	return out
}

// meanNNDistance is the pilot-selection objective: the mean squared
// distance from each aligned source row to its nearest target row.
func meanNNDistance(a, b *matrix.Dense) float64 {
	if a.Rows == 0 {
		return 0
	}
	var total float64
	dist := make([]float64, b.Rows)
	for i := 0; i < a.Rows; i++ {
		matrix.SqDistInto(dist, a.Row(i), b)
		best := math.Inf(1)
		for _, d2 := range dist {
			if d2 < best {
				best = d2
			}
		}
		total += best
	}
	return total / float64(a.Rows)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func padCols(m *matrix.Dense, cols int) *matrix.Dense {
	if m.Cols == cols {
		return m
	}
	out := matrix.NewDense(m.Rows, cols)
	for i := 0; i < m.Rows; i++ {
		copy(out.Row(i)[:m.Cols], m.Row(i))
	}
	return out
}
