// Package regal implements REGAL (Heimann, Shen, Safavi, Koutra 2018):
// representation-learning-based graph alignment via the xNetMF embedding.
//
// Each node gets a structural signature counting the log-bucketed degrees
// of its k-hop neighborhoods with discount delta (Equation 8). Signatures
// from both graphs are embedded jointly with a Nyström-style low-rank
// factorization against p random landmark nodes (p = 10 log2 n), and
// alignments are extracted by nearest-neighbor search over the embeddings
// (Equation 10), here one-to-one as the study requires.
package regal

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
)

// REGAL aligns graphs via xNetMF structural embeddings.
type REGAL struct {
	// K is the maximum hop distance of the structural signature (paper: 2).
	K int
	// Delta is the per-hop discount factor (paper's default 0.01... the
	// study keeps the original 0.1 scaling of far neighborhoods).
	Delta float64
	// GammaStruc weighs structural distance in the similarity kernel.
	GammaStruc float64
	// LandmarksFactor scales the landmark count p = factor * log2(n)
	// (paper: 10).
	LandmarksFactor float64
	// Seed drives landmark sampling.
	Seed int64
	// RefreshTol bounds the relative structural-signature drift
	// RefreshScorerCtx absorbs without reprojecting a node: a node whose
	// signature moved by at most this relative amount keeps its previous
	// embedding row bitwise. 0 reprojects on any change (exact signatures,
	// still incremental); the algo.IncrementalScorer contract allows the
	// bounded staleness a positive tolerance introduces.
	RefreshTol float64

	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally. REGAL's embedding is joint over the (src, dst)
	// pair (shared landmarks), so the whole similarity matrix — a
	// deterministic function of (pair, params) — is the cached unit; this
	// also lets CONE's REGAL warm start share it.
	cache *cache.Cache

	// state is the last full pipeline capture RefreshScorerCtx patches
	// incrementally; nil until the first refresh call. Instances used through
	// the refresher carry pair-specific state and must not be shared
	// (algo.IncrementalScorer's contract).
	state *refreshState
}

// SetCache implements algo.Cacheable.
func (r *REGAL) SetCache(c *cache.Cache) { r.cache = c }

// New returns REGAL with the study's tuned hyperparameters (k=2,
// p = 10 log n).
func New() *REGAL {
	return &REGAL{K: 2, Delta: 0.1, GammaStruc: 1, LandmarksFactor: 10, Seed: 1, RefreshTol: 1e-2}
}

// Name implements algo.Aligner.
func (r *REGAL) Name() string { return "REGAL" }

// DefaultAssignment implements algo.Aligner; REGAL extracts alignments by
// nearest neighbor.
func (r *REGAL) DefaultAssignment() assign.Method { return assign.NearestNeighbor }

// EmbedCtx computes xNetMF embeddings for both graphs jointly and returns
// the two embedding matrices (rows are nodes). Cancellation is checked
// between the signature, kernel, and factorization stages and threaded
// into the eigensolve.
func (r *REGAL) EmbedCtx(ctx context.Context, src, dst *graph.Graph) (ySrc, yDst *matrix.Dense, err error) {
	st, err := r.embedState(ctx, src, dst)
	if err != nil {
		return nil, nil, err
	}
	return st.ySrc, st.yDst, nil
}

// bucketCount is the number of log-degree histogram buckets for a given
// maximum degree (Equation 8's log binning).
func bucketCount(maxDeg int) int {
	buckets := int(math.Log2(float64(maxDeg))) + 1
	if buckets < 1 {
		buckets = 1
	}
	return buckets
}

// signer computes one graph's structural signature rows, reusing one hop
// walker and each node's log-degree bucket across rows. Not safe for
// concurrent use.
type signer struct {
	walk   *graph.HopWalker
	bucket []int // bucket[v]: v's log-degree histogram bucket, -1 if isolated
	k      int
	delta  float64
}

// newSigner returns the signer of g's rows for a histogram of buckets
// buckets. Each node's bucket is int(log2(degree)) capped at buckets-1,
// evaluated once here rather than once per visit.
func (r *REGAL) newSigner(g *graph.Graph, buckets int) *signer {
	s := &signer{walk: graph.NewHopWalker(g), bucket: make([]int, g.N()), k: r.K, delta: r.Delta}
	for v := range s.bucket {
		d := g.Degree(v)
		if d < 1 {
			s.bucket[v] = -1
			continue
		}
		b := int(math.Log2(float64(d)))
		if b >= buckets {
			b = buckets - 1
		}
		s.bucket[v] = b
	}
	return s
}

// row writes node u's structural signature — the delta-discounted
// log-bucketed degree histogram of its k-hop neighborhoods — into row,
// zeroing it first. Every node of one hop adds the same weight and hops run
// in ascending order, so the row is bitwise the same for any order within a
// hop, and recomputed rows are bitwise comparable against stored ones.
func (s *signer) row(u int, row []float64) {
	clear(row)
	w := 1.0
	for _, hop := range s.walk.Hops(u, s.k) {
		for _, v := range hop {
			if b := s.bucket[v]; b >= 0 {
				row[b] += w
			}
		}
		w *= s.delta
	}
}

// regalSim is the landmark similarity kernel exp(-gamma·||sig_i - sig_l||²)
// through matrix.SqDist, so refreshed C entries reproduce the full
// pipeline's values bitwise.
func regalSim(sig *matrix.Dense, i, l int, gamma float64) float64 {
	return math.Exp(-gamma * matrix.SqDist(sig.Row(i), sig.Row(l)))
}

// projectBlock is the most rows project holds in its landmark-kernel and
// product scratch at once.
const projectBlock = 64

// project writes the embedding row of each joint node index in rows
// (source nodes below n1, target nodes from n1 on) into its row of ySrc or
// yDst: the node's landmark-kernel row C_i against the current signatures,
// times the Nyström projection through matrix.MulTo, normalized. Rows go
// through in blocks of at most projectBlock, so neither the (n1+n2)×p kernel
// C nor the product C·scaled is ever materialized. MulTo computes each
// output row on its own (the nonzero k in ascending order, from +0), so a
// block's rows are bitwise those of the full product. Cancellation is
// checked once per block.
func (st *refreshState) project(ctx context.Context, rows []int, gamma float64) error {
	p, rank := len(st.landmarks), st.scaled.Cols
	b := min(len(rows), projectBlock)
	c := matrix.NewDense(b, p)
	y := matrix.NewDense(b, rank)
	for lo := 0; lo < len(rows); lo += projectBlock {
		if err := ctx.Err(); err != nil {
			return err
		}
		blk := rows[lo:min(lo+projectBlock, len(rows))]
		cb := &matrix.Dense{Rows: len(blk), Cols: p, Data: c.Data[:len(blk)*p]}
		for k, i := range blk {
			row := cb.Row(k)
			for j, l := range st.landmarks {
				row[j] = regalSim(st.sig, i, l, gamma)
			}
		}
		yb := matrix.MulTo(&matrix.Dense{Rows: len(blk), Cols: rank, Data: y.Data[:len(blk)*rank]}, cb, st.scaled)
		for k, i := range blk {
			var out []float64
			if i < st.n1 {
				out = st.ySrc.Row(i)
			} else {
				out = st.yDst.Row(i - st.n1)
			}
			copy(out, yb.Row(k))
			matrix.Normalize(out)
		}
	}
	return nil
}

// embedState runs the full xNetMF pipeline and returns every intermediate
// the incremental refresher needs alongside the embeddings: the joint
// signature matrix, the landmark set, and the Nyström projection. EmbedCtx
// uses it as the plain batch path; RefreshScorerCtx keeps the returned
// state on the instance and patches it in place across edit batches.
func (r *REGAL) embedState(ctx context.Context, src, dst *graph.Graph) (*refreshState, error) {
	n1, n2 := src.N(), dst.N()
	if n1 == 0 || n2 == 0 {
		return nil, errors.New("regal: empty graph")
	}
	total := n1 + n2
	maxDeg := src.MaxDegree()
	if d := dst.MaxDegree(); d > maxDeg {
		maxDeg = d
	}
	buckets := bucketCount(maxDeg)
	sig := matrix.NewDense(total, buckets)
	srcSig := r.newSigner(src, buckets)
	for u := 0; u < n1; u++ {
		srcSig.row(u, sig.Row(u))
	}
	dstSig := r.newSigner(dst, buckets)
	for u := 0; u < n2; u++ {
		dstSig.row(u, sig.Row(n1+u))
	}

	// Landmark selection over the union.
	p := int(r.LandmarksFactor*math.Log2(float64(total))) + 1
	if p > total {
		p = total
	}
	rng := rand.New(rand.NewSource(r.Seed))
	landmarks := rng.Perm(total)[:p]

	// W: landmark-to-landmark similarity.
	w := matrix.NewDense(p, p)
	for a, la := range landmarks {
		for b, lb := range landmarks {
			w.Set(a, b, regalSim(sig, la, lb, r.GammaStruc))
		}
	}
	// Nyström: S ~ C W† Cᵀ, so Y = C·Q_r·|Λ_r|^-1/2 from the eigenpairs of
	// the symmetric kernel W = QΛQᵀ. W's singular values are the |λ|, so
	// the pseudo-inverse cutoff keeps |λ| > 1e-10·max|λ|, and the columns
	// run in ascending |λ|, the order of W†'s singular values. The width is
	// W's numerical rank r ≤ p.
	vals, q, err := linalg.SymEigenCtx(ctx, w)
	if err != nil {
		return nil, err
	}
	lmax := 0.0
	for _, v := range vals {
		lmax = math.Max(lmax, math.Abs(v))
	}
	var keep []int
	for k, v := range vals {
		if math.Abs(v) > 1e-10*lmax {
			keep = append(keep, k)
		}
	}
	sort.SliceStable(keep, func(a, b int) bool { return math.Abs(vals[keep[a]]) < math.Abs(vals[keep[b]]) })
	rank := len(keep)
	scaled := matrix.NewDense(p, rank)
	for j, k := range keep {
		f := 1 / math.Sqrt(math.Abs(vals[k]))
		for i := 0; i < p; i++ {
			scaled.Set(i, j, q.At(i, k)*f)
		}
	}
	st := &refreshState{
		srcKey: cache.GraphKey(src), dstKey: cache.GraphKey(dst),
		n1: n1, n2: n2, buckets: buckets,
		sig: sig, landmarks: landmarks, scaled: scaled,
		ySrc: matrix.NewDense(n1, rank), yDst: matrix.NewDense(n2, rank),
	}
	// Y = C·scaled, row-normalized as xNetMF does before matching; C is
	// the node-to-landmark similarity.
	rows := make([]int, total)
	for i := range rows {
		rows[i] = i
	}
	if err := st.project(ctx, rows, r.GammaStruc); err != nil {
		return nil, err
	}
	return st, nil
}

// Similarity implements algo.Aligner: sim(u, v) = exp(-||y_u - y_v||²),
// the materialization of ScorerCtx's embedding. With a cache attached the
// whole similarity matrix is memoized per (pair, params) and a private clone
// is returned, so callers stay free to mutate it: densifying costs more
// than the embedding itself.
func (r *REGAL) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	if r.cache == nil {
		return algo.Materialize(ctx, r, src, dst)
	}
	key := fmt.Sprintf("%s/regalsim/k%d/d%g/g%g/l%g/s%d", cache.PairKey(src, dst), r.K, r.Delta, r.GammaStruc, r.LandmarksFactor, r.Seed)
	v, err := r.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		m, err := algo.Materialize(ctx, r, src, dst)
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

// ScorerCtx implements algo.ScoringAligner: the xNetMF embeddings in
// factored form with REGAL's exp(-d²) kernel, for the sparse assignment
// pipeline's k-NN candidate search; Similarity materializes it. With a
// cache attached the embedding pair is memoized per
// (pair, params) — sharing the dominant cost across assignment methods and
// reps — and private clones are returned.
func (r *REGAL) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	ySrc, yDst, err := r.embedCached(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return &assign.Embedding{Src: ySrc, Dst: yDst, SimFromDist2: ExpKernel}, nil
}

// embedCached is EmbedCtx drawn through the artifact cache (private clones
// returned); a nil cache computes directly.
func (r *REGAL) embedCached(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, *matrix.Dense, error) {
	if r.cache == nil {
		return r.EmbedCtx(ctx, src, dst)
	}
	key := fmt.Sprintf("%s/regalemb/k%d/d%g/g%g/l%g/s%d", cache.PairKey(src, dst), r.K, r.Delta, r.GammaStruc, r.LandmarksFactor, r.Seed)
	v, err := r.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		ySrc, yDst, err := r.EmbedCtx(ctx, src, dst)
		if err != nil {
			return nil, 0, err
		}
		return [2]*matrix.Dense{ySrc, yDst}, cache.DenseBytes(ySrc) + cache.DenseBytes(yDst), nil
	})
	if err != nil {
		return nil, nil, err
	}
	pairY := v.([2]*matrix.Dense)
	return pairY[0].Clone(), pairY[1].Clone(), nil
}

// ExpKernel is the distance-to-similarity map REGAL and CONE extract
// alignments with: sim = exp(-d²). Monotone non-increasing, as the sparse
// candidate search requires.
func ExpKernel(d2 float64) float64 { return math.Exp(-d2) }
