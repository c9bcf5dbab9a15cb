// Package lrea implements Low-Rank EigenAlign (Nassar, Veldt, Mohammadi,
// Grama, Gleich 2018). The EigenAlign similarity matrix is the dominant
// eigenvector of
//
//	M = c1 (A ⊗ B) + c2 (A ⊗ E) + c2 (E ⊗ B) + c3 (E ⊗ E)
//
// where E is all-ones; the weights c1, c2, c3 encode the scores of
// overlaps, non-informative pairs, and conflicts. LREA's insight is that
// power iteration on M, viewed as the matrix map
//
//	X <- c1 A X Bᵀ + c2 A X Eᵀ + c2 E X Bᵀ + c3 E X Eᵀ,
//
// keeps X in factored low-rank form: each iteration adds only three
// rank-one terms because E X Eᵀ, A X Eᵀ and E X Bᵀ are rank one. This
// package maintains X as an explicit list of (u, v) rank-one factors and
// only densifies at the very end, exactly mirroring the published
// algorithm's low-rank structure.
package lrea

import (
	"context"
	"errors"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// LREA aligns graphs by low-rank spectral relaxation of the quadratic
// assignment objective.
type LREA struct {
	// Iters is the number of power iterations (the paper's "iterations=40"
	// hyperparameter; each adds 3 rank-one terms).
	Iters int
	// OverlapWeight (sO), BaselineWeight (sN) and ConflictPenalty (sC) are
	// EigenAlign's scores for overlapping, non-informative and conflicting
	// edge pairs; they must satisfy sO > sN > sC > 0. When all are zero the
	// published defaults (sO=2, sN=1, sC=0.001) apply. Internally M is
	// expanded as
	//
	//	M = (sO - 2 sC + sN) A⊗B + (sC - sN)(A⊗E + E⊗B) + sN E⊗E
	//
	// which is what the factored iteration uses.
	OverlapWeight, BaselineWeight, ConflictPenalty float64

	// RefreshIters is the number of warm power iterations RefreshScorerCtx
	// runs from the previous converged iterate after an edit batch; the
	// dominant eigenvector moves little under small perturbations, so far
	// fewer steps than a cold start's Iters suffice (0 means 8).
	RefreshIters int

	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally.
	cache *cache.Cache

	// state is the last iterate RefreshScorerCtx warm-starts from; nil
	// until the first refresh call. Instances used through the refresher
	// carry pair-specific state and must not be shared
	// (algo.IncrementalScorer's contract).
	state *refreshState
}

// SetCache implements algo.Cacheable.
func (l *LREA) SetCache(c *cache.Cache) { l.cache = c }

// New returns LREA with the study's tuned hyperparameters (40 iterations).
func New() *LREA {
	return &LREA{Iters: 40, RefreshIters: 8}
}

// Name implements algo.Aligner.
func (l *LREA) Name() string { return "LREA" }

// DefaultAssignment implements algo.Aligner; LREA was proposed with the
// sparse Hungarian variant (MWM).
func (l *LREA) DefaultAssignment() assign.Method { return assign.Hungarian }

// factored holds X = Σ u_i v_iᵀ.
type factored struct {
	us, vs [][]float64
}

// Similarity implements algo.Aligner: the materialization of ScorerCtx's
// factors; ctx is checked once per factored power iteration.
func (l *LREA) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	return algo.Materialize(ctx, l, src, dst)
}

// ScorerCtx implements algo.ScoringAligner: the final factored iterate X as
// the rank-one term list (an *assign.FactorEmbedding) the published
// algorithm maintains internally — LREA never needs the dense matrix at all
// on the sparse pipeline. Like Similarity, each call recomputes (the
// iteration reads only cached adjacencies); the returned factors are private
// to the caller.
func (l *LREA) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	f, err := l.computeFactors(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return f, nil
}

// computeFactors runs the factored power iteration and returns the final
// iterate as an ordered rank-one term list with unit weights.
func (l *LREA) computeFactors(ctx context.Context, src, dst *graph.Graph) (*assign.FactorEmbedding, error) {
	n, m := src.N(), dst.N()
	if n == 0 || m == 0 {
		return nil, errors.New("lrea: empty graph")
	}
	iters := l.Iters
	if iters <= 0 {
		iters = 40
	}
	// The CSR adjacencies are only read (MulVec), so the shared cached
	// copies are safe here.
	aSrc := cache.Adjacency(l.cache, src)
	aDst := cache.Adjacency(l.cache, dst)

	// X_0 = uniform rank-one start.
	x := factored{}
	u0 := make([]float64, n)
	v0 := make([]float64, m)
	for i := range u0 {
		u0[i] = 1
	}
	for j := range v0 {
		v0[j] = 1
	}
	matrix.Normalize(u0)
	matrix.Normalize(v0)
	x.us = append(x.us, u0)
	x.vs = append(x.vs, v0)

	x, err := l.iterate(ctx, aSrc, aDst, x, iters)
	if err != nil {
		return nil, err
	}
	return &assign.FactorEmbedding{Us: x.us, Vs: x.vs}, nil
}

// iterate advances the factored power iteration by iters steps from x.
// Input factor slices are only read; every returned slice is fresh — which
// is what lets RefreshScorerCtx warm-start from retained state without
// cloning it first.
func (l *LREA) iterate(ctx context.Context, aSrc, aDst *matrix.CSR, x factored, iters int) (factored, error) {
	n, m := len(x.us[0]), len(x.vs[0])
	// Expand the (sO, sN, sC) scores into the Kronecker-term coefficients.
	sO, sN, sC := l.OverlapWeight, l.BaselineWeight, l.ConflictPenalty
	if sO == 0 && sN == 0 && sC == 0 {
		sO, sN, sC = 2, 1, 0.001
	}
	c1 := sO - 2*sC + sN
	c2 := sC - sN
	c3 := sN

	ones := func(k int) []float64 {
		o := make([]float64, k)
		for i := range o {
			o[i] = 1
		}
		return o
	}
	oneSrc := ones(n)
	oneDst := ones(m)

	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			return factored{}, err
		}
		r := len(x.us)
		nus := make([][]float64, 0, r+3)
		nvs := make([][]float64, 0, r+3)
		// Term 1: c1 A X Bᵀ — maps each (u, v) to (A u, B v), rank preserved.
		for i := 0; i < r; i++ {
			au := aSrc.MulVec(x.us[i])
			bv := aDst.MulVec(x.vs[i])
			for k := range au {
				au[k] *= c1
			}
			nus = append(nus, au)
			nvs = append(nvs, bv)
		}
		// Term 2: c2 A X Eᵀ = (A Σ u_i (v_iᵀ1)) 1ᵀ — one rank-one term.
		t2u := make([]float64, n)
		for i := 0; i < r; i++ {
			vsum := sum(x.vs[i])
			if vsum == 0 {
				continue
			}
			matrix.AxpyVec(t2u, x.us[i], vsum)
		}
		t2u = aSrc.MulVec(t2u)
		for k := range t2u {
			t2u[k] *= c2
		}
		nus = append(nus, t2u)
		nvs = append(nvs, append([]float64(nil), oneDst...))
		// Term 3: c2 E X Bᵀ = 1 (B Σ v_i (u_iᵀ1))ᵀ — one rank-one term.
		t3v := make([]float64, m)
		for i := 0; i < r; i++ {
			usum := sum(x.us[i])
			if usum == 0 {
				continue
			}
			matrix.AxpyVec(t3v, x.vs[i], usum)
		}
		t3v = aDst.MulVec(t3v)
		t3u := append([]float64(nil), oneSrc...)
		for k := range t3u {
			t3u[k] *= c2
		}
		nus = append(nus, t3u)
		nvs = append(nvs, t3v)
		// Term 4: c3 E X Eᵀ = (1ᵀ X 1) 1 1ᵀ — one rank-one term.
		total := 0.0
		for i := 0; i < r; i++ {
			total += sum(x.us[i]) * sum(x.vs[i])
		}
		t4u := append([]float64(nil), oneSrc...)
		for k := range t4u {
			t4u[k] *= c3 * total
		}
		nus = append(nus, t4u)
		nvs = append(nvs, append([]float64(nil), oneDst...))

		x.us, x.vs = nus, nvs
		x.renormalize()
		// Compress the factor list when it grows beyond a working bound:
		// without compression rank grows linearly and the per-iteration cost
		// quadratically. Densify-free compression keeps the top factors by
		// norm (the trailing terms decay geometrically under normalization).
		const maxRank = 160
		if len(x.us) > maxRank {
			x.truncate(maxRank)
		}
	}

	return x, nil
}

// renormalize scales the factored X to unit Frobenius-like norm using the
// product of factor norms as a proxy, preventing overflow across iterations.
func (f *factored) renormalize() {
	var total float64
	for i := range f.us {
		total += matrix.Norm2(f.us[i]) * matrix.Norm2(f.vs[i])
	}
	if total == 0 {
		return
	}
	inv := 1 / total
	for i := range f.us {
		for k := range f.us[i] {
			f.us[i][k] *= inv
		}
	}
}

// truncate keeps the k factors of largest norm product.
func (f *factored) truncate(k int) {
	type scored struct {
		idx int
		s   float64
	}
	all := make([]scored, len(f.us))
	for i := range f.us {
		all[i] = scored{i, matrix.Norm2(f.us[i]) * matrix.Norm2(f.vs[i])}
	}
	// selection of top-k by partial sort
	for i := 0; i < k && i < len(all); i++ {
		best := i
		for j := i + 1; j < len(all); j++ {
			if all[j].s > all[best].s {
				best = j
			}
		}
		all[i], all[best] = all[best], all[i]
	}
	nus := make([][]float64, 0, k)
	nvs := make([][]float64, 0, k)
	for i := 0; i < k && i < len(all); i++ {
		nus = append(nus, f.us[all[i].idx])
		nvs = append(nvs, f.vs[all[i].idx])
	}
	f.us, f.vs = nus, nvs
}

func sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}
