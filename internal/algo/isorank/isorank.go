// Package isorank implements IsoRank (Singh, Xu, Berger 2008): PageRank-like
// neighborhood similarity iterated to a fixed point, blended with a prior
// similarity matrix.
//
// The fixed point of Equation (1) of the survey is computed by power
// iteration on the similarity matrix without ever materializing the
// Kronecker product:
//
//	R <- alpha * A_src D_src^-1  R  D_dst^-1 A_dstᵀ + (1-alpha) * E
//
// where E is the prior. The paper's study substitutes BLAST scores with the
// degree-similarity prior of its Section 6.1, which this package uses by
// default (Prior == nil).
package isorank

import (
	"context"
	"errors"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// IsoRank aligns graphs by recursive neighborhood similarity.
type IsoRank struct {
	// Alpha balances topology (1.0) against the prior (0.0). The study's
	// grid search selects 0.9.
	Alpha float64
	// MaxIters caps power iterations; the study lets IsoRank return after
	// 100 iterations even without convergence.
	MaxIters int
	// Tol stops iteration when the update's max-abs change drops below it.
	Tol float64
	// Prior overrides the degree-similarity prior when non-nil; it must be
	// |V_src| x |V_dst|.
	Prior *matrix.Dense

	// span receives the power-iteration phase (algo.Instrumented); nil
	// (the default) disables tracing at zero cost.
	span *obsv.Span
	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally.
	cache *cache.Cache
}

// SetSpan implements algo.Instrumented.
func (ir *IsoRank) SetSpan(s *obsv.Span) { ir.span = s }

// SetCache implements algo.Cacheable.
func (ir *IsoRank) SetCache(c *cache.Cache) { ir.cache = c }

// New returns IsoRank with the study's tuned hyperparameters
// (alpha=0.9, 100 iterations).
func New() *IsoRank {
	return &IsoRank{Alpha: 0.9, MaxIters: 100, Tol: 1e-6}
}

// Name implements algo.Aligner.
func (ir *IsoRank) Name() string { return "IsoRank" }

// DefaultAssignment implements algo.Aligner; IsoRank was proposed with
// SortGreedy.
func (ir *IsoRank) DefaultAssignment() assign.Method { return assign.SortGreedy }

// Similarity implements algo.Aligner; ctx is checked once per power
// iteration.
func (ir *IsoRank) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	n, m := src.N(), dst.N()
	if n == 0 || m == 0 {
		return nil, errors.New("isorank: empty graph")
	}
	prior := ir.Prior
	if prior == nil {
		prior = algo.DegreePriorCached(ir.cache, src, dst)
	} else if prior.Rows != n || prior.Cols != m {
		return nil, errors.New("isorank: prior shape mismatch")
	}
	// Normalize prior to unit mass so alpha balances comparable magnitudes.
	// The clone also keeps the shared cached prior untouched.
	e := prior.Clone()
	algo.NormalizeSim(e)

	// CSR operands are only read below, so the shared cached copies are safe.
	aSrc := cache.Adjacency(ir.cache, src)                  // n x n
	aDstNorm := cache.RowNormalizedAdjacency(ir.cache, dst) // m x m, D^-1 A
	degSrc := cache.Degrees(ir.cache, src)
	invDegSrc := make([]float64, n)
	for u := 0; u < n; u++ {
		if d := degSrc[u]; d > 0 {
			invDegSrc[u] = 1 / float64(d)
		}
	}

	r := e.Clone()
	alpha := ir.Alpha
	iters := ir.MaxIters
	if iters <= 0 {
		iters = 100
	}
	sp := ir.span.Phase("power_iteration")
	converged := false
	performed := 0
	tmp := matrix.NewDense(n, m)
	s1 := matrix.NewDense(n, m)
	t2 := matrix.NewDense(n, m)
	for it := 0; it < iters; it++ {
		if err := ctx.Err(); err != nil {
			sp.End()
			return nil, err
		}
		performed = it + 1
		// tmp = D_src^-1 R, then right-multiply by (D_dst^-1 A_dst)ᵀ, then
		// left-multiply by A_src. Using CSR ops:
		// step1: S1 = R * (D_dst^-1 A_dst)ᵀ  => S1 = R * normᵀ; rows of R
		//        times columns of normᵀ = rows of norm.
		mulDenseCSRT(s1, r, aDstNorm) // n x m
		// step2: scale rows by 1/deg_src
		for i := 0; i < n; i++ {
			row := s1.Row(i)
			f := invDegSrc[i]
			for j := range row {
				row[j] *= f
			}
		}
		// step3: tmp = A_src * s1
		aSrc.MulDenseTo(t2, s1)
		// blend with prior
		maxDiff := 0.0
		for i := range tmp.Data {
			nv := alpha*t2.Data[i] + (1-alpha)*e.Data[i]
			if d := nv - r.Data[i]; d > maxDiff {
				maxDiff = d
			} else if -d > maxDiff {
				maxDiff = -d
			}
			tmp.Data[i] = nv
		}
		r, tmp = tmp, r
		// Keep total mass stable to avoid drifting to zero on graphs where
		// the topological operator is substochastic.
		algo.NormalizeSim(r)
		if maxDiff < ir.Tol {
			converged = true
			break
		}
	}
	sp.Set("iterations", performed)
	sp.Set("converged", converged)
	sp.End()
	return r, nil
}

// mulDenseCSRT writes d * sᵀ into out (d.Rows x s.NumRows, overwritten),
// where s is CSR: out[i][r] = sum_k d[i][k] * s[r][k], k ascending over row
// r's entries. Equivalent to (s * dᵀ)ᵀ without materializing transposes;
// the row of d is outermost, so each output row is written contiguously.
func mulDenseCSRT(out, d *matrix.Dense, s *matrix.CSR) {
	for i := 0; i < d.Rows; i++ {
		drow := d.Row(i)
		orow := out.Row(i)
		for r := range orow {
			cols, vals := s.RowRange(r)
			var acc float64
			for k, c := range cols {
				acc += drow[c] * vals[k]
			}
			orow[r] = acc
		}
	}
}
