// Package grasp implements GRASP (Hermanns, Tsitsulin, Munkhoeva,
// Bronstein, Mottin, Karras 2021): graph alignment through spectral
// signatures.
//
// GRASP computes the k smallest eigenpairs of each graph's normalized
// Laplacian, builds corresponding functions from the diagonals of heat
// kernels at q time steps (Equation 13), aligns the two eigenvector bases
// with a base-alignment matrix M that trades off diagonality of the mapped
// spectrum against corresponding-function agreement (Equation 14), maps
// functions across with a diagonal functional map C, and finally matches
// nodes by linear assignment over the aligned spectral features, using the
// JV algorithm as the original authors do.
package grasp

import (
	"context"
	"errors"
	"fmt"
	"math"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// GRASP aligns graphs via Laplacian spectral signatures.
type GRASP struct {
	// K is the number of eigenvectors (the study tunes k=20).
	K int
	// Q is the number of heat-kernel time steps (the study tunes q=100).
	Q int
	// TMin and TMax bound the logarithmic grid of diffusion times.
	TMin, TMax float64
	// Mu weighs the corresponding-function term in the base-alignment
	// objective (Equation 14).
	Mu float64
	// HeatFeatures appends the (sign-invariant) heat-kernel diagonal rows
	// to the matching features, stabilizing the aligned-eigenvector
	// features under noise. On by default.
	HeatFeatures bool
	// Seed drives the Lanczos starting vector.
	Seed int64

	// span receives the inner phases of Similarity (algo.Instrumented);
	// nil (the default) disables tracing at zero cost.
	span *obsv.Span
	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally.
	cache *cache.Cache
}

// SetSpan implements algo.Instrumented.
func (g *GRASP) SetSpan(s *obsv.Span) { g.span = s }

// SetCache implements algo.Cacheable.
func (g *GRASP) SetCache(c *cache.Cache) { g.cache = c }

// New returns GRASP with the study's tuned hyperparameters (q=100, k=20).
func New() *GRASP {
	return &GRASP{K: 20, Q: 100, TMin: 0.1, TMax: 50, Mu: 0.5, Seed: 1, HeatFeatures: true}
}

// Name implements algo.Aligner.
func (g *GRASP) Name() string { return "GRASP" }

// DefaultAssignment implements algo.Aligner; GRASP uses JV.
func (g *GRASP) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }

// Similarity implements algo.Aligner: the materialization of ScorerCtx's
// feature rows, timed as the feature_distance phase. Higher similarity =
// smaller distance between aligned spectral feature rows. ctx is threaded
// through the Lanczos/dense eigendecompositions and the base-alignment SVD,
// checked per heat-kernel time step, and once more after the feature
// distances.
func (g *GRASP) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	s, err := g.ScorerCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	sp := g.span.Phase("feature_distance")
	sim := s.Similarity()
	sp.End()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return sim, nil
}

// ScorerCtx implements algo.ScoringAligner: the aligned spectral
// feature rows in factored form with GRASP's negated-squared-distance
// similarity, for the sparse assignment pipeline's k-NN candidate search.
// Similarity materializes it.
func (g *GRASP) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	featSrc, featDst, err := g.featuresCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	return &assign.Embedding{Src: featSrc, Dst: featDst, SimFromDist2: NegDistKernel}, nil
}

// NegDistKernel is GRASP's distance-to-similarity map: sim = -d² (higher
// similarity = smaller feature distance). Monotone non-increasing, as the
// sparse candidate search requires.
func NegDistKernel(d2 float64) float64 { return -d2 }

// featuresCtx runs the GRASP pipeline up to (but excluding) the pairwise
// feature-distance matrix: eigendecompositions, heat-kernel signatures, base
// alignment, and singular-value weighting of the mapped features.
func (g *GRASP) featuresCtx(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, *matrix.Dense, error) {
	n1, n2 := src.N(), dst.N()
	if n1 == 0 || n2 == 0 {
		return nil, nil, errors.New("grasp: empty graph")
	}
	k := g.K
	if k > n1 {
		k = n1
	}
	if k > n2 {
		k = n2
	}
	if k < 2 {
		return nil, nil, errors.New("grasp: graphs too small for spectral alignment")
	}
	sp := g.span.Phase("eigendecomposition")
	sp.Set("k", k)
	// Each graph's decomposition is a pure function of (graph, k, Seed) —
	// the Lanczos starting vector comes from a per-graph RNG, never a
	// stream shared across the two graphs — so the artifact cache can share
	// it with other algorithms and reps without changing any output.
	valsA, phiA, err := cache.LaplacianEigs(ctx, g.cache, src, k, g.Seed)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	valsB, phiB, err := cache.LaplacianEigs(ctx, g.cache, dst, k, g.Seed)
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	sp = g.span.Phase("heat_kernels")
	sp.Set("q", g.Q)
	ts := logspace(g.TMin, g.TMax, g.Q)
	// Corresponding functions: F[i][t] = Σ_j exp(-t λ_j) φ_j(i)² (diagonal
	// of the heat kernel), one column per time step. Cached per graph under
	// the full spectral-signature parameter set.
	fA, err := g.cachedHeatDiagonals(ctx, src, k, valsA, phiA, ts) // n1 x q
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	fB, err := g.cachedHeatDiagonals(ctx, dst, k, valsB, phiB, ts) // n2 x q
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	// Base alignment (Equation 14): find the orthogonal M aligning the two
	// eigenbases through their corresponding-function projections. With
	// a = Φᵀ F and b = Ψᵀ G (both k x q), the alignment Ψ̂ = Ψ M should
	// satisfy Mᵀ b ≈ a, whose orthogonal minimizer is the polar factor of
	// a bᵀ. This full orthogonal solution also repairs rotations inside
	// clusters of near-degenerate eigenvalues, which a signed permutation
	// cannot (the published method optimizes the same objective on the
	// Stiefel manifold; the diagonalization term corresponds to the
	// eigenvalue weighting already implicit in the heat-kernel projections).
	sp = g.span.Phase("base_alignment")
	a := project(phiA, fA)     // k x q  (Φᵀ F)
	b := project(phiB, fB)     // k x q  (Ψᵀ G)
	abt := matrix.MulABT(a, b) // k x k = a bᵀ
	u, sv, v, err := linalg.SVDAnyCtx(ctx, abt)
	if err != nil {
		sp.End()
		return nil, nil, err
	}
	sp.End()
	// The SVD pairs canonical directions of the two eigenbases: column j of
	// Φ U corresponds to column j of Ψ V with correlation strength sv[j]
	// (for a noiseless permuted copy, Ψ V = P Φ U exactly). Unreliable
	// directions — near-degenerate eigenspaces whose heat projections carry
	// no signal — get tiny singular values and are down-weighted, playing
	// the role of the diagonal functional map C in the published method.
	w := make([]float64, k)
	if len(sv) > 0 && sv[0] > 0 {
		for j := 0; j < k && j < len(sv); j++ {
			w[j] = math.Sqrt(sv[j] / sv[0])
		}
	}
	featSrc := matrix.Mul(phiA, u) // n1 x k
	featDst := matrix.Mul(phiB, v) // n2 x k
	for r := 0; r < n1; r++ {
		row := featSrc.Row(r)
		for j := 0; j < k; j++ {
			row[j] *= w[j]
		}
	}
	for r := 0; r < n2; r++ {
		row := featDst.Row(r)
		for j := 0; j < k; j++ {
			row[j] *= w[j]
		}
	}
	if g.HeatFeatures {
		featSrc = appendHeatFeatures(featSrc, fA)
		featDst = appendHeatFeatures(featDst, fB)
	}
	return featSrc, featDst, nil
}

// cachedHeatDiagonals draws the heat-kernel diagonal matrix from the artifact
// cache (keyed by the graph plus every parameter the signature depends on),
// computing it on a miss. The result is shared and read-only downstream.
func (g *GRASP) cachedHeatDiagonals(ctx context.Context, gr *graph.Graph, k int, vals []float64, phi *matrix.Dense, ts []float64) (*matrix.Dense, error) {
	key := fmt.Sprintf("%s/heat/k%d/s%d/t%g-%g/q%d", cache.GraphKey(gr), k, g.Seed, g.TMin, g.TMax, g.Q)
	v, err := g.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		m, err := heatDiagonals(ctx, vals, phi, ts)
		if err != nil {
			return nil, 0, err
		}
		return m, cache.DenseBytes(m), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*matrix.Dense), nil
}

// heatDiagonals returns the n x q matrix whose column t is the diagonal of
// the heat kernel at time ts[t], computed from the truncated spectrum; ctx
// is checked once per time step.
func heatDiagonals(ctx context.Context, vals []float64, phi *matrix.Dense, ts []float64) (*matrix.Dense, error) {
	n := phi.Rows
	k := phi.Cols
	out := matrix.NewDense(n, len(ts))
	for ti, t := range ts {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for j := 0; j < k; j++ {
			e := math.Exp(-t * vals[j])
			for i := 0; i < n; i++ {
				v := phi.At(i, j)
				out.Add(i, ti, e*v*v)
			}
		}
	}
	return out, nil
}

// project returns φᵀ F (k x q).
func project(phi, f *matrix.Dense) *matrix.Dense {
	k := phi.Cols
	q := f.Cols
	out := matrix.NewDense(k, q)
	for i := 0; i < phi.Rows; i++ {
		prow := phi.Row(i)
		frow := f.Row(i)
		for a := 0; a < k; a++ {
			pa := prow[a]
			if pa == 0 {
				continue
			}
			orow := out.Row(a)
			for t := 0; t < q; t++ {
				orow[t] += pa * frow[t]
			}
		}
	}
	return out
}

// appendHeatFeatures concatenates row-normalized heat-diagonal descriptors
// (each node's heat-kernel diagonal across time steps, a NetLSD-style
// signature) to the spectral features. Both sides use the same scaling so
// distances stay comparable.
func appendHeatFeatures(feat, heat *matrix.Dense) *matrix.Dense {
	n, k, q := feat.Rows, feat.Cols, heat.Cols
	out := matrix.NewDense(n, k+q)
	for r := 0; r < n; r++ {
		copy(out.Row(r)[:k], feat.Row(r))
		hrow := heat.Row(r)
		orow := out.Row(r)[k:]
		copy(orow, hrow)
		matrix.Normalize(orow)
	}
	return out
}

// logspace returns q points log-uniformly spaced in [lo, hi].
func logspace(lo, hi float64, q int) []float64 {
	if q < 1 {
		q = 1
	}
	out := make([]float64, q)
	if q == 1 {
		out[0] = lo
		return out
	}
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		f := float64(i) / float64(q-1)
		out[i] = math.Exp(llo + f*(lhi-llo))
	}
	return out
}
