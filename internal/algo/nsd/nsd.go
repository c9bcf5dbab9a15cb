// Package nsd implements Network Similarity Decomposition (Kollias,
// Mohammadi, Grama 2011): a rank-decomposed approximation of the IsoRank
// iteration. Instead of iterating on the full n x m similarity matrix, NSD
// iterates component vectors w and z through the degree-normalized
// adjacency operators and combines their outer products (Equations 3–5 of
// the survey).
package nsd

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/matrix"
)

// NSD aligns graphs via the decomposed IsoRank power series.
type NSD struct {
	// Alpha is the damping factor of the power series; the study tunes 0.8.
	Alpha float64
	// Iters is the number n of power-series terms.
	Iters int
	// Components is the number s of rank-one components drawn from the
	// prior's SVD. With a degree prior the first components dominate.
	Components int

	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally. NSD's whole similarity matrix is a deterministic
	// function of (src, dst, Alpha, Iters, Components) — the SVD RNG is
	// fixed-seeded — so the full result is cached per pair, which also lets
	// CONE's NSD warm start share it.
	cache *cache.Cache

	// state is the last full capture RefreshScorerCtx re-iterates
	// incrementally; nil until the first refresh call. Instances used through
	// the refresher carry pair-specific state and must not be shared
	// (algo.IncrementalScorer's contract).
	state *refreshState
}

// SetCache implements algo.Cacheable.
func (n *NSD) SetCache(c *cache.Cache) { n.cache = c }

// New returns NSD with the study's tuned hyperparameters.
func New() *NSD {
	return &NSD{Alpha: 0.8, Iters: 15, Components: 3}
}

// Name implements algo.Aligner.
func (n *NSD) Name() string { return "NSD" }

// DefaultAssignment implements algo.Aligner; NSD was proposed with
// SortGreedy.
func (n *NSD) DefaultAssignment() assign.Method { return assign.SortGreedy }

// Similarity implements algo.Aligner. The prior matrix H = w zᵀ is the
// degree-similarity prior of the study, decomposed into its top
// s singular triplets; each component is iterated independently:
//
//	X_i^(n) = (1-alpha) sum_k alpha^k w_i^(k) z_i^(k)ᵀ + alpha^n w_i^(n) z_i^(n)ᵀ
//
// with w_i^(k) = (D_dst^-1 A_dst)^k w_i and z_i^(k) = (D_src^-1 A_src)^k z_i.
//
// ctx is threaded into the prior's truncated SVD and checked once per
// power-series term. The matrix is the materialization of ScorerCtx's
// factors. With a cache attached the whole similarity matrix is memoized per
// (pair, params) and a private clone is returned, so callers stay free to
// mutate it: densifying costs more than the factors themselves.
func (n *NSD) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	if n.cache == nil {
		return algo.Materialize(ctx, n, src, dst)
	}
	key := fmt.Sprintf("%s/nsdsim/a%g/i%d/c%d", cache.PairKey(src, dst), n.Alpha, n.Iters, n.Components)
	v, err := n.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		m, err := algo.Materialize(ctx, n, src, dst)
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

// computeFactors runs the NSD iteration but keeps the result in factored
// form: one rank-one term (z_c^(k), w_c^(k), weight) per component c and
// power-series index k, in the accumulation order of the original dense
// loop. Components x (Iters+1) terms in total.
func (n *NSD) computeFactors(ctx context.Context, src, dst *graph.Graph) (*assign.FactorEmbedding, error) {
	ns, nd := src.N(), dst.N()
	if ns == 0 || nd == 0 {
		return nil, errors.New("nsd: empty graph")
	}
	iters := n.Iters
	if iters <= 0 {
		iters = 15
	}
	comps := n.Components
	if comps <= 0 {
		comps = 1
	}

	// Top-s SVD of the degree prior gives the component vectors: prior ≈
	// Σ s_i u_i v_iᵀ, so z_i = sqrt(s_i) u_i (source side) and w_i =
	// sqrt(s_i) v_i (target side). The prior's spectrum decays fast, so the
	// randomized truncated SVD recovers the leading triplets from a few
	// products with s+6 columns (the full Jacobi SVD would dominate NSD's
	// runtime). The prior stays in degree-class form: each product costs
	// O((Ds+Dd)·n·s) for Ds, Dd distinct degrees, and no ns x nd matrix is
	// ever built.
	prior := algo.NewDegreeClassPrior(src, dst)
	rng := rand.New(rand.NewSource(1))
	u, sv, v, err := linalg.TruncatedSVDCtx(ctx, prior, comps, 3, rng)
	if err != nil {
		return nil, err
	}
	if len(sv) == 0 {
		return nil, errors.New("nsd: degenerate prior")
	}

	tSrc := cache.RowNormalizedAdjacency(n.cache, src)
	tDst := cache.RowNormalizedAdjacency(n.cache, dst)

	f := &assign.FactorEmbedding{}
	alpha := n.Alpha
	for c := 0; c < len(sv); c++ {
		scale := sqrtAbs(sv[c])
		z := make([]float64, ns)
		w := make([]float64, nd)
		for i := 0; i < ns; i++ {
			z[i] = scale * u.At(i, c)
		}
		for j := 0; j < nd; j++ {
			w[j] = scale * v.At(j, c)
		}
		coef := 1 - alpha
		ak := 1.0
		for k := 0; k <= iters; k++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			weight := coef * ak
			if k == iters {
				weight = ak // the closing alpha^n term
			}
			// MulVec returns fresh slices, so the appended z and w stay
			// untouched by later iterations.
			f.Us = append(f.Us, z)
			f.Vs = append(f.Vs, w)
			f.Weights = append(f.Weights, weight)
			if k == iters {
				break
			}
			z = tSrc.MulVec(z)
			w = tDst.MulVec(w)
			ak *= alpha
		}
	}
	return f, nil
}

// ScorerCtx implements algo.ScoringAligner: the NSD power series in its
// natural factored form (an *assign.FactorEmbedding), Components x (Iters+1)
// rank-one terms, which Similarity densifies. With a cache attached the
// factor bundle is memoized per (pair, params) — under its own key,
// distinct from the densified nsdsim entry — and a deep clone is returned.
func (n *NSD) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	if n.cache == nil {
		f, err := n.computeFactors(ctx, src, dst)
		if err != nil {
			return nil, err
		}
		return f, nil
	}
	key := fmt.Sprintf("%s/nsdfac/a%g/i%d/c%d", cache.PairKey(src, dst), n.Alpha, n.Iters, n.Components)
	v, err := n.cache.GetOrCompute(ctx, key, func() (any, int64, error) {
		f, err := n.computeFactors(ctx, src, dst)
		if err != nil {
			return nil, 0, err
		}
		return f, f.Bytes(), nil
	})
	if err != nil {
		return nil, err
	}
	return v.(*assign.FactorEmbedding).Clone(), nil
}

func sqrtAbs(x float64) float64 {
	return math.Sqrt(math.Abs(x))
}
