// Package graal implements GRAAL (Kuchaiev, Milenković, Memišević, Hayes,
// Pržulj 2010): graphlet-signature-based alignment.
//
// Each node carries a graphlet degree vector (orbit counts, computed by
// internal/graphlets); the cost of matching u to v combines signature
// distance with a degree term (Equation 2 of the survey):
//
//	C(u,v) = 2 - ((1-alpha) * (deg(u)+deg(v)) / (maxdeg_A + maxdeg_B)
//	             + alpha * S(u,v))
//
// The original aligner picks the cheapest pair as a seed and extends the
// alignment over spheres around the seeds; the study adapts GRAAL to the
// common framework by exposing the similarity 2 - C and letting the shared
// assignment stage extract matchings (SortGreedy reproduces the integral
// behaviour).
package graal

import (
	"context"
	"errors"
	"math"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/graphlets"
	"graphalign/internal/matrix"
)

// GRAAL aligns graphs by graphlet degree signatures.
type GRAAL struct {
	// Alpha balances signature similarity against degree similarity; the
	// study's grid search selects 0.8.
	Alpha float64

	// cache holds the shared artifact cache (algo.Cacheable); nil computes
	// everything locally. Graphlet orbit counts are GRAAL's only pure
	// per-graph function, so they are the artifact cached here.
	cache *cache.Cache
}

// SetCache implements algo.Cacheable.
func (g *GRAAL) SetCache(c *cache.Cache) { g.cache = c }

// cachedCounts draws a graph's graphlet orbit counts from the artifact
// cache. The returned per-node vectors are shared: read-only.
func (g *GRAAL) cachedCounts(gr *graph.Graph) graphlets.Counts {
	v, _ := g.cache.GetOrCompute(context.Background(), cache.GraphKey(gr)+"/graphlets", func() (any, int64, error) {
		c := graphlets.Count(gr)
		var bytes int64
		for _, row := range c {
			bytes += int64(8 * len(row))
		}
		return c, bytes, nil
	})
	return v.(graphlets.Counts)
}

// New returns GRAAL with the study's tuned hyperparameter (alpha=0.8).
func New() *GRAAL {
	return &GRAAL{Alpha: 0.8}
}

// Name implements algo.Aligner.
func (g *GRAAL) Name() string { return "GRAAL" }

// DefaultAssignment implements algo.Aligner; GRAAL performs SortGreedy
// integrally.
func (g *GRAAL) DefaultAssignment() assign.Method { return assign.SortGreedy }

// SignatureSimilarity computes the GRAAL signature similarity S(u, v) in
// [0, 1] between two orbit-count vectors using the weighted relative
// distance of the original paper:
//
//	D(u,v) = sum_o w_o * |log(cu_o+1) - log(cv_o+1)| / log(max(cu_o,cv_o)+2)
//	S(u,v) = 1 - D(u,v) / sum_o w_o
func SignatureSimilarity(cu, cv []float64, weights [graphlets.NumOrbits]float64) float64 {
	lu1, lu2 := logTables(graphlets.Counts{cu})
	lv1, lv2 := logTables(graphlets.Counts{cv})
	return signatureSimilarity(cu, cv, lu1, lv1, lu2, lv2, &weights, weightSum(&weights))
}

// logTables returns log(c+1) and log(c+2) of every orbit count, flat with
// NumOrbits entries per node, so the pairwise cost needs no logarithm.
func logTables(c graphlets.Counts) (l1, l2 []float64) {
	l1 = make([]float64, 0, len(c)*graphlets.NumOrbits)
	l2 = make([]float64, 0, len(c)*graphlets.NumOrbits)
	for _, row := range c {
		for _, x := range row {
			l1 = append(l1, math.Log(x+1))
			l2 = append(l2, math.Log(x+2))
		}
	}
	return l1, l2
}

func weightSum(weights *[graphlets.NumOrbits]float64) float64 {
	var wsum float64
	for _, w := range weights {
		wsum += w
	}
	return wsum
}

// signatureSimilarity is S(u, v) from one node's counts and log tables
// (c, l1 = log(c+1), l2 = log(c+2), one NumOrbits slice each). The
// denominator log(max(cu,cv)+2) is the table entry of the larger raw
// count, so every term is bitwise the direct formula.
func signatureSimilarity(cu, cv, lu1, lv1, lu2, lv2 []float64, weights *[graphlets.NumOrbits]float64, wsum float64) float64 {
	cu, cv = cu[:graphlets.NumOrbits], cv[:graphlets.NumOrbits]
	lu1, lv1 = lu1[:graphlets.NumOrbits], lv1[:graphlets.NumOrbits]
	lu2, lv2 = lu2[:graphlets.NumOrbits], lv2[:graphlets.NumOrbits]
	var dist float64
	for o, w := range weights {
		den := lv2[o]
		if cu[o] >= cv[o] {
			den = lu2[o]
		}
		dist += w * math.Abs(lu1[o]-lv1[o]) / den
	}
	if wsum == 0 {
		return 0
	}
	return 1 - dist/wsum
}

// CostMatrix returns the GRAAL cost matrix of Equation 2 (lower = better).
func (g *GRAAL) CostMatrix(src, dst *graph.Graph) (*matrix.Dense, error) {
	return g.CostMatrixCtx(context.Background(), src, dst)
}

// CostMatrixCtx is CostMatrix with cooperative cancellation checked between
// the graphlet counting stages and once per cost-matrix row.
func (g *GRAAL) CostMatrixCtx(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	if src.N() == 0 || dst.N() == 0 {
		return nil, errors.New("graal: empty graph")
	}
	cSrc := g.cachedCounts(src)
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cDst := g.cachedCounts(dst)
	weights := graphlets.OrbitWeights()
	wsum := weightSum(&weights)
	src1, src2 := logTables(cSrc)
	dst1, dst2 := logTables(cDst)
	maxSum := float64(src.MaxDegree() + dst.MaxDegree())
	if maxSum == 0 {
		maxSum = 1
	}
	alpha := g.Alpha
	n, m := src.N(), dst.N()
	const k = graphlets.NumOrbits
	cost := matrix.NewDense(n, m)
	for u := 0; u < n; u++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		du := float64(src.Degree(u))
		cu, lu1, lu2 := cSrc[u], src1[u*k:(u+1)*k], src2[u*k:(u+1)*k]
		row := cost.Row(u)
		for v := 0; v < m; v++ {
			s := signatureSimilarity(cu, cDst[v], lu1, dst1[v*k:(v+1)*k], lu2, dst2[v*k:(v+1)*k], &weights, wsum)
			degTerm := (du + float64(dst.Degree(v))) / maxSum
			row[v] = 2 - ((1-alpha)*degTerm + alpha*s)
		}
	}
	return cost, nil
}

// Similarity implements algo.Aligner: 2 - cost, so that greedily matching
// the highest similarity equals picking the cheapest pair. The cost matrix
// is turned into 2 - cost in place.
func (g *GRAAL) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	sim, err := g.CostMatrixCtx(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	for i, v := range sim.Data {
		sim.Data[i] = 2 - v
	}
	return sim, nil
}
