// Package gwl implements Gromov–Wasserstein Learning (Xu, Luo, Zha, Carin
// 2019): joint estimation of an optimal transport plan between the node
// sets of two graphs and node embeddings regularized by that plan
// (Equation 11 of the survey).
//
// The transport subproblem — the Gromov–Wasserstein discrepancy between the
// graphs' cost matrices under a proximal-point scheme — is solved exactly
// as published (internal/ot). The embedding subproblem is a deterministic
// gradient update that pulls embedding distances toward the graph cost
// matrices and toward transported counterparts, a faithful but
// deterministic stand-in for the original's sampled Adam updates (see
// DESIGN.md, substitution 4).
package gwl

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/ot"
)

// GWL aligns graphs by Gromov–Wasserstein optimal transport with jointly
// learned embeddings.
type GWL struct {
	// Epochs is the number of outer alternations between transport and
	// embedding updates (the study tunes epoch=1).
	Epochs int
	// Dim is the embedding dimensionality.
	Dim int
	// Alpha weighs the embedding (Wasserstein) term when blending costs.
	Alpha float64
	// Beta is the proximal regularization strength of the transport solver.
	Beta float64
	// OuterIters / SinkhornIters configure the proximal-point GW solver.
	OuterIters, SinkhornIters int
	// LearningRate scales the embedding gradient step.
	LearningRate float64
	// Seed initializes embeddings deterministically.
	Seed int64
}

// New returns GWL with the study's tuned hyperparameters (1 epoch).
func New() *GWL {
	return &GWL{
		Epochs: 1, Dim: 32, Alpha: 0.1, Beta: 0.1,
		OuterIters: 20, SinkhornIters: 30, LearningRate: 0.05, Seed: 1,
	}
}

// Name implements algo.Aligner.
func (g *GWL) Name() string { return "GWL" }

// DefaultAssignment implements algo.Aligner; GWL extracts alignments by
// nearest neighbor on the transport plan.
func (g *GWL) DefaultAssignment() assign.Method { return assign.NearestNeighbor }

// CostMatrix builds the intra-graph cost matrix GWL uses: 0 on the
// diagonal, 0.25 between adjacent nodes and 1 elsewhere, i.e. adjacent
// nodes are close. Following the published code, costs come from the
// adjacency structure directly. It is the dense form of ot.AdjacencyCost.
func CostMatrix(g *graph.Graph) *matrix.Dense {
	return ot.AdjacencyCost{G: g}.Dense()
}

// Similarity implements algo.Aligner: the returned matrix is the learned
// transport plan (mass T[i][j] is the evidence that i corresponds to j).
// ctx is checked per epoch and threaded into every proximal/Sinkhorn round
// of the transport solver.
func (g *GWL) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	n1, n2 := src.N(), dst.N()
	if n1 == 0 || n2 == 0 {
		return nil, errors.New("gwl: empty graph")
	}
	epochs := g.Epochs
	if epochs <= 0 {
		epochs = 1
	}
	mu := ot.DegreeWeights(src.Degrees())
	nu := ot.DegreeWeights(dst.Degrees())

	cSrc := CostMatrix(src)
	cDst := CostMatrix(dst)

	rng := rand.New(rand.NewSource(g.Seed))
	xs := randomEmbedding(n1, g.Dim, rng)
	xt := randomEmbedding(n2, g.Dim, rng)

	opts := ot.GWOptions{Beta: g.Beta, OuterIters: g.OuterIters, SinkhornIters: g.SinkhornIters}
	var plan *matrix.Dense
	for e := 0; e < epochs; e++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// Blend structural cost with embedding-derived cost (Wasserstein
		// term of Equation 11).
		ca := blendCost(cSrc, xs, g.Alpha)
		cb := blendCost(cDst, xt, g.Alpha)
		var err error
		plan, err = ot.GromovWassersteinCtx(ctx, ot.DenseCost{C: ca}, ot.DenseCost{C: cb}, mu, nu, opts)
		if err != nil {
			return nil, err
		}
		if e == epochs-1 {
			break
		}
		updateEmbeddings(xs, xt, plan, cSrc, cDst, g.LearningRate)
	}
	return plan, nil
}

// randomEmbedding draws a small random matrix; rows are node embeddings.
func randomEmbedding(n, d int, rng *rand.Rand) *matrix.Dense {
	x := matrix.NewDense(n, d)
	for i := range x.Data {
		x.Data[i] = rng.NormFloat64() * 0.1
	}
	return x
}

// blendCost returns (1-alpha)*c + alpha*pairwise-embedding-distance.
func blendCost(c *matrix.Dense, x *matrix.Dense, alpha float64) *matrix.Dense {
	if alpha == 0 {
		return c
	}
	out := c.Clone().Scale(1 - alpha)
	dist := make([]float64, x.Rows)
	for i := 0; i < out.Rows; i++ {
		matrix.SqDistInto(dist, x.Row(i), x)
		orow := out.Row(i)
		for j, d2 := range dist {
			orow[j] += alpha * math.Sqrt(d2)
		}
	}
	return out
}

// updateEmbeddings performs one deterministic gradient step: source
// embeddings move toward the plan-weighted average of target embeddings
// (and vice versa), shrinking the Wasserstein term of the objective.
func updateEmbeddings(xs, xt, plan *matrix.Dense, cSrc, cDst *matrix.Dense, lr float64) {
	n1, n2 := xs.Rows, xt.Rows
	d := xs.Cols
	rowMass := plan.RowSums()
	colMass := plan.ColSums()
	// Barycentric targets.
	for i := 0; i < n1; i++ {
		if rowMass[i] <= 0 {
			continue
		}
		target := make([]float64, d)
		prow := plan.Row(i)
		for j := 0; j < n2; j++ {
			w := prow[j]
			if w == 0 {
				continue
			}
			matrix.AxpyVec(target, xt.Row(j), w/rowMass[i])
		}
		row := xs.Row(i)
		for k := 0; k < d; k++ {
			row[k] += lr * (target[k] - row[k])
		}
	}
	for j := 0; j < n2; j++ {
		if colMass[j] <= 0 {
			continue
		}
		target := make([]float64, d)
		for i := 0; i < n1; i++ {
			w := plan.At(i, j)
			if w == 0 {
				continue
			}
			matrix.AxpyVec(target, xs.Row(i), w/colMass[j])
		}
		row := xt.Row(j)
		for k := 0; k < d; k++ {
			row[k] += lr * (target[k] - row[k])
		}
	}
}
