package sgwl

import (
	"context"
	"fmt"
	"math"
	"testing"

	"graphalign/internal/algo/gwl"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/ot"
)

// leafPlanBound is the stated relative bound of an S-GWL leaf against the
// dense oracle: max |got - want| <= leafPlanBound * max |want|. The leaf's
// adjacency cost reorders the sums of the dense gradient products; the
// drift measures below 1e-13 on these instances.
const leafPlanBound = 1e-12

// denseLeafReference is a whole-graph leaf solve as it stood before leaves
// took the adjacency path: GW on gwl.CostMatrix's explicit costs, whose
// gradient runs the dense MulTo and MulABTTo products, scaled as solveLeaf
// scales its write-back.
func denseLeafReference(s *SGWL, src, dst *graph.Graph) (*matrix.Dense, error) {
	mu := ot.DegreeWeights(src.Degrees())
	nu := ot.DegreeWeights(dst.Degrees())
	plan, err := ot.GromovWassersteinCtx(context.Background(),
		ot.DenseCost{C: gwl.CostMatrix(src)}, ot.DenseCost{C: gwl.CostMatrix(dst)}, mu, nu,
		ot.GWOptions{Beta: s.Beta, OuterIters: s.OuterIters, SinkhornIters: s.SinkhornIters})
	if err != nil {
		return nil, err
	}
	return plan.Scale(float64(src.N())), nil
}

// TestLeafMatchesDenseOracle aligns noisy powerlaw pairs no larger than
// LeafSize, where S-GWL is one leaf solve, and compares the similarity
// with the dense oracle: within leafPlanBound, and the same nearest
// neighbor for every source node.
func TestLeafMatchesDenseOracle(t *testing.T) {
	sizes := []int{60, 200, 257, 384}
	if testing.Short() {
		sizes = sizes[:2]
	}
	s := New()
	for _, n := range sizes {
		if n > s.LeafSize {
			t.Fatalf("n=%d exceeds LeafSize %d: S-GWL would not be one leaf", n, s.LeafSize)
		}
		for seed := int64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("n=%d seed=%d", n, seed)
			p := algotest.Pair(t, n, 0.01, seed)
			got, err := s.Similarity(context.Background(), p.Source, p.Target)
			if err != nil {
				t.Fatal(err)
			}
			want, err := denseLeafReference(s, p.Source, p.Target)
			if err != nil {
				t.Fatal(err)
			}
			var diff, scale float64
			for i, w := range want.Data {
				diff = math.Max(diff, math.Abs(got.Data[i]-w))
				scale = math.Max(scale, math.Abs(w))
			}
			if diff > leafPlanBound*scale {
				t.Errorf("%s: relative difference %g > %g", name, diff/scale, leafPlanBound)
			}
			gotNN, wantNN := assign.SolveNN(got), assign.SolveNN(want)
			for i := range wantNN {
				if gotNN[i] != wantNN[i] {
					t.Errorf("%s: source %d maps to %d, oracle %d", name, i, gotNN[i], wantNN[i])
				}
			}
			// The one-to-one mapping S-GWL reports breaks contested columns
			// by comparing similarities across rows, which is where rounding
			// could show first.
			gotMap, wantMap := assign.EnforceOneToOne(got, gotNN), assign.EnforceOneToOne(want, wantNN)
			for i := range wantMap {
				if gotMap[i] != wantMap[i] {
					t.Errorf("%s: one-to-one source %d maps to %d, oracle %d", name, i, gotMap[i], wantMap[i])
				}
			}
		}
	}
}
