package ot

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// adjacencyPlanBound is the stated relative bound of the adjacency-cost GW
// plan against the dense oracle at S-GWL's dense-data beta of 0.1:
// max |got - want| <= bound * max |want|. AdjacencyCost expands C·T and
// X·Cᵀ into rank-one and sparse terms, which reorders the dense products'
// sums; the drift measures 3e-14 or less here.
const adjacencyPlanBound = 1e-12

// sparseBetaPlanBound is the same bound at the sparse-data beta of 0.025.
// Every proximal step scales gradient rounding by 1/beta inside the
// exponent and 20 steps compound it, so on a graph with many isolated,
// interchangeable nodes the drift reaches 1e-10.
const sparseBetaPlanBound = 1e-9

// denseGWOracle is GromovWassersteinCtx on the explicit cost matrices: its
// gradient comes from the dense MulTo/MulABTTo products. AdjacencyCost must
// agree with it within adjacencyPlanBound.
func denseGWOracle(t testing.TB, ga, gb *graph.Graph, mu, nu []float64, opts GWOptions) *matrix.Dense {
	t.Helper()
	plan, err := GromovWassersteinCtx(context.Background(),
		DenseCost{C: AdjacencyCost{G: ga}.Dense()}, DenseCost{C: AdjacencyCost{G: gb}.Dense()}, mu, nu, opts)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// randomGraph draws an Erdős–Rényi graph on n nodes with edge probability
// p; nodes left without edges stay isolated.
func randomGraph(t testing.TB, n int, p float64, seed int64) *graph.Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	var edges []graph.Edge
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < p {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g, err := graph.New(n, edges)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// relDiff returns max |got - want| / max |want|.
func relDiff(got, want *matrix.Dense) float64 {
	var diff, scale float64
	for i, w := range want.Data {
		diff = math.Max(diff, math.Abs(got.Data[i]-w))
		scale = math.Max(scale, math.Abs(w))
	}
	if scale == 0 {
		return diff
	}
	return diff / scale
}

// TestAdjacencyCostProducts checks each expanded product of AdjacencyCost
// against the same product of its dense form.
func TestAdjacencyCostProducts(t *testing.T) {
	for _, sh := range [][2]int{{1, 1}, {1, 5}, {7, 3}, {40, 57}} {
		n, m := sh[0], sh[1]
		ga, gb := randomGraph(t, n, 0.2, int64(n)), randomGraph(t, m, 0.1, int64(m+100))
		a, b := AdjacencyCost{G: ga}, AdjacencyCost{G: gb}
		da, db := DenseCost{C: a.Dense()}, DenseCost{C: b.Dense()}
		x := randomCost(max(n, m), int64(n*m))
		tm := matrix.NewDense(n, m)
		for i := 0; i < n; i++ {
			copy(tm.Row(i), x.Row(i)[:m])
		}
		got, want := matrix.NewDense(n, m), matrix.NewDense(n, m)
		a.mulTo(got, tm)
		da.mulTo(want, tm)
		if d := relDiff(got, want); d > 1e-14 {
			t.Errorf("%dx%d C·T: relative difference %g", n, m, d)
		}
		b.mulTransTo(got, tm)
		db.mulTransTo(want, tm)
		if d := relDiff(got, want); d > 1e-14 {
			t.Errorf("%dx%d X·Cᵀ: relative difference %g", n, m, d)
		}
		w := UniformWeights(n)
		gotV, wantV := matrix.NewDense(1, n), matrix.NewDense(1, n)
		a.sqMulVecTo(gotV.Data, w)
		da.sqMulVecTo(wantV.Data, w)
		if d := relDiff(gotV, wantV); d > 1e-14 {
			t.Errorf("n=%d (C∘C)w: relative difference %g", n, d)
		}
	}
}

// TestAdjacencyCostMatchesDenseOracle runs the proximal-point GW loop with
// S-GWL's leaf options on adjacency costs and on their dense forms. The
// plans must agree within adjacencyPlanBound and pick the same row argmax.
// The edge cases are the leaves the recursion can hand down: a single node,
// a leaf without edges, isolated nodes beside edges, and unequal sides.
func TestAdjacencyCostMatchesDenseOracle(t *testing.T) {
	one, _ := graph.New(1, nil)
	edgeless, _ := graph.New(9, nil)
	cases := []struct {
		name   string
		ga, gb *graph.Graph
	}{
		{"one node", one, one},
		{"one node vs edges", one, randomGraph(t, 6, 0.5, 1)},
		{"edgeless", edgeless, edgeless},
		{"edgeless vs edges", edgeless, randomGraph(t, 12, 0.3, 2)},
		{"isolated nodes", randomGraph(t, 30, 0.04, 3), randomGraph(t, 30, 0.04, 4)},
		{"unequal sides", randomGraph(t, 50, 0.1, 5), randomGraph(t, 37, 0.15, 6)},
		{"dense", randomGraph(t, 64, 0.5, 7), randomGraph(t, 64, 0.5, 8)},
	}
	for _, beta := range []float64{0.1, 0.025} {
		opts := GWOptions{Beta: beta, OuterIters: 20, SinkhornIters: 30}
		bound := adjacencyPlanBound
		if beta < 0.1 {
			bound = sparseBetaPlanBound
		}
		for _, tc := range cases {
			name := fmt.Sprintf("%s beta %g", tc.name, beta)
			mu := DegreeWeights(tc.ga.Degrees())
			nu := DegreeWeights(tc.gb.Degrees())
			got, err := GromovWassersteinCtx(context.Background(), AdjacencyCost{G: tc.ga}, AdjacencyCost{G: tc.gb}, mu, nu, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := denseGWOracle(t, tc.ga, tc.gb, mu, nu, opts)
			if d := relDiff(got, want); d > bound {
				t.Errorf("%s: plan relative difference %g > %g", name, d, bound)
			}
			checkNN(t, name, got, want, bound)
		}
	}
}

// checkNN requires every row's argmax in got to be a maximum of the same
// oracle row up to bound * max |want|. Rows whose maximum is separated by
// more than that must pick the oracle's column exactly; rows with tied
// maxima (interchangeable nodes) may pick any of the tied columns.
func checkNN(t *testing.T, name string, got, want *matrix.Dense, bound float64) {
	t.Helper()
	var scale float64
	for _, w := range want.Data {
		scale = math.Max(scale, math.Abs(w))
	}
	for i := 0; i < want.Rows; i++ {
		row := want.Row(i)
		g, w := argmax(got.Row(i)), argmax(row)
		if row[g] < row[w]-bound*scale {
			t.Errorf("%s: row %d argmax %d, oracle %d", name, i, g, w)
		}
	}
}

func argmax(row []float64) int {
	best := 0
	for j, v := range row {
		if v > row[best] {
			best = j
		}
	}
	return best
}

// TestRejectsNonPositiveRegularization checks that a zero, negative or NaN
// Sinkhorn eps or GW beta is an error, not an all-NaN plan.
func TestRejectsNonPositiveRegularization(t *testing.T) {
	ctx := context.Background()
	c := randomCost(3, 1)
	mu := UniformWeights(3)
	for _, bad := range []float64{0, -0.1, math.NaN()} {
		if plan, err := SinkhornCtx(ctx, c, mu, mu, bad, 10); err == nil {
			t.Errorf("SinkhornCtx eps=%v: nil error, plan %v", bad, plan.Data)
		}
		if err := SinkhornTo(ctx, matrix.NewDense(3, 3), c, mu, mu, bad, 10); err == nil {
			t.Errorf("SinkhornTo eps=%v: nil error", bad)
		}
		opts := GWOptions{Beta: bad, OuterIters: 2, SinkhornIters: 5}
		if plan, err := GromovWassersteinCtx(ctx, DenseCost{C: c}, DenseCost{C: c}, mu, mu, opts); err == nil {
			t.Errorf("GromovWassersteinCtx beta=%v: nil error, plan %v", bad, plan.Data)
		}
	}
}

// TestSinkhornToInPlace checks that SinkhornTo writing over its own cost
// gives SinkhornCtx's plan bit for bit.
func TestSinkhornToInPlace(t *testing.T) {
	ctx := context.Background()
	c, mu, nu := oracleInput(13, 7, 10, 1)
	want, err := SinkhornCtx(ctx, c, mu, nu, 0.05, 50)
	if err != nil {
		t.Fatal(err)
	}
	if err := SinkhornTo(ctx, c, c, mu, nu, 0.05, 50); err != nil {
		t.Fatal(err)
	}
	samePlan(t, "in place", c, want)
}
