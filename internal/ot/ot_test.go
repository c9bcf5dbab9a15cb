package ot

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"graphalign/internal/gen"
	"graphalign/internal/matrix"
)

func TestUniformWeights(t *testing.T) {
	w := UniformWeights(4)
	for _, v := range w {
		if v != 0.25 {
			t.Fatalf("weights = %v", w)
		}
	}
	if len(UniformWeights(0)) != 0 {
		t.Error("zero-length weights")
	}
}

func TestDegreeWeights(t *testing.T) {
	w := DegreeWeights([]int{1, 3})
	if math.Abs(w[0]-2.0/6) > 1e-12 || math.Abs(w[1]-4.0/6) > 1e-12 {
		t.Errorf("degree weights = %v", w)
	}
	var sum float64
	for _, v := range w {
		sum += v
	}
	if math.Abs(sum-1) > 1e-12 {
		t.Error("weights must sum to 1")
	}
}

func TestSinkhornMarginals(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n, m := 6, 8
		c := matrix.NewDense(n, m)
		for i := range c.Data {
			c.Data[i] = rng.Float64()
		}
		mu := UniformWeights(n)
		nu := UniformWeights(m)
		plan, err := SinkhornCtx(context.Background(), c, mu, nu, 0.1, 300)
		if err != nil {
			t.Fatal(err)
		}
		// Column marginals converge exactly after a v-update; rows nearly.
		rows := plan.RowSums()
		cols := plan.ColSums()
		for i, r := range rows {
			if math.Abs(r-mu[i]) > 1e-6 {
				return false
			}
		}
		for j, cv := range cols {
			if math.Abs(cv-nu[j]) > 1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSinkhornPrefersCheapCells(t *testing.T) {
	// 2x2 with a clearly cheap diagonal: the plan must put most mass there.
	c := matrix.DenseFromRows([][]float64{{0, 10}, {10, 0}})
	plan, err := SinkhornCtx(context.Background(), c, UniformWeights(2), UniformWeights(2), 0.2, 200)
	if err != nil {
		t.Fatal(err)
	}
	if plan.At(0, 0) < plan.At(0, 1) || plan.At(1, 1) < plan.At(1, 0) {
		t.Errorf("plan ignores costs: %v", plan.Data)
	}
}

func TestGromovWassersteinIdentifiesIsomorphicStructure(t *testing.T) {
	// Two copies of the same weighted structure, one with permuted indices;
	// GW should put the bulk of each row's mass on the true counterpart.
	n := 8
	rng := rand.New(rand.NewSource(3))
	ca := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			v := rng.Float64()
			ca.Set(i, j, v)
			ca.Set(j, i, v)
		}
	}
	perm := rng.Perm(n)
	cb := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			cb.Set(perm[i], perm[j], ca.At(i, j))
		}
	}
	mu := UniformWeights(n)
	plan, err := GromovWassersteinCtx(context.Background(), DenseCost{C: ca}, DenseCost{C: cb}, mu, mu, GWOptions{Beta: 0.02, OuterIters: 40, SinkhornIters: 50})
	if err != nil {
		t.Fatal(err)
	}
	correct := 0
	for i := 0; i < n; i++ {
		best := 0
		row := plan.Row(i)
		for j, v := range row {
			if v > row[best] {
				best = j
			}
		}
		if best == perm[i] {
			correct++
		}
	}
	if correct < n*3/4 {
		t.Errorf("GW recovered %d/%d matches", correct, n)
	}
}

func TestGromovWassersteinMarginals(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n, m := 6, 7
	ca := matrix.NewDense(n, n)
	cb := matrix.NewDense(m, m)
	for i := range ca.Data {
		ca.Data[i] = rng.Float64()
	}
	for i := range cb.Data {
		cb.Data[i] = rng.Float64()
	}
	mu := UniformWeights(n)
	nu := UniformWeights(m)
	plan, err := GromovWassersteinCtx(context.Background(), DenseCost{C: ca}, DenseCost{C: cb}, mu, nu, GWOptions{Beta: 0.1, OuterIters: 20, SinkhornIters: 30})
	if err != nil {
		t.Fatal(err)
	}
	cols := plan.ColSums()
	for j, cv := range cols {
		if math.Abs(cv-nu[j]) > 1e-6 {
			t.Fatalf("column marginal %d = %v, want %v", j, cv, nu[j])
		}
	}
}

func TestGromovWassersteinExtremeBeta(t *testing.T) {
	// Near-zero and huge regularization must both stay finite (no NaN/Inf
	// transport mass).
	rng := rand.New(rand.NewSource(12))
	n := 6
	ca := matrix.NewDense(n, n)
	for i := range ca.Data {
		ca.Data[i] = rng.Float64()
	}
	mu := UniformWeights(n)
	for _, beta := range []float64{1e-9, 1e3} {
		plan, err := GromovWassersteinCtx(context.Background(), DenseCost{C: ca}, DenseCost{C: ca}, mu, mu, GWOptions{Beta: beta, OuterIters: 5, SinkhornIters: 10})
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range plan.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("beta=%v: plan[%d] = %v", beta, i, v)
			}
		}
	}
}

func TestSinkhornExtremeEps(t *testing.T) {
	c := matrix.DenseFromRows([][]float64{{0, 1e6}, {1e6, 0}})
	mu := UniformWeights(2)
	for _, eps := range []float64{1e-9, 1e6} {
		plan, err := SinkhornCtx(context.Background(), c, mu, mu, eps, 50)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range plan.Data {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("eps=%v: plan[%d] = %v", eps, i, v)
			}
		}
	}
}

func TestSinkhornRowStabilizationAvoidsUnderflow(t *testing.T) {
	// Row 1's costs sit a huge constant above row 0's. Stabilizing by the
	// global minimum would evaluate exp(-1e6/eps) for every entry of row 1 —
	// exactly zero in float64 at this eps — leaving the row with no mass to
	// scale and an all-zero plan row. Per-row stabilization pins each row's
	// best entry at exp(0) = 1, so both rows keep their marginal mass.
	c := matrix.DenseFromRows([][]float64{
		{0, 1},
		{1e6, 1e6 + 1},
	})
	mu := UniformWeights(2)
	plan, err := SinkhornCtx(context.Background(), c, mu, mu, 0.05, 100)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		var rowMass float64
		for _, v := range plan.Row(i) {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				t.Fatalf("plan[%d] contains %v", i, v)
			}
			rowMass += v
		}
		if math.Abs(rowMass-mu[i]) > 1e-6 {
			t.Errorf("row %d mass = %v, want %v (underflowed row?)", i, rowMass, mu[i])
		}
	}
}

func TestSinkhornCtxCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := matrix.DenseFromRows([][]float64{{0, 1}, {1, 0}})
	mu := UniformWeights(2)
	if _, err := SinkhornCtx(ctx, c, mu, mu, 0.1, 50); err != context.Canceled {
		t.Errorf("SinkhornCtx err = %v, want context.Canceled", err)
	}
	if _, err := GromovWassersteinCtx(ctx, DenseCost{C: c}, DenseCost{C: c}, mu, mu, GWOptions{Beta: 0.1, OuterIters: 5, SinkhornIters: 5}); err == nil {
		t.Error("GromovWassersteinCtx ignored a cancelled context")
	}
}

// TestGromovWassersteinEmpty checks that an empty node set yields the
// empty plan instead of indexing an empty cost matrix.
func TestGromovWassersteinEmpty(t *testing.T) {
	empty := matrix.NewDense(0, 0)
	plan, err := GromovWassersteinCtx(context.Background(), DenseCost{C: empty}, DenseCost{C: empty}, nil, nil, GWOptions{Beta: 0.1, OuterIters: 2, SinkhornIters: 2})
	if err != nil {
		t.Fatal(err)
	}
	if plan.Rows != 0 || plan.Cols != 0 {
		t.Fatalf("plan is %dx%d, want 0x0", plan.Rows, plan.Cols)
	}
}

// randomCost returns an n x n symmetric cost in [0, 1) with a zero
// diagonal, the shape of GWL's intra-graph costs.
func randomCost(n int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	c := matrix.NewDense(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < i; j++ {
			v := rng.Float64()
			c.Set(i, j, v)
			c.Set(j, i, v)
		}
	}
	return c
}

// BenchmarkSinkhorn times one CONE Wasserstein step: a 200x200 plan with
// CONE's eps and 50 scaling rounds.
func BenchmarkSinkhorn(b *testing.B) {
	c := randomCost(200, 1)
	mu := UniformWeights(200)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := SinkhornCtx(ctx, c, mu, mu, 0.05, 50); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGromovWasserstein times GWL's transport solve at n=200 with its
// default options (beta 0.1, 20 proximal steps of 30 Sinkhorn rounds).
func BenchmarkGromovWasserstein(b *testing.B) {
	ca, cb := DenseCost{C: randomCost(200, 1)}, DenseCost{C: randomCost(200, 2)}
	mu := UniformWeights(200)
	opts := GWOptions{Beta: 0.1, OuterIters: 20, SinkhornIters: 30}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := GromovWassersteinCtx(ctx, ca, cb, mu, mu, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGromovWassersteinGraphCost times an S-GWL leaf solve at n=200:
// the paper's PL model, S-GWL's dense-data options (beta 0.1, 20 proximal
// steps of 30 Sinkhorn rounds, degree weights) and the adjacency cost whose
// gradient skips the dense products BenchmarkGromovWasserstein pays for.
func BenchmarkGromovWassersteinGraphCost(b *testing.B) {
	ga, err := gen.Generate(gen.PL, 200, rand.New(rand.NewSource(1)))
	if err != nil {
		b.Fatal(err)
	}
	gb, err := gen.Generate(gen.PL, 200, rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	mu, nu := DegreeWeights(ga.Degrees()), DegreeWeights(gb.Degrees())
	opts := GWOptions{Beta: 0.1, OuterIters: 20, SinkhornIters: 30}
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := GromovWassersteinCtx(ctx, AdjacencyCost{G: ga}, AdjacencyCost{G: gb}, mu, nu, opts); err != nil {
			b.Fatal(err)
		}
	}
}
