package assign

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// testFactor builds a random rank-r factored similarity with mixed-sign
// weights, the shape NSD and LREA hand the sparse pipeline.
func testFactor(n, m, r int, seed int64) *FactorEmbedding {
	rng := rand.New(rand.NewSource(seed))
	f := &FactorEmbedding{}
	for t := 0; t < r; t++ {
		u := make([]float64, n)
		v := make([]float64, m)
		for i := range u {
			u[i] = rng.NormFloat64()
		}
		for j := range v {
			v[j] = rng.NormFloat64()
		}
		f.Us = append(f.Us, u)
		f.Vs = append(f.Vs, v)
		f.Weights = append(f.Weights, rng.NormFloat64())
	}
	return f
}

// quantizedFactor draws factor entries from a tiny integer set so many
// scores collide exactly — the tie contract is only observable under ties.
func quantizedFactor(n, m, r int, seed int64) *FactorEmbedding {
	rng := rand.New(rand.NewSource(seed))
	f := &FactorEmbedding{}
	for t := 0; t < r; t++ {
		u := make([]float64, n)
		v := make([]float64, m)
		for i := range u {
			u[i] = float64(rng.Intn(3) - 1)
		}
		for j := range v {
			v[j] = float64(rng.Intn(3) - 1)
		}
		f.Us = append(f.Us, u)
		f.Vs = append(f.Vs, v)
	}
	return f
}

// TestTopKFactorMatchesDenseTopK pins the factored path's core contract:
// candidates scored against the factors equal TopK over the densified
// matrix entry for entry, including under heavy score ties.
func TestTopKFactorMatchesDenseTopK(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	factors := []struct {
		name string
		mk   func(n, m, r int, seed int64) *FactorEmbedding
	}{
		{"gaussian", testFactor},
		{"quantized", quantizedFactor},
	}
	for _, fc := range factors {
		t.Run(fc.name, func(t *testing.T) {
			for trial := int64(0); trial < 20; trial++ {
				n, m := 1+rng.Intn(30), 1+rng.Intn(40)
				r := 1 + rng.Intn(8)
				k := 1 + rng.Intn(m)
				checkMatchesDenseTopK(t, fmt.Sprintf("trial %d (n=%d m=%d r=%d k=%d)", trial, n, m, r, k),
					fc.mk(n, m, r, 400+trial), k)
			}
		})
	}
}

func TestTopKFactorParallelIdentical(t *testing.T) {
	// 512*512 crosses candidateBudget, engaging the parallel path.
	checkParallelIdentical(t, testFactor(512, 512, 12, 77), 16, 0, 2, 4)
}

func TestTopKFactorDegenerateK(t *testing.T) { checkDegenerateK(t, testFactor(4, 6, 3, 9)) }

func TestTopKFactorNilWeights(t *testing.T) {
	f := testFactor(10, 12, 4, 33)
	g := &FactorEmbedding{Us: f.Us, Vs: f.Vs} // nil Weights = all ones
	ones := &FactorEmbedding{Us: f.Us, Vs: f.Vs, Weights: []float64{1, 1, 1, 1}}
	cg, co := TopK(g, 5, 1), TopK(ones, 5, 1)
	for i := range cg.Col {
		if cg.Col[i] != co.Col[i] || cg.Val[i] != co.Val[i] {
			t.Fatalf("nil weights diverge from explicit ones at flat %d", i)
		}
	}
}

// TestTopKFactorNaNPruning: NaN scores are dropped from the candidate set,
// short rows are recorded in Len with -1 column padding, and Row trims it.
func TestTopKFactorNaNPruning(t *testing.T) {
	// Row 0 scores: Inf * {0,1,...} -> NaN on column 0, Inf elsewhere.
	// Row 1 scores are finite.
	f := &FactorEmbedding{
		Us: [][]float64{{math.Inf(1), 1}},
		Vs: [][]float64{{0, 2, 3}},
	}
	c := TopK(f, 3, 1)
	if c.Len == nil {
		t.Fatal("pruned rows must set Len")
	}
	if c.Len[0] != 2 || c.Len[1] != 3 {
		t.Fatalf("Len = %v, want [2 3]", c.Len)
	}
	cols0, vals0 := c.Row(0)
	if len(cols0) != 2 || cols0[0] != 1 || cols0[1] != 2 {
		t.Fatalf("row 0 candidates = %v (%v), want columns [1 2]", cols0, vals0)
	}
	if c.Col[2] != -1 || c.Val[2] != 0 {
		t.Fatalf("padding = (%d,%v), want (-1,0)", c.Col[2], c.Val[2])
	}
	cols1, _ := c.Row(1)
	if len(cols1) != 3 {
		t.Fatalf("row 1 should keep all 3 candidates, got %v", cols1)
	}
}

// TestSolveSparseStarvedRow: a row whose candidates were all pruned away
// surfaces as a typed *StarvedRowError on the exact path rather than a
// silent dense-JV fallback; the permissive NN/SG variants still solve.
func TestSolveSparseStarvedRow(t *testing.T) {
	// All of row 1's scores are NaN: NaN * anything stays NaN.
	f := &FactorEmbedding{
		Us: [][]float64{{1, math.NaN()}},
		Vs: [][]float64{{3, 2}},
	}
	c := TopK(f, 2, 1)
	if c.Len == nil || c.Len[1] != 0 {
		t.Fatalf("row 1 should be starved, Len = %v", c.Len)
	}
	_, _, err := SolveSparse(JonkerVolgenant, c, f, 1)
	if err == nil {
		t.Fatal("starved row must error on the exact sparse path")
	}
	var sre *StarvedRowError
	if !errors.As(err, &sre) || sre.Row != 1 {
		t.Fatalf("error %v, want *StarvedRowError for row 1", err)
	}
	if !errors.Is(err, ErrStarvedRow) {
		t.Fatalf("error %v must unwrap to ErrStarvedRow", err)
	}
	for _, m := range []Method{NearestNeighbor, SortGreedy} {
		if mapping, _, err := SolveSparse(m, c, nil, 1); err != nil || len(mapping) != 2 {
			t.Fatalf("%s over starved candidates: mapping %v err %v", m, mapping, err)
		}
	}
}

// TestSolveAuctionShortRows: trimmed (but non-empty) rows flow through the
// auction correctly — the padding never reaches bidding or the ε schedule.
func TestSolveAuctionShortRows(t *testing.T) {
	c := &Candidates{
		Rows: 3, Cols: 3, K: 2,
		Col: []int{0, 1, 1, -1, 2, -1},
		Val: []float64{5, 1, 4, 0, 3, 0},
		Len: []int{2, 1, 1},
	}
	mapping, _, _, ok := SolveAuction(c, 1)
	if !ok {
		t.Fatal("auction should solve the trimmed candidate set")
	}
	want := []int{0, 1, 2}
	for i := range want {
		if mapping[i] != want[i] {
			t.Fatalf("mapping = %v, want %v", mapping, want)
		}
	}
}

func TestFactorEmbeddingClone(t *testing.T) {
	f := testFactor(5, 7, 3, 11)
	g := f.Clone()
	g.Us[0][0] += 100
	g.Weights[1] += 100
	if f.Us[0][0] == g.Us[0][0] || f.Weights[1] == g.Weights[1] {
		t.Fatal("Clone must deep-copy factors")
	}
	fn, fm := f.Shape()
	if gn, gm := g.Shape(); fn != gn || fm != gm || f.Rank() != g.Rank() {
		t.Fatal("Clone changed shape")
	}
}
