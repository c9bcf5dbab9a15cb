package graal

import (
	"math"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/graphlets"
	"graphalign/internal/metrics"
)

func TestRecoversIsomorphism(t *testing.T) {
	algotest.CheckRecovers(t, New(), 80, 0.9)
}

func TestDeterministic(t *testing.T) {
	algotest.CheckDeterministic(t, func() algo.Aligner { return New() }, 50)
}

func TestShape(t *testing.T) {
	algotest.CheckShape(t, New())
}

func TestDefaultAssignment(t *testing.T) {
	if New().DefaultAssignment() != assign.SortGreedy {
		t.Error("GRAAL performs SortGreedy integrally")
	}
}

func TestSignatureSimilarityProperties(t *testing.T) {
	w := graphlets.OrbitWeights()
	a := make([]float64, graphlets.NumOrbits)
	b := make([]float64, graphlets.NumOrbits)
	for i := range a {
		a[i] = float64(i)
		b[i] = float64(i)
	}
	if s := SignatureSimilarity(a, b, w); math.Abs(s-1) > 1e-12 {
		t.Errorf("identical signatures similarity = %v, want 1", s)
	}
	// Symmetric.
	for i := range b {
		b[i] = float64(2 * i)
	}
	if s1, s2 := SignatureSimilarity(a, b, w), SignatureSimilarity(b, a, w); math.Abs(s1-s2) > 1e-12 {
		t.Errorf("similarity not symmetric: %v vs %v", s1, s2)
	}
	// In [0, 1].
	if s := SignatureSimilarity(a, b, w); s < 0 || s > 1 {
		t.Errorf("similarity %v out of range", s)
	}
}

func TestCostMatrixRange(t *testing.T) {
	p := algotest.Pair(t, 40, 0, 15)
	cost, err := New().CostMatrix(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range cost.Data {
		// Equation 2 bounds C in [0, 2].
		if v < 0 || v > 2 {
			t.Fatalf("cost %v out of [0, 2]", v)
		}
	}
}

func TestSimilarityIsTwoMinusCost(t *testing.T) {
	p := algotest.Pair(t, 30, 0, 16)
	g := New()
	cost, err := g.CostMatrix(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := g.Similarity(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cost.Data {
		if math.Abs(sim.Data[i]-(2-cost.Data[i])) > 1e-12 {
			t.Fatal("similarity != 2 - cost")
		}
	}
}

func TestSeedExtend(t *testing.T) {
	p := algotest.Pair(t, 60, 0, 17)
	mapping, err := New().SeedExtend(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	// One-to-one and complete.
	seen := make(map[int]bool)
	for _, v := range mapping {
		if v < 0 || seen[v] {
			t.Fatal("SeedExtend produced invalid mapping")
		}
		seen[v] = true
	}
	if acc := metrics.Accuracy(mapping, p.TrueMap); acc < 0.8 {
		t.Errorf("SeedExtend accuracy %.3f on isomorphic instance", acc)
	}
}

func TestAlphaExtremes(t *testing.T) {
	// alpha=0: pure degree matching still aligns a noiseless graph decently;
	// alpha=1: pure signatures must do at least as well.
	p := algotest.Pair(t, 60, 0, 18)
	deg := &GRAAL{Alpha: 0}
	sig := &GRAAL{Alpha: 1}
	aDeg := algotest.Accuracy(t, deg, p, assign.SortGreedy)
	aSig := algotest.Accuracy(t, sig, p, assign.SortGreedy)
	if aSig < aDeg-0.1 {
		t.Errorf("signatures (%.2f) should not lose badly to degrees (%.2f)", aSig, aDeg)
	}
}

// directSimilarity is the signature similarity written straight from the
// formula, two logarithms and a max per orbit: the reference the
// table-driven kernel must reproduce bitwise.
func directSimilarity(cu, cv []float64, weights [graphlets.NumOrbits]float64) float64 {
	var dist, wsum float64
	for o, w := range weights {
		wsum += w
		num := math.Abs(math.Log(cu[o]+1) - math.Log(cv[o]+1))
		dist += w * num / math.Log(math.Max(cu[o], cv[o])+2)
	}
	return 1 - dist/wsum
}

// TestCostMatrixMatchesDirectFormula pins the precomputed-log cost matrix
// and SignatureSimilarity to the direct formula bit for bit, on a noisy
// pair whose count vectors share many equal and zero entries.
func TestCostMatrixMatchesDirectFormula(t *testing.T) {
	p := algotest.Pair(t, 50, 0.05, 19)
	g := New()
	cost, err := g.CostMatrix(p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	cs, cd := graphlets.Count(p.Source), graphlets.Count(p.Target)
	w := graphlets.OrbitWeights()
	maxSum := float64(p.Source.MaxDegree() + p.Target.MaxDegree())
	for u := range cs {
		for v := range cd {
			s := directSimilarity(cs[u], cd[v], w)
			if got := SignatureSimilarity(cs[u], cd[v], w); math.Float64bits(got) != math.Float64bits(s) {
				t.Fatalf("SignatureSimilarity(%d,%d) = %v, want %v", u, v, got, s)
			}
			degTerm := float64(p.Source.Degree(u)+p.Target.Degree(v)) / maxSum
			want := 2 - ((1-g.Alpha)*degTerm + g.Alpha*s)
			if got := cost.At(u, v); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("cost(%d,%d) = %v, want %v", u, v, got, want)
			}
		}
	}
}
