// Package algotest provides shared helpers for the per-algorithm test
// suites: standard alignment instances and recovery assertions.
package algotest

import (
	"context"
	"math/rand"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
)

// Pair builds a deterministic alignment instance: a powerlaw-cluster graph
// with one-way noise at the given level, hidden by a random permutation.
func Pair(t testing.TB, n int, level float64, seed int64) noise.Pair {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	base := gen.PowerlawCluster(n, 3, 0.3, rng)
	p, err := noise.Apply(base, noise.OneWay, level, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Accuracy aligns the pair with the given method and returns accuracy.
func Accuracy(t *testing.T, a algo.Aligner, p noise.Pair, m assign.Method) float64 {
	t.Helper()
	res, err := algo.Run(context.Background(), a, p.Source, p.Target, algo.Plan{Method: m})
	if err != nil {
		t.Fatalf("%s: %v", a.Name(), err)
	}
	return metrics.Accuracy(res.Mapping, p.TrueMap)
}

// CheckRecovers asserts the aligner reaches at least minAcc accuracy on a
// noiseless instance of size n.
func CheckRecovers(t *testing.T, a algo.Aligner, n int, minAcc float64) {
	t.Helper()
	p := Pair(t, n, 0, 12345)
	acc := Accuracy(t, a, p, assign.JonkerVolgenant)
	if acc < minAcc {
		t.Errorf("%s: accuracy %.3f < %.3f on an isomorphic instance", a.Name(), acc, minAcc)
	}
}

// CheckDeterministic asserts two runs produce identical similarity
// matrices.
func CheckDeterministic(t *testing.T, mk func() algo.Aligner, n int) {
	t.Helper()
	p := Pair(t, n, 0.02, 777)
	s1, err := mk().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := mk().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Rows != s2.Rows || s1.Cols != s2.Cols {
		t.Fatal("shapes differ between runs")
	}
	for i := range s1.Data {
		if s1.Data[i] != s2.Data[i] {
			t.Fatalf("similarity not deterministic at index %d: %v vs %v", i, s1.Data[i], s2.Data[i])
		}
	}
}

// CheckShape asserts the similarity matrix is |V_src| x |V_dst|.
func CheckShape(t *testing.T, a algo.Aligner) {
	t.Helper()
	p := Pair(t, 40, 0, 999)
	s, err := a.Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	if s.Rows != p.Source.N() || s.Cols != p.Target.N() {
		t.Fatalf("similarity shape %dx%d, want %dx%d", s.Rows, s.Cols, p.Source.N(), p.Target.N())
	}
}
