package matrix_test

import (
	"math/rand"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

func benchDense(rows, cols int, seed int64) *matrix.Dense {
	rng := rand.New(rand.NewSource(seed))
	m := matrix.NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// BenchmarkDenseKernels times the dense products at the sizes of the
// dense-paper benchmark: MulTo and MulABTTo at 200³ (GW gradients, CONE's
// NetMF powers), PairwiseSqDistTo at 200×200×66 (CONE's Wasserstein step
// at its embedding width) and CSR.MulDenseTo of a PL n=200 adjacency by a
// dense 200×200 matrix (IsoRank's propagation, CONE's window powers).
// Each writes into a reused output, so B/op is the kernels' own scratch.
func BenchmarkDenseKernels(b *testing.B) {
	x, y := benchDense(200, 200, 1), benchDense(200, 200, 2)
	out := matrix.NewDense(200, 200)
	b.Run("MulTo/200", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			matrix.MulTo(out, x, y)
		}
	})
	b.Run("MulABTTo/200", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			matrix.MulABTTo(out, x, y)
		}
	})
	e, f := benchDense(200, 66, 3), benchDense(200, 66, 4)
	b.Run("PairwiseSqDistTo/200x200x66", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			matrix.PairwiseSqDistTo(out, e, f)
		}
	})
	g, err := gen.Generate(gen.PL, 200, rand.New(rand.NewSource(5)))
	if err != nil {
		b.Fatal(err)
	}
	adj := graph.Adjacency(g)
	b.Run("CSRMulDenseTo/PL200", func(b *testing.B) {
		b.ReportAllocs()
		for b.Loop() {
			adj.MulDenseTo(out, x)
		}
	})
}
