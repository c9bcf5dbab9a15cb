package isorank

import (
	"context"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

func TestRecoversIsomorphism(t *testing.T) {
	algotest.CheckRecovers(t, New(), 80, 0.95)
}

func TestDeterministic(t *testing.T) {
	algotest.CheckDeterministic(t, func() algo.Aligner { return New() }, 50)
}

func TestShape(t *testing.T) {
	algotest.CheckShape(t, New())
}

func TestDefaultAssignmentIsSortGreedy(t *testing.T) {
	if New().DefaultAssignment() != assign.SortGreedy {
		t.Error("IsoRank was proposed with SortGreedy")
	}
}

func TestEmptyGraphError(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 1)
	empty := graph.MustNew(0, nil)
	if _, err := New().Similarity(context.Background(), empty, p.Target); err == nil {
		t.Error("empty source accepted")
	}
}

func TestPriorShapeMismatch(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 2)
	ir := New()
	ir.Prior = matrix.NewDense(3, 3)
	if _, err := ir.Similarity(context.Background(), p.Source, p.Target); err == nil {
		t.Error("wrong-shape prior accepted")
	}
}

func TestAlphaZeroReturnsPrior(t *testing.T) {
	// alpha = 0 ignores topology: similarity is the normalized prior.
	p := algotest.Pair(t, 25, 0, 3)
	ir := New()
	ir.Alpha = 0
	ir.MaxIters = 5
	sim, err := ir.Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	prior := algo.DegreePrior(p.Source, p.Target)
	algo.NormalizeSim(prior)
	for i := range sim.Data {
		if d := sim.Data[i] - prior.Data[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("alpha=0 similarity differs from prior at %d", i)
		}
	}
}

func TestNoiseDegradesMonotonically(t *testing.T) {
	// Not strictly monotone in general, but 0 -> 10% must drop.
	a0 := algotest.Accuracy(t, New(), algotest.Pair(t, 80, 0, 4), assign.JonkerVolgenant)
	a10 := algotest.Accuracy(t, New(), algotest.Pair(t, 80, 0.10, 4), assign.JonkerVolgenant)
	if a10 >= a0 {
		t.Errorf("accuracy did not degrade: %.3f -> %.3f", a0, a10)
	}
}

// BenchmarkSimilarity times IsoRank's 100 power iterations on a
// dense-paper-sized pair (n=200, 1% noise).
func BenchmarkSimilarity(b *testing.B) {
	p := algotest.Pair(b, 200, 0.01, 1)
	ctx := context.Background()
	b.ReportAllocs()
	for b.Loop() {
		if _, err := New().Similarity(ctx, p.Source, p.Target); err != nil {
			b.Fatal(err)
		}
	}
}
