package nsd

import (
	"context"
	"runtime"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
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
		t.Error("NSD was proposed with SortGreedy")
	}
}

func TestEmptyGraphError(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 1)
	if _, err := New().Similarity(context.Background(), graph.MustNew(0, nil), p.Target); err == nil {
		t.Error("empty source accepted")
	}
}

func TestMoreComponentsHelpOrMatch(t *testing.T) {
	// With a rank-s prior decomposition, more components should not hurt
	// the noiseless recovery.
	p := algotest.Pair(t, 60, 0, 5)
	one := New()
	one.Components = 1
	three := New()
	three.Components = 3
	a1 := algotest.Accuracy(t, one, p, assign.JonkerVolgenant)
	a3 := algotest.Accuracy(t, three, p, assign.JonkerVolgenant)
	if a3+0.15 < a1 {
		t.Errorf("more components hurt substantially: %v vs %v", a3, a1)
	}
}

func TestIterationCountStabilizes(t *testing.T) {
	// The alpha^k series decays: iters 15 and 30 should agree closely on
	// the resulting matching.
	p := algotest.Pair(t, 60, 0.02, 6)
	n15 := New()
	n15.Iters = 15
	n30 := New()
	n30.Iters = 30
	a15 := algotest.Accuracy(t, n15, p, assign.JonkerVolgenant)
	a30 := algotest.Accuracy(t, n30, p, assign.JonkerVolgenant)
	if diff := a15 - a30; diff > 0.2 || diff < -0.2 {
		t.Errorf("iteration count unstable: %v vs %v", a15, a30)
	}
}

// TestScorerCtxAllocatesBelowDensePrior guards the degree-class prior: the
// factored NSD scorer on an n=2000 pair must allocate less than one dense
// ns x nd float64 matrix in total. Materializing the prior (and its
// transpose) for the SVD would take more than twice that.
func TestScorerCtxAllocatesBelowDensePrior(t *testing.T) {
	p := algotest.Pair(t, 2000, 0.01, 1)
	ns, nd := p.Source.N(), p.Target.N()
	a := New()
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := a.ScorerCtx(context.Background(), p.Source, p.Target); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	got, limit := after.TotalAlloc-before.TotalAlloc, uint64(ns*nd*8)
	t.Logf("ScorerCtx allocated %d bytes, limit %d", got, limit)
	if got >= limit {
		t.Errorf("ScorerCtx allocated %d bytes on a %dx%d pair, want < %d (one dense prior)", got, ns, nd, limit)
	}
}

func BenchmarkScorerCtx(b *testing.B) {
	p := algotest.Pair(b, 2000, 0.01, 1)
	a := New()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.ScorerCtx(ctx, p.Source, p.Target); err != nil {
			b.Fatal(err)
		}
	}
}
