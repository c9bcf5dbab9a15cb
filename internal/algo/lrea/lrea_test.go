package lrea

import (
	"context"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
)

func TestRecoversIsomorphism(t *testing.T) {
	// The paper: LREA consistently finds the correct alignment on
	// isomorphic graphs.
	algotest.CheckRecovers(t, New(), 80, 0.95)
}

func TestNoiseCollapse(t *testing.T) {
	// The paper: performance drops close to 0 with only 1% noise. Verify
	// the steep decline (well below the zero-noise level).
	p0 := algotest.Pair(t, 80, 0, 21)
	p5 := algotest.Pair(t, 80, 0.05, 21)
	a0 := algotest.Accuracy(t, New(), p0, assign.Hungarian)
	a5 := algotest.Accuracy(t, New(), p5, assign.Hungarian)
	if a0 < 0.9 {
		t.Fatalf("zero-noise accuracy %.3f too low", a0)
	}
	if a5 > 0.7*a0 {
		t.Errorf("LREA should degrade steeply with noise: %.3f -> %.3f", a0, a5)
	}
}

func TestDeterministic(t *testing.T) {
	algotest.CheckDeterministic(t, func() algo.Aligner { return New() }, 50)
}

func TestShape(t *testing.T) {
	algotest.CheckShape(t, New())
}

func TestDefaultAssignment(t *testing.T) {
	if New().DefaultAssignment() != assign.Hungarian {
		t.Error("LREA was proposed with the Hungarian (MWM) solver")
	}
}

func TestEmptyGraphError(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 1)
	if _, err := New().Similarity(context.Background(), graph.MustNew(0, nil), p.Target); err == nil {
		t.Error("empty source accepted")
	}
}

func TestCustomScores(t *testing.T) {
	l := New()
	l.OverlapWeight, l.BaselineWeight, l.ConflictPenalty = 3, 1, 0.01
	algotest.CheckRecovers(t, l, 60, 0.9)
}

func TestFactoredRankStaysBounded(t *testing.T) {
	// 40 iterations x 3 new factors + compression cap: Similarity must not
	// blow up in time or memory; just check it completes on a mid-size
	// instance and yields finite values.
	p := algotest.Pair(t, 120, 0.01, 30)
	sim, err := New().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range sim.Data {
		if v != v { // NaN
			t.Fatalf("NaN at %d", i)
		}
	}
}

func TestTruncationTriggersAtHighIterations(t *testing.T) {
	// 60 iterations grow the factored rank past the 160 cap, exercising the
	// compression path; quality on an isomorphic instance must survive it.
	l := New()
	l.Iters = 60
	algotest.CheckRecovers(t, l, 60, 0.9)
}

func TestEigenAlignRecoversIsomorphism(t *testing.T) {
	algotest.CheckRecovers(t, NewEigenAlign(), 60, 0.95)
}

func TestEigenAlignAgreesWithLREAAtZeroNoise(t *testing.T) {
	// LREA is a low-rank approximation of EigenAlign: on an isomorphic
	// instance both must find (essentially) the correct alignment.
	p := algotest.Pair(t, 60, 0, 77)
	exact := algotest.Accuracy(t, NewEigenAlign(), p, assign.Hungarian)
	approx := algotest.Accuracy(t, New(), p, assign.Hungarian)
	if exact < 0.9 || approx < 0.9 {
		t.Errorf("zero-noise: exact %.3f approx %.3f", exact, approx)
	}
}

func TestEigenAlignEmptyGraph(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 1)
	if _, err := NewEigenAlign().Similarity(context.Background(), graph.MustNew(0, nil), p.Target); err == nil {
		t.Error("empty source accepted")
	}
}

func TestEigenAlignCancellation(t *testing.T) {
	algotest.CheckCancellation(t, NewEigenAlign(), 40)
}
