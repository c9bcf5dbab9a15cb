package grasp

import (
	"context"
	"math"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
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
	if New().DefaultAssignment() != assign.JonkerVolgenant {
		t.Error("GRASP uses the JV solver")
	}
}

func TestTooSmallGraphError(t *testing.T) {
	tiny := graph.MustNew(1, nil)
	if _, err := New().Similarity(context.Background(), tiny, tiny); err == nil {
		t.Error("1-node graph accepted")
	}
}

func TestLogspace(t *testing.T) {
	ts := logspace(0.1, 10, 3)
	if len(ts) != 3 {
		t.Fatal("length wrong")
	}
	if math.Abs(ts[0]-0.1) > 1e-12 || math.Abs(ts[2]-10) > 1e-9 {
		t.Errorf("endpoints wrong: %v", ts)
	}
	if math.Abs(ts[1]-1) > 1e-9 {
		t.Errorf("log midpoint of [0.1, 10] should be 1, got %v", ts[1])
	}
	if got := logspace(2, 5, 1); len(got) != 1 || got[0] != 2 {
		t.Errorf("q=1 should return [lo]: %v", got)
	}
}

func TestHeatDiagonalsProperties(t *testing.T) {
	// For the full spectrum of the normalized Laplacian, trace(H_t) =
	// sum_j exp(-t lambda_j); each diagonal entry positive.
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	// Use the dense eigensolver directly through the cache helper.
	vals, phi, err := cache.LaplacianEigs(context.Background(), nil, g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	ts := []float64{0.5, 2}
	h, err := heatDiagonals(context.Background(), vals, phi, ts)
	if err != nil {
		t.Fatal(err)
	}
	for ti, tv := range ts {
		var trace, want float64
		for i := 0; i < 4; i++ {
			trace += h.At(i, ti)
			if h.At(i, ti) <= 0 {
				t.Fatalf("heat diagonal must be positive, got %v", h.At(i, ti))
			}
			want += math.Exp(-tv * vals[i])
		}
		if math.Abs(trace-want) > 1e-9 {
			t.Errorf("trace(H_%v) = %v, want %v", tv, trace, want)
		}
	}
}

func TestHeatFeaturesToggle(t *testing.T) {
	p := algotest.Pair(t, 60, 0.02, 61)
	with := New()
	without := New()
	without.HeatFeatures = false
	aWith := algotest.Accuracy(t, with, p, assign.JonkerVolgenant)
	aWithout := algotest.Accuracy(t, without, p, assign.JonkerVolgenant)
	// Both must run; the augmented variant should generally not be worse.
	if aWith+0.15 < aWithout {
		t.Errorf("heat features hurt badly: %.3f vs %.3f", aWith, aWithout)
	}
}

func TestProjectShape(t *testing.T) {
	phi := matrix.NewDense(5, 3)
	f := matrix.NewDense(5, 7)
	out := project(phi, f)
	if out.Rows != 3 || out.Cols != 7 {
		t.Fatalf("project shape %dx%d", out.Rows, out.Cols)
	}
}

func TestKClamping(t *testing.T) {
	g := New()
	g.K = 100 // larger than the graphs
	p := algotest.Pair(t, 30, 0, 62)
	if _, err := g.Similarity(context.Background(), p.Source, p.Target); err != nil {
		t.Fatalf("k clamping failed: %v", err)
	}
}
