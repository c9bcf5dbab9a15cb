package adaptive

import (
	"context"
	"math/rand"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
)

func TestProfileOf(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	ba := gen.BarabasiAlbert(200, 5, rng)
	ws := gen.WattsStrogatz(200, 10, 0.1, rng)
	pBA := profileOf(ba)
	pWS := profileOf(ws)
	if pBA.Skew <= pWS.Skew {
		t.Errorf("BA skew %v should exceed WS skew %v", pBA.Skew, pWS.Skew)
	}
	if pWS.Clustering <= 0 {
		t.Error("WS clustering should be positive")
	}
	if pBA.N != 200 || pBA.AvgDegree <= 0 {
		t.Errorf("profile incomplete: %+v", pBA)
	}
}

func TestSelectRegimes(t *testing.T) {
	a := New()
	cases := []struct {
		name string
		p    Profile
		want string
	}{
		{"large", Profile{N: 10000, AvgDegree: 10, Skew: 3}, "REGAL"},
		{"sparse", Profile{N: 500, AvgDegree: 2, Skew: 2}, "IsoRank"},
		{"powerlaw", Profile{N: 500, AvgDegree: 10, Skew: 12}, "S-GWL"},
		{"homogeneous", Profile{N: 500, AvgDegree: 10, Skew: 2}, "S-GWL"},
	}
	for _, c := range cases {
		got := a.Select(c.p)
		if got.Name() != c.want {
			t.Errorf("%s: dispatched to %s, want %s", c.name, got.Name(), c.want)
		}
	}
}

func TestSparseVsDenseBeta(t *testing.T) {
	a := New()
	sparse := a.Select(Profile{N: 500, AvgDegree: 6, Skew: 2})
	dense := a.Select(Profile{N: 500, AvgDegree: 50, Skew: 2})
	s1, ok1 := sparse.(interface{ Name() string })
	_, ok2 := dense.(interface{ Name() string })
	if !ok1 || !ok2 || s1.Name() != "S-GWL" {
		t.Fatal("homogeneous profiles must select S-GWL")
	}
}

func TestAdaptiveAligns(t *testing.T) {
	p := algotest.Pair(t, 80, 0, 7)
	a := New()
	acc := algotest.Accuracy(t, a, p, assign.JonkerVolgenant)
	if acc < 0.85 {
		t.Errorf("adaptive accuracy %.3f on isomorphic powerlaw instance", acc)
	}
	// PL graphs have skewed degrees: should have dispatched to S-GWL.
	if got := a.Select(Profiles(p.Source, p.Target)).Name(); got != "S-GWL" {
		t.Errorf("chosen = %q, want S-GWL on a powerlaw instance", got)
	}
}

func TestAdaptiveOnSparseGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// A long cycle: average degree 2 (sparse regime -> IsoRank).
	n := 80
	var edges []graph.Edge
	for i := 0; i < n; i++ {
		edges = append(edges, graph.Edge{U: i, V: (i + 1) % n})
	}
	base := graph.MustNew(n, edges)
	perm := graph.RandomPermutation(n, rng)
	target, err := graph.Permute(base, perm)
	if err != nil {
		t.Fatal(err)
	}
	a := New()
	if _, err := algo.Run(context.Background(), a, base, target, algo.Plan{Method: assign.JonkerVolgenant}); err != nil {
		t.Fatal(err)
	}
	if got := a.Select(Profiles(base, target)).Name(); got != "IsoRank" {
		t.Errorf("chosen = %q, want IsoRank on a degree-2 graph", got)
	}
}

func TestImplementsAligner(t *testing.T) {
	var _ algo.Aligner = New()
	if New().DefaultAssignment() != assign.JonkerVolgenant {
		t.Error("adaptive should default to JV")
	}
}

func TestThresholdDefaults(t *testing.T) {
	d := Thresholds{}.withDefaults()
	if d.LargeN != 4096 || d.SparseDegree != 4 || d.PowerlawSkew != 5 || d.DenseBetaDegree != 20 {
		t.Errorf("defaults wrong: %+v", d)
	}
	custom := Thresholds{LargeN: 10}.withDefaults()
	if custom.LargeN != 10 {
		t.Error("custom threshold overridden")
	}
}

func TestCancellation(t *testing.T) {
	algotest.CheckCancellation(t, New(), 40)
}
