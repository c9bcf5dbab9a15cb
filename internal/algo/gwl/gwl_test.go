package gwl

import (
	"context"
	"math"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
)

func TestRecoversIsomorphism(t *testing.T) {
	algotest.CheckRecovers(t, New(), 60, 0.8)
}

func TestDeterministic(t *testing.T) {
	algotest.CheckDeterministic(t, func() algo.Aligner { return New() }, 40)
}

func TestShape(t *testing.T) {
	algotest.CheckShape(t, New())
}

func TestDefaultAssignment(t *testing.T) {
	if New().DefaultAssignment() != assign.NearestNeighbor {
		t.Error("GWL extracts alignments by nearest neighbor")
	}
}

func TestCostMatrixStructure(t *testing.T) {
	p := algotest.Pair(t, 30, 0, 31)
	c := CostMatrix(p.Source)
	n := p.Source.N()
	if c.Rows != n || c.Cols != n {
		t.Fatal("cost matrix shape wrong")
	}
	for i := 0; i < n; i++ {
		if c.At(i, i) != 0 {
			t.Fatal("diagonal cost must be 0")
		}
		for _, j := range p.Source.Neighbors(i) {
			if c.At(i, j) >= 1 {
				t.Fatal("adjacent nodes must be cheaper than non-adjacent")
			}
		}
	}
}

func TestPlanIsNonNegativeWithMarginals(t *testing.T) {
	p := algotest.Pair(t, 40, 0.02, 32)
	plan, err := New().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	var total float64
	for _, v := range plan.Data {
		if v < 0 {
			t.Fatal("negative transport mass")
		}
		total += v
	}
	if math.Abs(total-1) > 1e-6 {
		t.Errorf("plan mass = %v, want 1", total)
	}
}

func TestMultipleEpochsRun(t *testing.T) {
	g := New()
	g.Epochs = 3
	p := algotest.Pair(t, 40, 0, 33)
	acc := algotest.Accuracy(t, g, p, assign.JonkerVolgenant)
	if acc < 0.5 {
		t.Errorf("3-epoch GWL accuracy %.3f", acc)
	}
}
