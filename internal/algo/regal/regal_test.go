package regal

import (
	"context"
	"math"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/assign"
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
	if New().DefaultAssignment() != assign.NearestNeighbor {
		t.Error("REGAL extracts alignments by nearest neighbor")
	}
}

func TestEmbedShapesAndNorms(t *testing.T) {
	p := algotest.Pair(t, 50, 0, 11)
	ySrc, yDst, err := New().EmbedCtx(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	if ySrc.Rows != p.Source.N() || yDst.Rows != p.Target.N() {
		t.Fatalf("embedding rows %d/%d", ySrc.Rows, yDst.Rows)
	}
	if ySrc.Cols != yDst.Cols {
		t.Fatal("embedding dims differ between graphs")
	}
	// Rows are normalized (or zero).
	for i := 0; i < ySrc.Rows; i++ {
		n := matrix.Norm2(ySrc.Row(i))
		if n > 1e-9 && math.Abs(n-1) > 1e-9 {
			t.Fatalf("row %d norm = %v", i, n)
		}
	}
}

func TestEmbeddingSimilarityRange(t *testing.T) {
	a := matrix.DenseFromRows([][]float64{{1, 0}, {0, 1}})
	b := matrix.DenseFromRows([][]float64{{1, 0}})
	sim := (&assign.Embedding{Src: a, Dst: b, SimFromDist2: ExpKernel}).Similarity()
	if sim.Rows != 2 || sim.Cols != 1 {
		t.Fatal("similarity shape wrong")
	}
	if sim.At(0, 0) != 1 {
		t.Errorf("identical embeddings should have similarity 1, got %v", sim.At(0, 0))
	}
	if sim.At(1, 0) >= 1 || sim.At(1, 0) <= 0 {
		t.Errorf("distinct embeddings similarity %v out of (0,1)", sim.At(1, 0))
	}
}

func TestKAffectsSignatures(t *testing.T) {
	// K=1 uses only direct neighbors; K=2 adds the discounted 2-hop ring.
	// Both should recover an isomorphic instance reasonably, and they must
	// produce different similarity matrices on a non-regular graph.
	p := algotest.Pair(t, 40, 0, 13)
	r1 := New()
	r1.K = 1
	r2 := New()
	r2.K = 2
	s1, err := r1.Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := r2.Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range s1.Data {
		if math.Abs(s1.Data[i]-s2.Data[i]) > 1e-12 {
			same = false
			break
		}
	}
	if same {
		t.Error("K=1 and K=2 similarities identical; hop discount ignored")
	}
}

func TestSeedChangesLandmarksNotQuality(t *testing.T) {
	p := algotest.Pair(t, 60, 0, 14)
	a := New()
	a.Seed = 1
	b := New()
	b.Seed = 2
	accA := algotest.Accuracy(t, a, p, assign.JonkerVolgenant)
	accB := algotest.Accuracy(t, b, p, assign.JonkerVolgenant)
	if accA < 0.5 || accB < 0.5 {
		t.Errorf("landmark choice destroyed recovery: %.2f / %.2f", accA, accB)
	}
}
