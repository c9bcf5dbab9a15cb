package sgwl

import (
	"context"
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
	if New().DefaultAssignment() != assign.NearestNeighbor {
		t.Error("S-GWL extracts alignments by nearest neighbor")
	}
}

func TestNewSparseBeta(t *testing.T) {
	if NewSparse().Beta != 0.025 {
		t.Errorf("sparse beta = %v, want 0.025 (paper's sparse setting)", NewSparse().Beta)
	}
	if New().Beta != 0.1 {
		t.Errorf("dense beta = %v, want 0.1", New().Beta)
	}
}

func TestRecursionTriggersOnLargeGraphs(t *testing.T) {
	// LeafSize 32 on a 150-node graph forces at least one partitioning
	// level; recovery should still be strong on an isomorphic instance.
	s := New()
	s.LeafSize = 32
	p := algotest.Pair(t, 150, 0, 41)
	acc := algotest.Accuracy(t, s, p, assign.JonkerVolgenant)
	if acc < 0.7 {
		t.Errorf("recursive S-GWL accuracy %.3f on isomorphic instance", acc)
	}
}

func TestCoPartitionConsistency(t *testing.T) {
	// On an isomorphic pair, barycenter co-partitioning must send true
	// counterparts to the same cluster for the vast majority of nodes.
	p := algotest.Pair(t, 120, 0, 42)
	s := New()
	labA, labB, ok, err := s.coPartition(context.Background(), p.Source, p.Target, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Skip("co-partition degenerated on this instance; leaf fallback applies")
	}
	if len(labA) != p.Source.N() || len(labB) != p.Target.N() {
		t.Fatal("label lengths mismatch")
	}
	agree := 0
	for u, ls := range labA {
		match := false
		for _, l := range ls {
			for _, l2 := range labB[p.TrueMap[u]] {
				if l == l2 {
					match = true
				}
			}
		}
		if match {
			agree++
		}
	}
	if agree < len(labA)*7/10 {
		t.Errorf("co-partition agreement %d/%d too low", agree, len(labA))
	}
}

func TestSmallGraphsSolveDirectly(t *testing.T) {
	// Graphs below LeafSize skip partitioning entirely.
	p := algotest.Pair(t, 30, 0, 44)
	acc := algotest.Accuracy(t, New(), p, assign.JonkerVolgenant)
	if acc < 0.8 {
		t.Errorf("leaf-only S-GWL accuracy %.3f", acc)
	}
}

func TestEmptyGraphError(t *testing.T) {
	p := algotest.Pair(t, 20, 0, 1)
	if _, err := New().Similarity(context.Background(), graph.MustNew(0, nil), p.Target); err == nil {
		t.Error("empty source accepted")
	}
}
