package graph_test

import (
	"math/rand"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

// BenchmarkApplyEdits applies one evolving-workload batch: three edge swaps
// (six edits, 0.1% of the edges) to a 600-node Holme–Kim powerlaw graph of
// about 3,000 edges — the per-apply edit cost of an incremental session.
func BenchmarkApplyEdits(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	g := gen.PowerlawCluster(600, 5, 0.5, rng)
	batch, err := noise.EditBatch(g, 0.001, rng)
	if err != nil {
		b.Fatal(err)
	}
	if len(batch) != 6 {
		b.Fatalf("batch has %d edits, want 6", len(batch))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := graph.ApplyEdits(g, batch); err != nil {
			b.Fatal(err)
		}
	}
}
