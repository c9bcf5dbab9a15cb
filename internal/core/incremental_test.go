package core

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

// editStream draws sequential edit batches against the pair's target: each
// batch is generated from the graph state the previous batches produced, so
// replaying them in order is well-defined.
func editStream(t *testing.T, g *graph.Graph, batches, size int, seed int64) [][]graph.Edit {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([][]graph.Edit, 0, batches)
	cur := g
	for i := 0; i < batches; i++ {
		frac := float64(size) / float64(1+cur.M())
		b, err := noise.EditBatch(cur, frac, rng)
		if err != nil {
			t.Fatal(err)
		}
		next, err := graph.ApplyEdits(cur, b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
		cur = next
	}
	return out
}

func TestRunInstanceIncremental(t *testing.T) {
	p := smallPair(t)
	batches := editStream(t, p.Target, 3, 2, 11)
	res, mapping := RunInstance(context.Background(), regal.New(), p, "",
		RunSpec{AssignTopK: 10, Incremental: &IncrementalSpec{Batches: batches}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Assign != assign.AuctionSparse {
		t.Errorf("Assign = %q, want %q", res.Assign, assign.AuctionSparse)
	}
	if res.Scores.Accuracy < 0 || res.Scores.Accuracy > 1 {
		t.Fatalf("accuracy %v out of range", res.Scores.Accuracy)
	}
	if res.SimilarityTime <= 0 || res.AssignTime <= 0 {
		t.Errorf("time split not measured: sim=%v assign=%v", res.SimilarityTime, res.AssignTime)
	}
	if len(mapping) != p.Source.N() {
		t.Fatalf("mapping length %d, want %d", len(mapping), p.Source.N())
	}
	seen := map[int]bool{}
	for u, v := range mapping {
		if v < 0 || v >= p.Target.N() || seen[v] {
			t.Fatalf("mapping[%d] = %d invalid or duplicated", u, v)
		}
		seen[v] = true
	}
}

// An empty edit stream must reproduce the plain sparse auction pipeline's
// mapping exactly: the session's cold solve runs the same ε-scaling auction
// over the same candidate lists.
func TestRunInstanceIncrementalEmptyStreamMatchesCold(t *testing.T) {
	p := smallPair(t)
	_, cold := RunInstance(context.Background(), regal.New(), p, assign.AuctionSparse,
		RunSpec{AssignTopK: 10})
	res, warm := RunInstance(context.Background(), regal.New(), p, "",
		RunSpec{AssignTopK: 10, Incremental: &IncrementalSpec{}})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if cold == nil || warm == nil {
		t.Fatal("missing mapping")
	}
	if !reflect.DeepEqual(cold, warm) {
		t.Fatal("empty-stream incremental mapping differs from plain sparse auction")
	}
}

// A dense-only aligner cannot run incrementally; the error must surface as a
// classified run error, not a panic.
func TestRunInstanceIncrementalDenseOnly(t *testing.T) {
	p := smallPair(t)
	res := runOnce(context.Background(), isorank.New(), p, "",
		RunSpec{AssignTopK: 10, Incremental: &IncrementalSpec{}})
	if res.Err == nil {
		t.Fatal("expected error for dense-only aligner in incremental mode")
	}
}
