package lrea

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

func refreshPair(t *testing.T, n int, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := gen.ErdosRenyi(n, 8/float64(n), rng)
	pair, err := noise.Apply(src, noise.OneWay, 0.05, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pair.Source, pair.Target
}

// refresh and batch unwrap the FactorEmbedding the scorer methods return.
func refresh(ctx context.Context, a *LREA, src, dst *graph.Graph, scope []bool) (*assign.FactorEmbedding, error) {
	s, err := a.RefreshScorerCtx(ctx, src, dst, scope)
	f, _ := s.(*assign.FactorEmbedding)
	return f, err
}

func batch(ctx context.Context, a *LREA, src, dst *graph.Graph) (*assign.FactorEmbedding, error) {
	s, err := a.ScorerCtx(ctx, src, dst)
	f, _ := s.(*assign.FactorEmbedding)
	return f, err
}

// The first refresh call is a cold iteration (bitwise ScorerCtx), and an
// unchanged target reproduces it bitwise — the warm iteration must never
// advance on an empty delta.
func TestRefreshFirstCallAndNoop(t *testing.T) {
	src, dst := refreshPair(t, 40, 41)
	ctx := context.Background()
	l := New()
	got, err := refresh(ctx, l, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first refresh differs from the batch pipeline")
	}
	// The result is a view, valid until the next call: keep a snapshot.
	snap := got.Clone()
	again, err := refresh(ctx, l, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, snap) {
		t.Fatal("unchanged target did not reproduce the previous factors bitwise")
	}
}

// Warm refreshes across edits must yield finite, well-shaped factors and
// keep the rank within the iteration's working bound.
func TestRefreshWarmIterationSane(t *testing.T) {
	src, dst := refreshPair(t, 40, 42)
	ctx := context.Background()
	l := New()
	if _, err := refresh(ctx, l, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	for step := 0; step < 3; step++ {
		batch, err := noise.EditBatch(dst, 0.02, rng)
		if err != nil {
			t.Fatal(err)
		}
		dst, err = graph.ApplyEdits(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		f, err := refresh(ctx, l, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(f.Us) != len(f.Vs) || len(f.Us) == 0 || len(f.Us) > 163 {
			t.Fatalf("step %d: rank %d out of bounds", step, len(f.Us))
		}
		for i := range f.Us {
			if len(f.Us[i]) != src.N() || len(f.Vs[i]) != dst.N() {
				t.Fatalf("step %d: term %d has wrong side lengths", step, i)
			}
			for _, v := range f.Us[i] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("step %d: non-finite source factor", step)
				}
			}
			for _, v := range f.Vs[i] {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("step %d: non-finite target factor", step)
				}
			}
		}
	}
}

// A new source graph invalidates the capture and falls back to a cold
// iteration for the new pair.
func TestRefreshSourceChangeRecaptures(t *testing.T) {
	src, dst := refreshPair(t, 30, 43)
	src2, _ := refreshPair(t, 30, 44)
	ctx := context.Background()
	l := New()
	if _, err := refresh(ctx, l, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	got, err := refresh(ctx, l, src2, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("source change did not recapture a cold iteration")
	}
}
