package nsd

import (
	"context"
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
func refresh(ctx context.Context, a *NSD, src, dst *graph.Graph, scope []bool) (*assign.FactorEmbedding, error) {
	s, err := a.RefreshScorerCtx(ctx, src, dst, scope)
	f, _ := s.(*assign.FactorEmbedding)
	return f, err
}

func batch(ctx context.Context, a *NSD, src, dst *graph.Graph) (*assign.FactorEmbedding, error) {
	s, err := a.ScorerCtx(ctx, src, dst)
	f, _ := s.(*assign.FactorEmbedding)
	return f, err
}

// The first refresh call is the full pipeline (bitwise ScorerCtx), and an
// unchanged target reproduces it bitwise. The result is a read-only view of
// the refresher's state, valid until the next call: it is compared through
// a snapshot taken before that call, and the noop call hands out the same
// bundle instead of a copy.
func TestRefreshFirstCallAndNoop(t *testing.T) {
	src, dst := refreshPair(t, 50, 31)
	ctx := context.Background()
	n := New()
	got, err := refresh(ctx, n, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("first refresh view differs from the batch pipeline")
	}
	snap := got.Clone()
	again, err := refresh(ctx, n, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, snap) {
		t.Fatal("unchanged target did not reproduce the previous factors bitwise")
	}
	if again != got {
		t.Fatal("noop refresh copied its state instead of returning a view")
	}
}

// Across target edits the source iterates and the frozen prior components
// must stay bitwise static — only the downstream w iterates may move.
func TestRefreshKeepsSourceSideStatic(t *testing.T) {
	src, dst := refreshPair(t, 50, 32)
	ctx := context.Background()
	n := New()
	view, err := refresh(ctx, n, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The next call updates the view in place: compare against a snapshot.
	prev := view.Clone()
	iters := n.Iters
	comps := len(prev.Us) / (iters + 1)
	rng := rand.New(rand.NewSource(7))
	for step := 0; step < 3; step++ {
		batch, err := noise.EditBatch(dst, 0.02, rng)
		if err != nil {
			t.Fatal(err)
		}
		dst, err = graph.ApplyEdits(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := refresh(ctx, n, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Us, prev.Us) {
			t.Fatalf("step %d: source iterates moved on a target edit", step)
		}
		if !reflect.DeepEqual(got.Weights, prev.Weights) {
			t.Fatalf("step %d: term weights moved", step)
		}
		for c := 0; c < comps; c++ {
			if !reflect.DeepEqual(got.Vs[c*(iters+1)], prev.Vs[c*(iters+1)]) {
				t.Fatalf("step %d: frozen prior component %d moved", step, c)
			}
		}
		prev = got.Clone()
	}
}

// A new source graph invalidates the capture: the refresher must fall back
// to the full pipeline (fresh prior, fresh SVD) for the new pair.
func TestRefreshSourceChangeRecaptures(t *testing.T) {
	src, dst := refreshPair(t, 40, 33)
	src2, _ := refreshPair(t, 40, 34)
	ctx := context.Background()
	n := New()
	if _, err := refresh(ctx, n, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	got, err := refresh(ctx, n, src2, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("source change did not recapture the full pipeline")
	}
}
