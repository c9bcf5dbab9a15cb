package regal

import (
	"context"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"graphalign/internal/assign"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
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

// refresh and batch unwrap the Embedding the scorer methods return; a
// refresh result is a view, valid until the next refresh on the instance.
func refresh(ctx context.Context, a *REGAL, src, dst *graph.Graph, scope []bool) (*assign.Embedding, error) {
	s, err := a.RefreshScorerCtx(ctx, src, dst, scope)
	f, _ := s.(*assign.Embedding)
	return f, err
}

func batch(ctx context.Context, a *REGAL, src, dst *graph.Graph) (*assign.Embedding, error) {
	s, err := a.ScorerCtx(ctx, src, dst)
	f, _ := s.(*assign.Embedding)
	return f, err
}

// The first refresh call is the full pipeline: it must match ScorerCtx
// bitwise, and an unchanged target must reproduce it bitwise (the
// algo.IncrementalScorer noop contract). The result is a read-only view of
// the refresher's state, valid until the next call: it is compared through
// a snapshot taken before that call, and the noop call hands out the same
// storage instead of a copy.
func TestRefreshFirstCallAndNoop(t *testing.T) {
	src, dst := refreshPair(t, 60, 21)
	ctx := context.Background()
	r := New()
	got, err := refresh(ctx, r, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Src, want.Src) || !reflect.DeepEqual(got.Dst, want.Dst) {
		t.Fatal("first refresh view differs from the batch pipeline")
	}
	snap := got.Clone()
	again, err := refresh(ctx, r, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again.Src, snap.Src) || !reflect.DeepEqual(again.Dst, snap.Dst) {
		t.Fatal("unchanged target did not reproduce the previous embeddings bitwise")
	}
	if again.Src != got.Src || again.Dst != got.Dst {
		t.Fatal("noop refresh copied its state instead of returning a view")
	}
}

// projectPinned recomputes what the refresher must store for joint node
// index i under the pinned basis: the landmark-kernel row against the
// captured signatures, pushed through the captured projection and
// normalized — the test's independent replay of the reprojection math.
func projectPinned(r *REGAL, st *refreshState, i int) []float64 {
	y := make([]float64, st.scaled.Cols)
	for j, l := range st.landmarks {
		v := regalSim(st.sig, i, l, r.GammaStruc)
		if v == 0 {
			continue
		}
		sRow := st.scaled.Row(j)
		for k, s := range sRow {
			y[k] += v * s
		}
	}
	matrix.Normalize(y)
	return y
}

// With RefreshTol 0 every target row after an edit batch is either bitwise
// its previous value (signature unchanged, or a pinned landmark) or exactly
// the pinned-basis reprojection of its new signature — nothing in between —
// and the source side never moves.
func TestRefreshReprojectionExact(t *testing.T) {
	src, dst := refreshPair(t, 60, 22)
	ctx := context.Background()
	r := New()
	r.RefreshTol = 0
	view, err := refresh(ctx, r, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The next call patches the view in place: compare against a snapshot.
	prev := view.Clone()
	rng := rand.New(rand.NewSource(5))
	for step := 0; step < 3; step++ {
		batch, err := noise.EditBatch(dst, 0.02, rng)
		if err != nil {
			t.Fatal(err)
		}
		dst, err = graph.ApplyEdits(dst, batch)
		if err != nil {
			t.Fatal(err)
		}
		got, err := refresh(ctx, r, src, dst, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Src, prev.Src) {
			t.Fatalf("step %d: source embeddings moved on a target edit", step)
		}
		moved := 0
		for u := 0; u < dst.N(); u++ {
			row := got.Dst.Row(u)
			if reflect.DeepEqual(row, prev.Dst.Row(u)) {
				continue
			}
			moved++
			if want := projectPinned(r, r.state, src.N()+u); !reflect.DeepEqual(row, want) {
				t.Fatalf("step %d: row %d is neither its previous value nor the exact reprojection", step, u)
			}
		}
		if moved == 0 {
			t.Fatalf("step %d: no row moved under tol 0 after a real edit batch", step)
		}
		prev = got.Clone()
	}
}

// An all-false scope pins every signature, so the embeddings come back
// bitwise unchanged regardless of the edits — the scope is the caller's
// staleness bound and the refresher must honor it.
func TestRefreshScopeBoundsWork(t *testing.T) {
	src, dst := refreshPair(t, 60, 23)
	ctx := context.Background()
	r := New()
	view, err := refresh(ctx, r, src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	prev := view.Clone()
	rng := rand.New(rand.NewSource(6))
	batch, err := noise.EditBatch(dst, 0.02, rng)
	if err != nil {
		t.Fatal(err)
	}
	dst2, err := graph.ApplyEdits(dst, batch)
	if err != nil {
		t.Fatal(err)
	}
	got, err := refresh(ctx, r, src, dst2, make([]bool, dst2.N()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Src, prev.Src) || !reflect.DeepEqual(got.Dst, prev.Dst) {
		t.Fatal("empty scope still moved embedding rows")
	}
}

// A refresh cancelled after it has taken in drifted signatures must not
// leave them ahead of their embedding rows: the next call recaptures the
// full pipeline for the edited target instead of treating those rows as
// current.
func TestRefreshCancelledRecaptures(t *testing.T) {
	src, dst := refreshPair(t, 60, 26)
	r := New()
	r.RefreshTol = 0
	if _, err := refresh(context.Background(), r, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	batchEdits, err := noise.EditBatch(dst, 0.05, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	dst2, err := graph.ApplyEdits(dst, batchEdits)
	if err != nil {
		t.Fatal(err)
	}
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := refresh(cancelled, r, src, dst2, nil); err == nil {
		t.Fatal("refresh under a cancelled context returned no error")
	}
	got, err := refresh(context.Background(), r, src, dst2, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(context.Background(), New(), src, dst2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Src, want.Src) || !reflect.DeepEqual(got.Dst, want.Dst) {
		t.Fatal("refresh after a cancelled one did not recapture the full pipeline")
	}
}

// A new source graph invalidates the captured state: the refresher must fall
// back to the full pipeline for the new pair.
func TestRefreshSourceChangeRecaptures(t *testing.T) {
	src, dst := refreshPair(t, 50, 24)
	src2, _ := refreshPair(t, 50, 25)
	ctx := context.Background()
	r := New()
	if _, err := refresh(ctx, r, src, dst, nil); err != nil {
		t.Fatal(err)
	}
	got, err := refresh(ctx, r, src2, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := batch(ctx, New(), src2, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Src, want.Src) || !reflect.DeepEqual(got.Dst, want.Dst) {
		t.Fatal("source change did not recapture the full pipeline")
	}
}

// sigDrifted must see NaN: at tolerance 0 an unchanged NaN has not drifted
// (bitwise), and above 0 an entry turning NaN, or back, has drifted, as has
// one reaching, leaving or crossing ±Inf; an unchanged +Inf has not.
func TestSigDriftedNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		old, fresh []float64
		tol        float64
		want       bool
	}{
		{"exact unchanged NaN", []float64{1, nan}, []float64{1, nan}, 0, false},
		{"exact NaN to number", []float64{1, nan}, []float64{1, 2}, 0, true},
		{"exact moved number", []float64{1, 2}, []float64{1, 3}, 0, true},
		{"tolerant turns NaN", []float64{1, 2}, []float64{1, nan}, 0.2, true},
		{"tolerant leaves NaN", []float64{1, nan}, []float64{1, 2}, 0.2, true},
		{"tolerant unchanged NaN", []float64{1, nan}, []float64{1, nan}, 0.2, false},
		{"tolerant within bound", []float64{1, 2}, []float64{1, 2.1}, 0.2, false},
		{"tolerant reaches +Inf", []float64{5, 1}, []float64{inf, 1}, 0.2, true},
		{"tolerant reaches -Inf", []float64{5, 1}, []float64{-inf, 1}, 0.2, true},
		{"tolerant leaves +Inf", []float64{inf, 1}, []float64{5, 1}, 0.2, true},
		{"tolerant leaves -Inf", []float64{-inf, 1}, []float64{5, 1}, 0.2, true},
		{"tolerant crosses Inf", []float64{inf, 1}, []float64{-inf, 1}, 0.2, true},
		{"tolerant unchanged Inf", []float64{inf, 1}, []float64{inf, 1}, 0.2, false},
	} {
		if got := sigDrifted(tc.old, tc.fresh, tc.tol); got != tc.want {
			t.Errorf("%s: sigDrifted(%v, %v, %v) = %v, want %v", tc.name, tc.old, tc.fresh, tc.tol, got, tc.want)
		}
	}
}
