package incremental

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/noise"
	"graphalign/internal/obsv"
)

// localAligner embeds each node by purely local structure — (1+degree,
// sum of neighbor degrees) — so a graph edit changes only the embedding
// rows within two hops of the edited endpoints. That makes it the ideal
// probe for the incremental pipeline: change detection at ColTolerance 0 is
// exact, small edits keep the dirty set small, and the warm path genuinely
// exercises partial re-bidding.
type localAligner struct{}

func (localAligner) Name() string                     { return "local-test" }
func (localAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }
func localEmbed(g *graph.Graph) *matrix.Dense {
	m := matrix.NewDense(g.N(), 3)
	for u := 0; u < g.N(); u++ {
		row := m.Row(u)
		row[0] = float64(1 + len(g.Neighbors(u)))
		for _, v := range g.Neighbors(u) {
			row[1] += float64(len(g.Neighbors(v)))
		}
		// A small node-id component breaks structural ties so the top-k
		// candidate graph stays matchable on these small random instances.
		row[2] = 0.3 * float64(u)
	}
	return m
}

func (localAligner) ScorerCtx(_ context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	return &assign.Embedding{
		Src:          localEmbed(src),
		Dst:          localEmbed(dst),
		SimFromDist2: func(d2 float64) float64 { return -d2 },
	}, nil
}

func (a localAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	e, _ := a.ScorerCtx(ctx, src, dst)
	return e.Similarity(), nil
}

// degreeAligner embeds each node as (1+degree, 0.3·id) — a one-hop feature
// whose edit footprint is just the four edited endpoints, keeping the dirty
// set well under the drift threshold so the warm auction path runs with
// genuine partial re-bidding.
type degreeAligner struct{}

func (degreeAligner) Name() string                     { return "degree-test" }
func (degreeAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }
func degreeEmbed(g *graph.Graph) *matrix.Dense {
	m := matrix.NewDense(g.N(), 2)
	for u := 0; u < g.N(); u++ {
		m.Row(u)[0] = float64(1 + len(g.Neighbors(u)))
		m.Row(u)[1] = 0.3 * float64(u)
	}
	return m
}

func (degreeAligner) ScorerCtx(_ context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	return &assign.Embedding{
		Src:          degreeEmbed(src),
		Dst:          degreeEmbed(dst),
		SimFromDist2: func(d2 float64) float64 { return -d2 },
	}, nil
}

func (a degreeAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	e, _ := a.ScorerCtx(ctx, src, dst)
	return e.Similarity(), nil
}

// nanAligner is localAligner with NaN in one coordinate of every fifth
// embedding row on both sides, so some candidate distances are NaN.
type nanAligner struct{ localAligner }

func (nanAligner) Name() string { return "nan-test" }
func nanEmbed(g *graph.Graph) *matrix.Dense {
	m := localEmbed(g)
	for u := 0; u < m.Rows; u += 5 {
		m.Row(u)[1] = math.NaN()
	}
	return m
}

func (nanAligner) ScorerCtx(_ context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	return &assign.Embedding{
		Src:          nanEmbed(src),
		Dst:          nanEmbed(dst),
		SimFromDist2: func(d2 float64) float64 { return -d2 },
	}, nil
}

func (a nanAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	e, _ := a.ScorerCtx(ctx, src, dst)
	return e.Similarity(), nil
}

// denseOnlyAligner exposes neither embeddings nor factors.
type denseOnlyAligner struct{}

func (denseOnlyAligner) Name() string                     { return "dense-only" }
func (denseOnlyAligner) DefaultAssignment() assign.Method { return assign.JonkerVolgenant }
func (denseOnlyAligner) Similarity(_ context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	return matrix.NewDense(src.N(), dst.N()), nil
}

func testPair(t *testing.T, n int, seed int64) (*graph.Graph, *graph.Graph) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	src := gen.ErdosRenyi(n, 4/float64(n), rng)
	pair, err := noise.Apply(src, noise.OneWay, 0.05, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return pair.Source, pair.Target
}

// randomBatch builds a small applicable edit batch against g.
func randomBatch(t *testing.T, g *graph.Graph, size int, rng *rand.Rand) []graph.Edit {
	t.Helper()
	batch, err := noise.EditBatch(g, float64(size)/float64(1+g.M()), rng)
	if err != nil {
		t.Fatal(err)
	}
	return batch
}

func checkPermutation(t *testing.T, tag string, mapping []int, m int) {
	t.Helper()
	seen := make([]bool, m)
	for i, j := range mapping {
		if j < 0 || j >= m {
			t.Fatalf("%s: row %d mapped to %d (m=%d)", tag, i, j, m)
		}
		if seen[j] {
			t.Fatalf("%s: column %d assigned twice", tag, j)
		}
		seen[j] = true
	}
}

// Satellite 3 (PR 10): an empty edit batch must reproduce the previous
// mapping byte-for-byte through the full incremental path — recompute,
// change detection, candidate update and warm solve — with zero bidding
// rounds and no dirty rows.
func TestSessionNoopByteIdentical(t *testing.T) {
	src, dst := testPair(t, 40, 1)
	ctx := context.Background()
	s, err := NewSession(ctx, localAligner{}, src, dst, Options{TopK: 16})
	if err != nil {
		t.Fatal(err)
	}
	before := s.Mapping()
	for rep := 0; rep < 3; rep++ {
		st, err := s.Apply(ctx, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !st.Noop || !st.Warm {
			t.Fatalf("rep %d: stats = %+v, want noop warm apply", rep, st)
		}
		if st.DirtyRows != 0 || st.Rounds != 0 || st.RebidRows != 0 {
			t.Fatalf("rep %d: noop apply did work: %+v", rep, st)
		}
		if got := s.Mapping(); !reflect.DeepEqual(got, before) {
			t.Fatalf("rep %d: noop apply changed the mapping:\n got  %v\n want %v", rep, got, before)
		}
	}
}

// Satellite 3 (PR 10): across random edit streams the warm-started session
// must stay within the ε-scaling tolerance of a cold re-alignment of the
// edited instance. With bitwise change detection the session's candidate
// sets equal a cold rebuild's exactly, so both solves carry the same
// Cols·FinalEps bound over the same candidate graph and their totals can
// differ only by twice that bound — far under the 0.05 asserted here
// against totals in the thousands.
func TestSessionMatchesColdAcrossEdits(t *testing.T) {
	src, dst := testPair(t, 150, 2)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(7))
	s, err := NewSession(ctx, degreeAligner{}, src, dst, Options{TopK: 8})
	if err != nil {
		t.Fatal(err)
	}
	warmApplies := 0
	cur := dst
	for step := 0; step < 8; step++ {
		batch := randomBatch(t, cur, 1, rng)
		st, err := s.Apply(ctx, batch)
		if err != nil {
			t.Fatal(err)
		}
		var applyErr error
		cur, applyErr = graph.ApplyEdits(cur, batch)
		if applyErr != nil {
			t.Fatal(applyErr)
		}
		if st.Warm {
			warmApplies++
		}
		checkPermutation(t, "session", s.Mapping(), cur.N())

		cold, err := NewSession(ctx, degreeAligner{}, src, cur, Options{TopK: 8})
		if err != nil {
			t.Fatal(err)
		}
		sim, _ := degreeAligner{}.Similarity(context.Background(), src, cur)
		got := assign.TotalSimilarity(sim, s.Mapping())
		want := assign.TotalSimilarity(sim, cold.Mapping())
		if math.Abs(want-got) > 0.05 {
			t.Fatalf("step %d: warm total %v vs cold total %v (gap %v)", step, got, want, want-got)
		}
	}
	if warmApplies == 0 {
		t.Fatal("no apply took the warm path; the test exercised nothing")
	}
}

// The drift gate must force a cold solve once the dirty fraction crosses
// the threshold, and count it.
func TestSessionDriftGateColdFallback(t *testing.T) {
	src, dst := testPair(t, 40, 3)
	ctx := context.Background()
	reg := obsv.NewRegistry()
	s, err := NewSession(ctx, localAligner{}, src, dst, Options{
		TopK: 16, DriftThreshold: 1e-9, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	var saw bool
	for step := 0; step < 5 && !saw; step++ {
		st, err := s.Apply(ctx, randomBatch(t, s.Target(), 3, rng))
		if err != nil {
			t.Fatal(err)
		}
		saw = st.DirtyRows > 0
		if saw && st.Warm {
			t.Fatalf("dirty apply warm-started past a near-zero drift threshold: %+v", st)
		}
	}
	if !saw {
		t.Skip("edit stream never dirtied a candidate row")
	}
	if reg.Counter("incr_cold_fallbacks_total").Value() == 0 {
		t.Error("cold fallback not counted")
	}
}

// Worker count must not change results anywhere in the incremental path.
func TestSessionWorkerDeterminism(t *testing.T) {
	src, dst := testPair(t, 40, 5)
	ctx := context.Background()
	run := func(workers int) [][]int {
		s, err := NewSession(ctx, localAligner{}, src, dst, Options{TopK: 16, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(6))
		out := [][]int{s.Mapping()}
		for step := 0; step < 4; step++ {
			if _, err := s.Apply(ctx, randomBatch(t, s.Target(), 2, rng)); err != nil {
				t.Fatal(err)
			}
			out = append(out, s.Mapping())
		}
		return out
	}
	if a, b := run(1), run(4); !reflect.DeepEqual(a, b) {
		t.Fatal("mappings differ between 1 and 4 workers")
	}
}

// The real aligners of the paper must flow through the session: REGAL's
// embeddings and LREA's factors, across edits, with valid one-to-one
// output and working noop replay. (REGAL and NSD move every embedding row
// on any edit — global bases — so these run with a small relative
// tolerance and mostly exercise the fallback-heavy regime; the warm-path
// guarantees are pinned by the local-aligner tests above.)
func TestSessionRealAligners(t *testing.T) {
	src, dst := testPair(t, 30, 8)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mk   func() algo.Aligner
	}{
		{"regal", func() algo.Aligner { return regal.New() }},
		{"lrea", func() algo.Aligner { return lrea.New() }},
		{"nsd", func() algo.Aligner { return nsd.New() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.mk()
			algo.ApplyCache(a, cache.New(0))
			s, err := NewSession(ctx, a, src, dst, Options{TopK: 10, ColTolerance: 1e-6})
			if err != nil {
				t.Fatal(err)
			}
			checkPermutation(t, tc.name, s.Mapping(), dst.N())
			before := s.Mapping()
			rng := rand.New(rand.NewSource(9))
			for step := 0; step < 3; step++ {
				st, err := s.Apply(ctx, randomBatch(t, s.Target(), 2, rng))
				if err != nil {
					t.Fatal(err)
				}
				checkPermutation(t, tc.name, s.Mapping(), s.Target().N())
				_ = st
			}
			st, err := s.Apply(ctx, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !st.Noop || st.DirtyRows != 0 || st.Rounds != 0 {
				t.Fatalf("noop apply did work: %+v", st)
			}
			_ = before
		})
	}
}

// TestColdSessionMatchesSparseRun: a fresh session's mapping is exactly the
// plain sparse auction pipeline's — the cold solve runs the same ε-scaling
// auction over the same top-k candidate lists that algo.Run builds for JV
// with TopK.
func TestColdSessionMatchesSparseRun(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	pair, err := noise.Apply(gen.PowerlawCluster(60, 3, 0.3, rng), noise.OneWay, 0.02, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	want, err := algo.Run(ctx, regal.New(), pair.Source, pair.Target, algo.Plan{Method: assign.JonkerVolgenant, TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSession(ctx, regal.New(), pair.Source, pair.Target, Options{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Mapping(), want.Mapping) {
		t.Fatal("cold session mapping differs from the sparse auction run")
	}
}

// A session over an embedding with NaN rows starts and applies edits with a
// one-to-one mapping: the auction refuses the NaN candidates, and the dense
// JV fallback it degrades to ranks NaN below every number (it used to index
// column -1 on a row of NaN).
func TestSessionNaNEmbedding(t *testing.T) {
	src, dst := testPair(t, 30, 16)
	ctx := context.Background()
	s, err := NewSession(ctx, nanAligner{}, src, dst, Options{TopK: 6})
	if err != nil {
		t.Fatal(err)
	}
	checkPermutation(t, "cold", s.Mapping(), dst.N())
	rng := rand.New(rand.NewSource(17))
	for step := 0; step < 3; step++ {
		if _, err := s.Apply(ctx, randomBatch(t, s.Target(), 2, rng)); err != nil {
			t.Fatal(err)
		}
		checkPermutation(t, "apply", s.Mapping(), dst.N())
	}
}

// edgeNaNAligner is nanAligner while the target holds edge {u, v} and
// localAligner once it does not: the auction refuses the NaN candidates,
// so the solve falls back to dense JV until the edge goes.
type edgeNaNAligner struct {
	localAligner
	u, v int
}

func (a edgeNaNAligner) ScorerCtx(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	if dst.HasEdge(a.u, a.v) {
		return nanAligner{}.ScorerCtx(ctx, src, dst)
	}
	return a.localAligner.ScorerCtx(ctx, src, dst)
}

func (a edgeNaNAligner) Similarity(ctx context.Context, src, dst *graph.Graph) (*matrix.Dense, error) {
	sc, _ := a.ScorerCtx(ctx, src, dst)
	return sc.Similarity(), nil
}

// After a solve that fell back to dense JV the session holds no auction
// prices, so the next non-empty apply solves cold even when its candidates
// are auction-solvable and the drift gate is off, and counts one cold
// fallback; the apply after that is warm again.
func TestSessionColdAfterJVFallback(t *testing.T) {
	src, dst := testPair(t, 30, 16)
	u := 0
	for dst.Degree(u) == 0 {
		u++
	}
	v := dst.Neighbors(u)[0]
	ctx := context.Background()
	reg := obsv.NewRegistry()
	s, err := NewSession(ctx, edgeNaNAligner{u: u, v: v}, src, dst, Options{TopK: 6, DriftThreshold: 1, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if len(s.state.Price) != 0 {
		t.Fatal("cold solve kept auction prices; the NaN candidates no longer force the JV fallback")
	}
	st, err := s.Apply(ctx, []graph.Edit{{Op: graph.EditRemove, U: u, V: v}})
	if err != nil {
		t.Fatal(err)
	}
	if st.Warm || len(s.state.Price) == 0 {
		t.Fatalf("apply after a JV fallback: warm %v, %d prices; want a cold auction", st.Warm, len(s.state.Price))
	}
	if got := reg.Counter("incr_cold_fallbacks_total").Value(); got != 1 {
		t.Fatalf("incr_cold_fallbacks_total = %d, want 1", got)
	}
	if st, err = s.Apply(ctx, nil); err != nil {
		t.Fatal(err)
	}
	if !st.Warm {
		t.Fatal("apply after the cold auction did not warm-start")
	}
}

// A negative or NaN ColTolerance and a NaN DriftThreshold are rejected: NaN
// tolerance would report no row as changed, so the session would never
// refresh.
func TestSessionRejectsBadTolerance(t *testing.T) {
	src, dst := testPair(t, 10, 10)
	for _, opts := range []Options{
		{TopK: 4, ColTolerance: math.NaN()},
		{TopK: 4, ColTolerance: -1},
		{TopK: 4, DriftThreshold: math.NaN()},
	} {
		if _, err := NewSession(context.Background(), localAligner{}, src, dst, opts); err == nil {
			t.Errorf("NewSession accepted ColTolerance %v, DriftThreshold %v", opts.ColTolerance, opts.DriftThreshold)
		}
	}
}

// Dense-only aligners cannot run incrementally and must be rejected.
func TestSessionRejectsDenseOnly(t *testing.T) {
	src, dst := testPair(t, 10, 10)
	_, err := NewSession(context.Background(), denseOnlyAligner{}, src, dst, Options{TopK: 4})
	if !errors.Is(err, ErrNotIncremental) {
		t.Fatalf("err = %v, want ErrNotIncremental", err)
	}
}

// The incr_* instruments must be populated by session activity.
func TestSessionMetrics(t *testing.T) {
	src, dst := testPair(t, 30, 11)
	ctx := context.Background()
	reg := obsv.NewRegistry()
	s, err := NewSession(ctx, localAligner{}, src, dst, Options{TopK: 16, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Apply(ctx, nil); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(12))
	if _, err := s.Apply(ctx, randomBatch(t, s.Target(), 2, rng)); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("incr_sessions_total").Value(); got != 1 {
		t.Errorf("incr_sessions_total = %d, want 1", got)
	}
	if got := reg.Counter("incr_applies_total").Value(); got != 2 {
		t.Errorf("incr_applies_total = %d, want 2", got)
	}
	if got := reg.Counter("incr_noop_total").Value(); got != 1 {
		t.Errorf("incr_noop_total = %d, want 1", got)
	}
	if got := reg.Histogram("incr_dirty_rows", obsv.SizeBuckets()).Snapshot().Count; got != 2 {
		t.Errorf("incr_dirty_rows observations = %d, want 2", got)
	}
	if got := reg.Histogram("incr_rescan_rows", obsv.SizeBuckets()).Snapshot().Count; got != 2 {
		t.Errorf("incr_rescan_rows observations = %d, want 2", got)
	}
}

// TestDirtyScopeHugeHops: alignd accepts any non-negative dirty_hops, so
// the hop loop must stop once its frontier is empty rather than run every
// requested hop. math.MaxInt hops must give the hops=N scope, and return
// well within a deadline.
func TestDirtyScopeHugeHops(t *testing.T) {
	before := graph.MustNew(6, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 3, V: 4}})
	edits := []graph.Edit{{Op: graph.EditAdd, U: 2, V: 3}}
	after, err := graph.ApplyEdits(before, edits)
	if err != nil {
		t.Fatal(err)
	}
	want := dirtyScope(before, after, edits, after.N())
	done := make(chan []bool, 1)
	go func() { done <- dirtyScope(before, after, edits, math.MaxInt) }()
	select {
	case got := <-done:
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("MaxInt hops scope %v, want the hops=N scope %v", got, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("dirtyScope with math.MaxInt hops did not return within 5s")
	}
	// Node 5 is isolated: no hop count reaches it.
	if want[5] || !want[0] || !want[4] {
		t.Fatalf("hops=N scope %v, want every node but 5", want)
	}
}

// rowChanged must see NaN: at tolerance 0 an unchanged NaN is unchanged
// (bitwise), and above 0 an entry turning NaN, or back, has moved however
// small the other entries' drift, as has one reaching, leaving or crossing
// ±Inf; an unchanged +Inf is unchanged.
func TestRowChangedNaN(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name       string
		old, fresh []float64
		tol        float64
		want       bool
	}{
		{"exact unchanged NaN", []float64{1, nan}, []float64{1, nan}, 0, false},
		{"exact NaN to number", []float64{1, nan}, []float64{1, 2}, 0, true},
		{"exact number to NaN", []float64{1, 2}, []float64{1, nan}, 0, true},
		{"exact moved number", []float64{1, nan}, []float64{1.5, nan}, 0, true},
		{"tolerant turns NaN", []float64{1, 2}, []float64{1, nan}, 0.2, true},
		{"tolerant leaves NaN", []float64{1, nan}, []float64{1, 2}, 0.2, true},
		{"tolerant unchanged NaN", []float64{1, nan}, []float64{1, nan}, 0.2, false},
		{"tolerant within bound", []float64{1, 2}, []float64{1, 2.1}, 0.2, false},
		{"tolerant past bound", []float64{1, 2}, []float64{1, 3}, 0.2, true},
		{"tolerant reaches +Inf", []float64{5, 1}, []float64{inf, 1}, 0.2, true},
		{"tolerant reaches -Inf", []float64{5, 1}, []float64{-inf, 1}, 0.2, true},
		{"tolerant leaves +Inf", []float64{inf, 1}, []float64{5, 1}, 0.2, true},
		{"tolerant leaves -Inf", []float64{-inf, 1}, []float64{5, 1}, 0.2, true},
		{"tolerant crosses Inf", []float64{inf, 1}, []float64{-inf, 1}, 0.2, true},
		{"tolerant unchanged Inf", []float64{inf, 1}, []float64{inf, 1}, 0.2, false},
	} {
		if got := rowChanged(tc.old, tc.fresh, tc.tol); got != tc.want {
			t.Errorf("%s: rowChanged(%v, %v, %v) = %v, want %v", tc.name, tc.old, tc.fresh, tc.tol, got, tc.want)
		}
	}
}

// In exact mode (ColTolerance 0) the solver-facing lists are bitwise a fresh
// assign.TopK over the session's scorer after every apply, for the three
// refreshers and at one and four workers, while the reserve behind them
// keeps its 2·TopK depth.
func TestSessionExactListsMatchTopK(t *testing.T) {
	src, dst := testPair(t, 80, 14)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		mk   func() algo.Aligner
	}{
		{"regal", func() algo.Aligner { return regal.New() }},
		{"nsd", func() algo.Aligner { return nsd.New() }},
		{"lrea", func() algo.Aligner { return lrea.New() }},
	} {
		for _, workers := range []int{1, 4} {
			s, err := NewSession(ctx, tc.mk(), src, dst, Options{TopK: 6, Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(15))
			for step := 0; step <= 6; step++ {
				if step > 0 {
					if _, err := s.Apply(ctx, randomBatch(t, s.Target(), 3, rng)); err != nil {
						t.Fatal(err)
					}
				}
				if s.reserve.K != 12 {
					t.Fatalf("%s workers=%d step %d: reserve depth %d, want 12", tc.name, workers, step, s.reserve.K)
				}
				head, want := s.reserve.Head(6), assign.TopK(s.scorer, 6, 1)
				if !reflect.DeepEqual(head.Col, want.Col) || !reflect.DeepEqual(head.Len, want.Len) ||
					!sameBits(head.Val, want.Val) || head.K != want.K {
					t.Fatalf("%s workers=%d step %d: session lists differ from TopK over its scorer", tc.name, workers, step)
				}
			}
		}
	}
}

// sameBits reports whether two value slices agree bit for bit.
func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
