// Package incremental implements the evolving-graph alignment mode: a
// Session holds one (source, target) alignment and re-aligns after each
// batch of edge edits to the target by reusing everything the edit did not
// invalidate — the aligner's scorer state, the per-row top-k candidate
// lists, and the auction solver's price vector (warm start). Re-alignment
// cost then scales with the size of the edit's footprint instead of the
// instance, while the result keeps the cold sparse pipeline's accuracy
// contract: the matched total stays within Cols·FinalEps of the candidate-
// graph optimum, and an empty edit batch reproduces the previous mapping
// byte-for-byte. See DESIGN.md §16.
package incremental

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/obsv"
)

// Options configures a Session. TopK is required; the zero value of every
// other field is a sensible default.
type Options struct {
	// TopK is the sparse pipeline's per-row candidate count (required > 0).
	TopK int
	// Workers bounds intra-session parallelism (candidate generation and
	// auction bidding); 0 means one per CPU. Results are identical for any
	// value.
	Workers int
	// DriftThreshold is the fraction of candidate rows that may go dirty in
	// one apply before the warm start is abandoned for a cold solve (a warm
	// start that re-bids most rows does strictly more work than a cold
	// ε-scaled solve and loses its price-seeding advantage). <= 0 means the
	// default 0.5; >= 1 disables the gate; NaN is rejected.
	DriftThreshold float64
	// ColTolerance controls which embedding rows count as changed after a
	// refresh. 0 compares bitwise — exact, but global-basis methods (REGAL's
	// Nyström landmarks, NSD's SVD) move every row a little on any edit, so
	// bitwise comparison marks everything dirty. > 0 treats a row as changed
	// only when max|new-old| / (max|old| + 1e-12) exceeds it; rows within
	// tolerance keep their previous embedding (and hence candidate lists)
	// until accumulated movement since their last refresh crosses the
	// threshold, bounding the staleness. A negative or NaN tolerance is
	// rejected.
	ColTolerance float64
	// DirtyHops, when positive, restricts each apply's target-side refresh
	// to nodes within that many hops (pre- or post-edit adjacency) of an
	// edited endpoint — the structural dirty set. Global-basis aligners
	// (REGAL, NSD) move every embedding row a little on any edit; the hop
	// bound keeps the refresh footprint proportional to the edit instead of
	// the graph, trading bounded staleness far from the edit for
	// incremental-scale work. 0 leaves the refresh purely
	// tolerance-governed.
	DirtyHops int
	// Tracer receives one run span per Apply with refresh/candidates/solve
	// phases; nil disables tracing.
	Tracer *obsv.Tracer
	// Registry receives the incr_* counters and histograms; when nil the
	// Tracer's registry is used (nil-safe all the way down).
	Registry *obsv.Registry
}

// ApplyStats describes one Apply call.
type ApplyStats struct {
	// Edits is the number of edit operations in the batch.
	Edits int
	// ChangedRows / ChangedCols are the embedding rows (source side) and
	// columns (target side) that moved beyond ColTolerance in the refresh.
	ChangedRows int
	ChangedCols int
	// DirtyRows is the number of rows whose solver-facing candidate list
	// (top-k head plus repair entry) differs bitwise from the previous
	// solve's — the warm auction's re-bid set.
	DirtyRows int
	// RescanRows is the number of candidate rows the top-k update rebuilt
	// with a full scan over every target column.
	RescanRows int
	// AugmentedRows is the number of rows holding a matchability-repair
	// candidate (see assign.Augment); 0 when the top-k lists already
	// admit a row-perfect matching.
	AugmentedRows int
	// Warm reports whether the solve was warm-started; false means a cold
	// fallback (drift gate tripped, unusable previous state, or warm solve
	// failure).
	Warm bool
	// RebidRows and Rounds are the warm solve's SparseStats counters (zero
	// for cold solves' RebidRows).
	RebidRows int
	Rounds    int
	// Noop reports an empty edit batch.
	Noop bool
	// RefreshTime covers the scorer recompute and change detection;
	// CandidateTime the incremental top-k update; SolveTime the assignment.
	RefreshTime   time.Duration
	CandidateTime time.Duration
	SolveTime     time.Duration
}

// Session is one incremental alignment: a fixed source graph aligned to an
// evolving target. All methods are safe for concurrent use (serialized
// internally); the scorer/candidate/price state is private to the session.
type Session struct {
	mu sync.Mutex
	a  algo.Aligner
	sa algo.ScoringAligner
	// is is the aligner's incremental refresh capability when it has one;
	// nil falls back to full recompute + row diff on every apply.
	is   algo.IncrementalScorer
	opts Options
	reg  *obsv.Registry

	src, dst *graph.Graph
	// scorer is the effective similarity the candidate lists were built
	// from (see patch); the session owns it.
	scorer assign.Scorer
	// reserve holds each row's candidate list at the update's depth (see
	// depth). Its first-TopK head, bitwise assign.TopK(scorer, TopK), is
	// what Augment repairs into solve.
	reserve *assign.Candidates
	// solve is the solver-facing set of the last solve: the head made
	// row-saturating by assign.Augment, so the auction never has to refuse
	// the instance (low-rank similarities routinely violate Hall's condition
	// and would otherwise force the dense-JV fallback, which leaves no
	// auction state to warm-start from). The next apply's dirty rows are
	// DiffRows against it.
	solve *assign.Candidates
	// augCol records each row's repair column; augSeed is the base-graph
	// matching the repair grew from. Both feed the next Augment, so the
	// repair entries stay stable across small edits.
	augCol  []int
	augSeed []int
	mapping []int
	// state is the last auction's price vector, empty after a dense-JV
	// fallback, which SolveAuctionWarm then rejects.
	state   assign.AuctionState
	applies int
}

// ErrNotIncremental reports an aligner without a scorer — the incremental
// pipeline has nothing to update per-row for dense-only methods.
var ErrNotIncremental = errors.New("incremental: aligner exposes no scorer")

// NewSession cold-aligns src to dst with a and returns a session warm for
// subsequent Apply calls. The aligner must implement algo.ScoringAligner
// and must not be shared with concurrent users.
func NewSession(ctx context.Context, a algo.Aligner, src, dst *graph.Graph, opts Options) (*Session, error) {
	if opts.TopK <= 0 {
		return nil, fmt.Errorf("incremental: TopK must be positive, got %d", opts.TopK)
	}
	if !(opts.ColTolerance >= 0) {
		return nil, fmt.Errorf("incremental: ColTolerance must be a non-negative number, got %v", opts.ColTolerance)
	}
	if math.IsNaN(opts.DriftThreshold) {
		return nil, errors.New("incremental: DriftThreshold is NaN")
	}
	if opts.DriftThreshold <= 0 {
		opts.DriftThreshold = 0.5
	}
	reg := opts.Registry
	if reg == nil {
		reg = opts.Tracer.Registry()
	}
	s := &Session{a: a, opts: opts, reg: reg, src: src, dst: dst}
	s.sa, _ = a.(algo.ScoringAligner)
	if s.sa == nil {
		return nil, ErrNotIncremental
	}
	s.is, _ = a.(algo.IncrementalScorer)
	sc, err := s.score(ctx, dst, nil)
	if err != nil {
		return nil, fmt.Errorf("scorer: %w", err)
	}
	s.scorer = s.own(sc)
	s.reserve = assign.TopK(s.scorer, s.depth(), opts.Workers)
	s.solve, s.augCol, s.augSeed = assign.Augment(s.reserve.Head(opts.TopK), s.scorer, nil, nil)
	s.coldSolve()
	reg.Counter("incr_sessions_total").Add(1)
	return s, nil
}

// Mapping returns a copy of the current alignment (mapping[u] = target node
// aligned to source node u).
func (s *Session) Mapping() []int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]int(nil), s.mapping...)
}

// Target returns the current (post-edits) target graph. Graphs are
// immutable, so the caller may read it freely.
func (s *Session) Target() *graph.Graph {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dst
}

// Source returns the session's fixed source graph.
func (s *Session) Source() *graph.Graph { return s.src }

// Applies returns the number of completed Apply calls.
func (s *Session) Applies() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.applies
}

// Apply applies one batch of target-graph edits and re-aligns. With an
// empty batch the refresh reproduces the previous state bitwise (the
// similarity stages are pure functions of the graphs), no candidate row
// goes dirty, the warm solve runs zero bidding rounds, and the mapping is
// byte-identical to the previous one.
func (s *Session) Apply(ctx context.Context, edits []graph.Edit) (ApplyStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := ApplyStats{Edits: len(edits), Noop: len(edits) == 0}
	newDst, err := graph.ApplyEdits(s.dst, edits)
	if err != nil {
		return st, err
	}
	run := s.opts.Tracer.StartRun(s.a.Name(), map[string]any{
		"mode":  "incremental-apply",
		"edits": len(edits),
		"n_dst": newDst.N(),
	})

	sp := run.Phase("refresh")
	t0 := time.Now()
	scope := dirtyScope(s.dst, newDst, edits, s.opts.DirtyHops)
	fresh, err := s.score(ctx, newDst, scope)
	var changedRows, changedCols []int
	if err == nil {
		changedRows, changedCols = s.patch(fresh, scope)
	}
	st.RefreshTime = time.Since(t0)
	sp.End()
	if err != nil {
		run.Set("err", err.Error())
		run.End()
		return st, fmt.Errorf("incremental refresh: %w", err)
	}
	st.ChangedRows, st.ChangedCols = len(changedRows), len(changedCols)

	sp = run.Phase("candidates")
	t1 := time.Now()
	// With ColTolerance > 0 the caller has already accepted bounded
	// staleness, so the merge-based candidate update (exact values, bounded
	// membership staleness, K-wide lists) runs; exact mode keeps the
	// bitwise-exact reserve update.
	if s.opts.ColTolerance > 0 {
		s.reserve, st.RescanRows = assign.MergeTopK(s.reserve, s.scorer, changedRows, changedCols, s.opts.Workers)
	} else {
		s.reserve, st.RescanRows = assign.UpdateTopK(s.reserve, s.scorer, changedRows, changedCols, s.opts.TopK, s.opts.Workers)
	}
	// The warm solve re-bids exactly the rows whose solver-facing list,
	// repair entry included, differs from the last solve's.
	prev := s.solve
	s.solve, s.augCol, s.augSeed = assign.Augment(s.reserve.Head(s.opts.TopK), s.scorer, s.augSeed, s.augCol)
	dirty := assign.DiffRows(prev, s.solve)
	st.CandidateTime = time.Since(t1)
	sp.Set("dirty_rows", len(dirty))
	sp.Set("rescan_rows", st.RescanRows)
	sp.End()
	st.DirtyRows = len(dirty)
	for _, j := range s.augCol {
		if j >= 0 {
			st.AugmentedRows++
		}
	}

	sp = run.Phase("solve")
	t2 := time.Now()
	tryWarm := float64(len(dirty)) <= s.opts.DriftThreshold*float64(s.solve.Rows)
	if tryWarm {
		mapping, state, stats, ok := assign.SolveAuctionWarm(s.solve, s.mapping, s.state, dirty, s.opts.Workers)
		if ok {
			s.mapping, s.state = mapping, state
			st.Warm, st.RebidRows, st.Rounds = true, stats.RebidRows, stats.Rounds
		} else {
			tryWarm = false
		}
	}
	if !tryWarm {
		s.coldSolve()
		s.reg.Counter("incr_cold_fallbacks_total").Add(1)
	}
	st.SolveTime = time.Since(t2)
	sp.Set("warm", st.Warm)
	sp.End()

	s.dst = newDst
	s.applies++
	s.reg.Counter("incr_applies_total").Add(1)
	if st.Noop {
		s.reg.Counter("incr_noop_total").Add(1)
	}
	s.reg.Histogram("incr_dirty_rows", obsv.SizeBuckets()).Observe(float64(st.DirtyRows))
	s.reg.Histogram("incr_rescan_rows", obsv.SizeBuckets()).Observe(float64(st.RescanRows))
	s.reg.Histogram("incr_dirty_cols", obsv.SizeBuckets()).Observe(float64(st.ChangedCols))
	s.reg.Histogram("incr_rebid_rounds", obsv.SizeBuckets()).Observe(float64(st.Rounds))
	s.reg.Histogram("incr_augmented_rows", obsv.SizeBuckets()).Observe(float64(st.AugmentedRows))
	run.End()
	return st, nil
}

// depth is the candidate reserve's per-row depth: 2·TopK for the exact
// update, whose lists must survive losing moved columns without a rescan
// (see assign.UpdateTopK), and TopK for the merge update.
func (s *Session) depth() int {
	if s.opts.ColTolerance > 0 {
		return s.opts.TopK
	}
	return 2 * s.opts.TopK
}

// score recomputes the similarity stage for the given target: through the
// aligner's refresher when it has one (it recomputes only inside the dirty
// scope and returns everything else bitwise from its captured state — the
// dominant per-apply saving), else by a full recompute whose row diff in
// patch finds what moved. A refresher's first call runs the same full
// pipeline, bitwise, and primes its state for the first Apply. A
// refresher's result is a read-only view of its state, valid until its next
// call (see algo.IncrementalScorer): patch only reads it, and own copies it
// where the session keeps it.
func (s *Session) score(ctx context.Context, dst *graph.Graph, scope []bool) (assign.Scorer, error) {
	if s.is != nil {
		return s.is.RefreshScorerCtx(ctx, s.src, dst, scope)
	}
	return s.sa.ScorerCtx(ctx, s.src, dst)
}

// own returns a scorer the session may keep and patch in place: a copy of
// a refresher's view (the refreshers return embeddings or factors), or a
// ScorerCtx result as is (those are private to the caller already).
func (s *Session) own(sc assign.Scorer) assign.Scorer {
	if s.is == nil {
		return sc
	}
	switch v := sc.(type) {
	case *assign.Embedding:
		return v.Clone()
	case *assign.FactorEmbedding:
		return v.Clone()
	}
	return sc
}

// patch folds a recomputed scorer into the session's effective one and
// returns the source rows and target columns whose inputs moved beyond
// ColTolerance (columns restricted to the dirty scope). Only those are
// copied in: rows within tolerance keep their previous values, so the
// effective scorer stays bitwise-consistent with the retained candidate
// lists — the contract assign.UpdateTopK requires — and staleness is
// measured against each row's last refresh, not the last apply. A row's
// inputs are its embedding vector, or its cross-term coefficient vector
// (Us[0][i], …, Us[r-1][i]) for factors. A change of type, shape, rank or
// factor weights rescales every score, so it replaces the scorer wholesale
// and marks everything changed (the candidate update then takes its bulk
// shortcut).
func (s *Session) patch(fresh assign.Scorer, scope []bool) (changedRows, changedCols []int) {
	tol := s.opts.ColTolerance
	switch cur := s.scorer.(type) {
	case *assign.Embedding:
		f, ok := fresh.(*assign.Embedding)
		if ok && f.Src.Cols == cur.Src.Cols && f.Src.Rows == cur.Src.Rows && f.Dst.Rows == cur.Dst.Rows {
			changedRows = changedDenseRows(cur.Src, f.Src, tol)
			changedCols = inScope(changedDenseRows(cur.Dst, f.Dst, tol), scope)
			for _, i := range changedRows {
				copy(cur.Src.Row(i), f.Src.Row(i))
			}
			for _, j := range changedCols {
				copy(cur.Dst.Row(j), f.Dst.Row(j))
			}
			return changedRows, changedCols
		}
	case *assign.FactorEmbedding:
		f, ok := fresh.(*assign.FactorEmbedding)
		if ok && f.Rank() == cur.Rank() && sameShape(f, cur) && sameWeights(f.Weights, cur.Weights) {
			changedRows = changedFactorRows(cur.Us, f.Us, tol)
			changedCols = inScope(changedFactorRows(cur.Vs, f.Vs, tol), scope)
			for t := range f.Us {
				for _, i := range changedRows {
					cur.Us[t][i] = f.Us[t][i]
				}
				for _, j := range changedCols {
					cur.Vs[t][j] = f.Vs[t][j]
				}
			}
			return changedRows, changedCols
		}
	}
	s.scorer = s.own(fresh)
	n, m := fresh.Shape()
	return allIndices(n), allIndices(m)
}

// sameShape reports whether two scorers have equal dimensions.
func sameShape(a, b assign.Scorer) bool {
	an, am := a.Shape()
	bn, bm := b.Shape()
	return an == bn && am == bm
}

// coldSolve runs the ε-scaling auction from scratch over s.solve, capturing
// its price vector for the next warm start; a tripped round cap or an
// unmatchable set degrades to the dense JV fallback, which yields no
// reusable auction state.
func (s *Session) coldSolve() {
	mapping, state, _, ok := assign.SolveAuction(s.solve, s.opts.Workers)
	if ok {
		s.mapping, s.state = mapping, state
		return
	}
	s.mapping, s.state = assign.SolveJV(s.scorer.Similarity()), assign.AuctionState{}
}

// dirtyScope returns the Options.DirtyHops target-side node filter: true
// for nodes within hops of an edited endpoint, walking both the pre- and
// post-edit adjacency (a removed edge's far side is only reachable through
// the old graph). nil means unrestricted (hops <= 0 or an empty batch). The
// walk stops once a hop finds no new node, so any hop count at or past the
// graph's diameter costs the same.
func dirtyScope(before, after *graph.Graph, edits []graph.Edit, hops int) []bool {
	if hops <= 0 || len(edits) == 0 {
		return nil
	}
	allowed := make([]bool, after.N())
	frontier := graph.Touched(edits)
	for _, u := range frontier {
		if u >= 0 && u < len(allowed) {
			allowed[u] = true
		}
	}
	for hop := 0; hop < hops && len(frontier) > 0; hop++ {
		var next []int
		for _, u := range frontier {
			for _, g := range [2]*graph.Graph{before, after} {
				if u < 0 || u >= g.N() {
					continue
				}
				for _, v := range g.Neighbors(u) {
					if !allowed[v] {
						allowed[v] = true
						next = append(next, v)
					}
				}
			}
		}
		frontier = next
	}
	return allowed
}

// inScope filters indices down to those the scope allows (nil allows all).
func inScope(indices []int, scope []bool) []int {
	if scope == nil {
		return indices
	}
	out := indices[:0]
	for _, i := range indices {
		if scope[i] {
			out = append(out, i)
		}
	}
	return out
}

// changedDenseRows returns the rows of fresh whose vectors moved beyond tol
// relative to old (see Options.ColTolerance), ascending.
func changedDenseRows(old, fresh *matrix.Dense, tol float64) []int {
	var changed []int
	for i := 0; i < old.Rows; i++ {
		if rowChanged(old.Row(i), fresh.Row(i), tol) {
			changed = append(changed, i)
		}
	}
	return changed
}

// changedFactorRows is changedDenseRows over a factor list's cross-term
// coefficient vectors: position i's vector is (lists[0][i], …,
// lists[r-1][i]).
func changedFactorRows(old, fresh [][]float64, tol float64) []int {
	if len(old) == 0 {
		return nil
	}
	var changed []int
	n := len(old[0])
	ov := make([]float64, len(old))
	fv := make([]float64, len(old))
	for i := 0; i < n; i++ {
		for t := range old {
			ov[t], fv[t] = old[t][i], fresh[t][i]
		}
		if rowChanged(ov, fv, tol) {
			changed = append(changed, i)
		}
	}
	return changed
}

// rowChanged implements the Options.ColTolerance comparison for one vector.
// At tolerance 0 it compares bits, so an unchanged NaN is unchanged; above
// it, an entry that is NaN on exactly one side has moved however far the
// others did, and so has a row whose ratio is NaN (an entry leaving or
// crossing ±Inf makes it Inf/Inf).
func rowChanged(old, fresh []float64, tol float64) bool {
	if tol == 0 {
		for t := range old {
			if math.Float64bits(old[t]) != math.Float64bits(fresh[t]) {
				return true
			}
		}
		return false
	}
	var maxDiff, maxAbs float64
	for t := range old {
		if (old[t] != old[t]) != (fresh[t] != fresh[t]) {
			return true
		}
		if d := math.Abs(fresh[t] - old[t]); d > maxDiff {
			maxDiff = d
		}
		if a := math.Abs(old[t]); a > maxAbs {
			maxAbs = a
		}
	}
	r := maxDiff / (maxAbs + 1e-12)
	return r > tol || r != r
}

// sameWeights compares factor weight vectors bitwise (nil means all-ones,
// distinct from any explicit vector of a different meaning only when
// lengths differ — the rank check upstream handles that).
func sameWeights(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allIndices returns [0, n).
func allIndices(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
