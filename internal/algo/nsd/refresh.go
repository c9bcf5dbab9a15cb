package nsd

import (
	"context"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
)

// This file implements algo.IncrementalScorer for NSD. The factored power
// series splits cleanly by side: the source iterates z_c^(k) never see the
// target, so across target-side edit batches the whole Us half of the bundle
// is bitwise static, and a refresh only re-runs the w iterates — per
// component, Iters sparse MulVecs through the target's re-normalized
// adjacency — skipping the source iterates, the degree-class prior and its
// truncated SVD.
//
// The bounded staleness the algo.IncrementalScorer contract allows lives
// in the starting vectors: z_c^(0)/w_c^(0) come from the SVD of the degree
// prior captured at the last full compute and are frozen across refreshes,
// so degree drift from edits reaches the iteration only through the
// adjacency operator, not through a re-decomposed prior. Re-deriving them
// per batch would change every session's mapping; small edit batches
// perturb the prior's leading singular triplets marginally. A new source
// fingerprint or a changed node count on either side recaptures
// everything.

// refreshState is the captured factor bundle RefreshScorerCtx re-iterates
// across edit batches. f is owned by the state and handed out as a
// read-only view; its Vs[c·(iters+1)] entries are the frozen prior
// components and are never overwritten in place.
type refreshState struct {
	srcKey, dstKey string
	ns, nd         int
	iters, comps   int
	f              *assign.FactorEmbedding
}

// RefreshScorerCtx implements algo.IncrementalScorer: ScorerCtx semantics
// against the current target, reusing the previous capture's source
// iterates and frozen prior components. Every term is global, so the dirty
// scope is ignored. An unchanged target fingerprint returns the previous
// bundle bitwise.
func (n *NSD) RefreshScorerCtx(ctx context.Context, src, dst *graph.Graph, _ []bool) (assign.Scorer, error) {
	srcKey, dstKey := cache.GraphKey(src), cache.GraphKey(dst)
	st := n.state
	if st == nil || st.srcKey != srcKey || st.ns != src.N() || st.nd != dst.N() {
		return n.recapture(ctx, src, dst, srcKey, dstKey)
	}
	if st.dstKey == dstKey {
		return st.f, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	tDst := cache.RowNormalizedAdjacency(n.cache, dst)
	for c := 0; c < st.comps; c++ {
		base := c * (st.iters + 1)
		// MulVec returns fresh slices, so the frozen w_c^(0) at Vs[base] and
		// every already-stored iterate stay untouched.
		w := st.f.Vs[base]
		for k := 1; k <= st.iters; k++ {
			w = tDst.MulVec(w)
			st.f.Vs[base+k] = w
		}
	}
	st.dstKey = dstKey
	return st.f, nil
}

// recapture runs the full pipeline (degree-class prior, truncated SVD, both
// iterations) and replaces the instance state. It deliberately bypasses the
// artifact-cache memoization: an evolving target mints a new pair key per
// batch, and caching those bundles would only churn the budget.
func (n *NSD) recapture(ctx context.Context, src, dst *graph.Graph, srcKey, dstKey string) (assign.Scorer, error) {
	f, err := n.computeFactors(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	iters := n.Iters
	if iters <= 0 {
		iters = 15
	}
	n.state = &refreshState{
		srcKey: srcKey, dstKey: dstKey,
		ns: src.N(), nd: dst.N(),
		iters: iters, comps: len(f.Us) / (iters + 1),
		f: f,
	}
	return f, nil
}
