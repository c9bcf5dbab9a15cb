package lrea

import (
	"context"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
)

// This file implements algo.IncrementalScorer for LREA. Power iteration is
// self-correcting: started from the previous converged iterate instead of
// the uniform rank-one X_0, it re-approaches the perturbed dominant
// eigenvector in RefreshIters steps instead of the cold start's Iters —
// the bounded staleness the interface contract allows is whatever distance
// remains after those steps. Unlike the REGAL and NSD refreshers this does
// not shrink the candidate-update cost: the iteration's truncate step
// reorders terms by norm product, so essentially every factor entry differs
// from the previous bundle and the downstream top-k update degenerates to a
// bulk rebuild. The refresher still removes ~80% of the factor-computation
// cost; it is an honest improvement, not this package's headline speedup.

// refreshState is the retained iterate RefreshScorerCtx warm-starts from.
// f is owned by the state and handed out as a read-only view; iterate only
// reads its slices and returns fresh ones.
type refreshState struct {
	srcKey, dstKey string
	n, m           int
	f              *assign.FactorEmbedding
}

// RefreshScorerCtx implements algo.IncrementalScorer: ScorerCtx semantics
// against the current target, warm-starting the factored power iteration
// from the previous result; the dirty scope is ignored (every term is
// global). An unchanged target fingerprint
// returns the previous bundle bitwise; a new source fingerprint or changed
// node count falls back to a cold iteration.
func (l *LREA) RefreshScorerCtx(ctx context.Context, src, dst *graph.Graph, _ []bool) (assign.Scorer, error) {
	srcKey, dstKey := cache.GraphKey(src), cache.GraphKey(dst)
	st := l.state
	if st == nil || st.srcKey != srcKey || st.n != src.N() || st.m != dst.N() {
		f, err := l.computeFactors(ctx, src, dst)
		if err != nil {
			return nil, err
		}
		l.state = &refreshState{srcKey: srcKey, dstKey: dstKey, n: src.N(), m: dst.N(), f: f}
		return f, nil
	}
	if st.dstKey == dstKey {
		return st.f, nil
	}
	iters := l.RefreshIters
	if iters <= 0 {
		iters = 8
	}
	x, err := l.iterate(ctx, cache.Adjacency(l.cache, src), cache.Adjacency(l.cache, dst),
		factored{us: st.f.Us, vs: st.f.Vs}, iters)
	if err != nil {
		return nil, err
	}
	st.f = &assign.FactorEmbedding{Us: x.us, Vs: x.vs}
	st.dstKey = dstKey
	return st.f, nil
}
