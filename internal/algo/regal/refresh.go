package regal

import (
	"context"
	"math"

	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
)

// This file implements algo.IncrementalScorer for REGAL. The xNetMF
// pipeline splits naturally at the signature matrix: everything downstream
// of a node's signature row (its landmark-similarity row and its projected,
// normalized embedding row) depends only on that row plus the landmark
// signatures and the Nyström projection. A refresh therefore recomputes
// signatures only inside the caller's dirty scope, reprojects the rows that
// drifted past RefreshTol, and keeps every other embedding row bitwise —
// turning the dominant per-apply cost from O((n1+n2)·p·d) into
// O(|scope|·deg^K + |drifted|·p·d).
//
// The Nyström basis itself — the landmark signatures, the kernel matrix W
// and the projection derived from its eigenpairs — is pinned at the last full
// capture: target-side landmarks keep their captured signature (and hence
// their captured embedding row) even when edits move their neighborhoods.
// Re-deriving the basis whenever any of the ~10·log2(n) landmarks drifts
// would recapture on virtually every batch (each landmark shadows a K-hop
// zone, and the zones jointly cover most of the graph), forfeiting
// incrementality; pinning instead bounds each refreshed row's error by the
// basis's own staleness, which the algo.IncrementalScorer contract
// allows. Fallbacks that do recapture the full pipeline: a new source
// fingerprint, a changed node count, or a changed bucket count (the
// signature histograms become incomparable).

// refreshState is the captured xNetMF pipeline RefreshScorerCtx patches
// across edit batches.
type refreshState struct {
	srcKey, dstKey string
	n1, n2         int
	buckets        int
	sig            *matrix.Dense // (n1+n2) × buckets joint signatures
	landmarks      []int         // indices into the joint node set
	scaled         *matrix.Dense // p × rank Nyström projection (C row → y row)
	ySrc, yDst     *matrix.Dense // current normalized embeddings
	// pinned flags the target-side landmarks: their signatures anchor the
	// captured basis and are never refreshed in place (lazily built on the
	// first refresh).
	pinned []bool
}

// pinnedDst returns the target-side landmark flags, building them on first
// use.
func (st *refreshState) pinnedDst() []bool {
	if st.pinned == nil {
		st.pinned = make([]bool, st.n2)
		for _, l := range st.landmarks {
			if l >= st.n1 {
				st.pinned[l-st.n1] = true
			}
		}
	}
	return st.pinned
}

// embedding returns the state's embeddings as an assign.Embedding view: it
// aliases the state, which the next refresh patches in place (the
// algo.IncrementalScorer contract: read-only, valid until the next call).
func (st *refreshState) embedding() *assign.Embedding {
	return &assign.Embedding{Src: st.ySrc, Dst: st.yDst, SimFromDist2: ExpKernel}
}

// sigDrifted reports whether a recomputed signature row moved beyond tol
// relative to the stored one: tol <= 0 means any bitwise difference (an
// unchanged NaN is unchanged), a positive tol compares the largest absolute
// difference against the largest magnitude (the same relative metric the
// incremental session applies to embedding rows), and an entry that is NaN
// on exactly one side has drifted, as has a row whose ratio is NaN (an
// entry reaching, leaving or crossing ±Inf makes it Inf/Inf).
func sigDrifted(old, fresh []float64, tol float64) bool {
	if tol <= 0 {
		for i := range old {
			if math.Float64bits(old[i]) != math.Float64bits(fresh[i]) {
				return true
			}
		}
		return false
	}
	var maxDiff, maxAbs float64
	for i := range old {
		if (old[i] != old[i]) != (fresh[i] != fresh[i]) {
			return true
		}
		if d := math.Abs(old[i] - fresh[i]); d > maxDiff {
			maxDiff = d
		}
		if a := math.Abs(old[i]); a > maxAbs {
			maxAbs = a
		}
		if a := math.Abs(fresh[i]); a > maxAbs {
			maxAbs = a
		}
	}
	r := maxDiff / (maxAbs + 1e-12)
	return r > tol || r != r
}

// RefreshScorerCtx implements algo.IncrementalScorer: ScorerCtx
// semantics, but reusing the previous capture where the target's edits
// cannot have reached. scope (nil = all) flags the target nodes whose
// signatures may have changed — for REGAL that is every node within K hops
// of an edited edge's endpoints. An unchanged target fingerprint returns the
// previous embeddings bitwise; see the file comment for the full-recapture
// fallbacks.
func (r *REGAL) RefreshScorerCtx(ctx context.Context, src, dst *graph.Graph, scope []bool) (assign.Scorer, error) {
	srcKey, dstKey := cache.GraphKey(src), cache.GraphKey(dst)
	st := r.state
	if st == nil || st.srcKey != srcKey || st.n2 != dst.N() {
		return r.recapture(ctx, src, dst)
	}
	if st.dstKey == dstKey {
		return st.embedding(), nil
	}
	maxDeg := src.MaxDegree()
	if d := dst.MaxDegree(); d > maxDeg {
		maxDeg = d
	}
	if bucketCount(maxDeg) != st.buckets {
		return r.recapture(ctx, src, dst)
	}

	// Recompute signatures inside the scope; only rows that drift past
	// RefreshTol are reprojected (their old signature stays authoritative
	// otherwise, keeping C consistent with the stored projection). Landmarks
	// are pinned — see the file comment.
	pinned := st.pinnedDst()
	dstSig := r.newSigner(dst, st.buckets)
	fresh := make([]float64, st.buckets)
	var drifted []int
	for u := 0; u < st.n2; u++ {
		if pinned[u] || (scope != nil && !scope[u]) {
			continue
		}
		dstSig.row(u, fresh)
		old := st.sig.Row(st.n1 + u)
		if !sigDrifted(old, fresh, r.RefreshTol) {
			continue
		}
		copy(old, fresh)
		drifted = append(drifted, st.n1+u)
	}

	// Reproject the drifted rows against the (unchanged) landmark
	// signatures through the full pipeline's own projection: bitwise what it
	// would store for the same signature rows. A cancelled projection leaves
	// signatures ahead of their rows, so the state is dropped and the next
	// call recaptures.
	if err := st.project(ctx, drifted, r.GammaStruc); err != nil {
		r.state = nil
		return nil, err
	}
	st.dstKey = dstKey
	return st.embedding(), nil
}

// recapture runs the full pipeline and replaces the instance state.
func (r *REGAL) recapture(ctx context.Context, src, dst *graph.Graph) (assign.Scorer, error) {
	st, err := r.embedState(ctx, src, dst)
	if err != nil {
		return nil, err
	}
	r.state = st
	return st.embedding(), nil
}
