package algotest

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/assign"
	"graphalign/internal/cache"
	"graphalign/internal/graph"
	"graphalign/internal/matrix"
	"graphalign/internal/metrics"
	"graphalign/internal/noise"
	"graphalign/internal/partition"
)

// Conformance describes one aligner's entry in the cross-algorithm
// conformance suite (see RunConformance). N sizes the test instances —
// smaller for the expensive optimal-transport and embedding methods — and
// the thresholds encode how sharply each method recovers structure, matching
// the per-algorithm recovery bars the individual packages assert.
type Conformance struct {
	// Name labels the subtests.
	Name string
	// New builds a fresh aligner with default hyperparameters.
	New func() algo.Aligner
	// N is the instance size used by every check.
	N int
	// SelfMinAcc is the minimum accuracy required when aligning a graph
	// with itself (ground truth: identity).
	SelfMinAcc float64
	// RelabelTol bounds how much accuracy may change when the target's
	// nodes are relabeled by a random permutation. Zero means the strict
	// default of 0.15 — relabeling changes float summation orders, so exact
	// equality is not required, but the structural outcome must hold.
	RelabelTol float64
	// SparseTopK, when positive, additionally runs the sparse-pipeline
	// contracts with this per-row candidate count: sparse self-alignment
	// must clear SelfMinAcc, and aligners exposing a scorer
	// (algo.ScoringAligner) must produce candidates identical to dense top-k
	// selection over the materialized matrix.
	SparseTopK int
	// Partitioned, when positive, additionally runs the partition-align-
	// stitch contracts at this shard count: partitioned self-alignment must
	// recover structure near-perfectly (the boundary re-bid repairs what
	// the induced subgraphs lose), and partitioned relabel invariance must
	// hold at a loosened tolerance. The off switch (RunSpec.Partitions 0
	// or 1 must be byte-identical to the monolithic path) is guarded by
	// the root-level TestPartitionOffIdentity — it needs the core runner,
	// which this package cannot import without a cycle.
	Partitioned int
}

// RunConformance runs the four framework-level contracts every aligner
// must satisfy — self-alignment, relabeling invariance, cache
// byte-identity and cancellation — as subtests of t, plus the scorer
// contract for every algo.ScoringAligner.
func RunConformance(t *testing.T, cases []Conformance) {
	for _, c := range cases {
		c := c
		t.Run(c.Name+"/self_alignment", func(t *testing.T) {
			t.Parallel()
			CheckSelfAlignment(t, c.New(), c.N, c.SelfMinAcc)
		})
		t.Run(c.Name+"/relabel_invariance", func(t *testing.T) {
			t.Parallel()
			tol := c.RelabelTol
			if tol == 0 {
				tol = 0.15
			}
			CheckRelabelInvariance(t, c.New, c.N, tol)
		})
		t.Run(c.Name+"/cache_byte_identity", func(t *testing.T) {
			t.Parallel()
			CheckCacheByteIdentity(t, c.New, c.N)
		})
		t.Run(c.Name+"/cancellation", func(t *testing.T) {
			t.Parallel()
			CheckCancellation(t, c.New(), c.N)
		})
		if _, ok := c.New().(algo.ScoringAligner); ok {
			t.Run(c.Name+"/scorer_is_similarity", func(t *testing.T) {
				t.Parallel()
				CheckScorerIsSimilarity(t, c.New, c.N)
			})
		}
		if c.SparseTopK > 0 {
			t.Run(c.Name+"/sparse_self_alignment", func(t *testing.T) {
				t.Parallel()
				CheckSparseSelfAlignment(t, c.New(), c.N, c.SparseTopK, c.SelfMinAcc)
			})
			t.Run(c.Name+"/sparse_candidate_identity", func(t *testing.T) {
				t.Parallel()
				CheckSparseCandidateIdentity(t, c.New(), c.N, c.SparseTopK)
			})
		}
		if c.Partitioned > 0 {
			t.Run(c.Name+"/partitioned_self_alignment", func(t *testing.T) {
				t.Parallel()
				CheckPartitionedSelfAlignment(t, c.New, c.N, c.Partitioned)
			})
			t.Run(c.Name+"/partitioned_relabel_invariance", func(t *testing.T) {
				t.Parallel()
				tol := c.RelabelTol
				if tol == 0 {
					tol = 0.15
				}
				// Relabeling can flip chunk boundaries between structurally
				// tied nodes, which moves whole rows to different shards, so
				// the sharded path gets extra slack over the monolithic
				// tolerance (IsoRank measures a 0.26 swing at n=80, K=4).
				CheckPartitionedRelabelInvariance(t, c.New, c.N, c.Partitioned, tol+0.15)
			})
		}
	}
}

// partitionedSelfMinAcc is the quality bar for partitioned self-alignment
// at conformance sizes. The co-partition of identical graphs is identical
// chunk pairs, and the greedy boundary refinement (refine.Rounds) repairs
// the ties that near-empty low-degree shards leave behind, so every
// built-in aligner measures >= 0.96 here. 0.9 leaves margin for float
// variation across platforms while still catching a broken co-partition,
// stitch, or refinement pass outright.
const partitionedSelfMinAcc = 0.9

// CheckPartitionedSelfAlignment asserts the sharded path recovers an
// identity-dominant mapping when aligning a graph with itself: the
// co-partition of identical graphs is identical chunk pairs, so every shard
// aligns two copies of the same subgraph.
func CheckPartitionedSelfAlignment(t *testing.T, mk func() algo.Aligner, n, k int) {
	t.Helper()
	base := Pair(t, n, 0, 4242).Source
	identity := make([]int, base.N())
	for i := range identity {
		identity[i] = i
	}
	mapping, _, err := partition.Align(context.Background(),
		func() (algo.Aligner, error) { return mk(), nil },
		base, base, assign.JonkerVolgenant, partition.Options{K: k})
	if err != nil {
		t.Fatalf("partitioned self-alignment failed: %v", err)
	}
	if acc := metrics.Accuracy(mapping, identity); acc < partitionedSelfMinAcc {
		t.Errorf("partitioned self-alignment accuracy %.3f < %.3f", acc, partitionedSelfMinAcc)
	}
}

// CheckPartitionedRelabelInvariance is CheckRelabelInvariance through the
// sharded path: node signatures are label-invariant, so relabeling the
// target must not move accuracy by more than tol (loosened relative to the
// monolithic tolerance — chunk boundaries can flip between structurally
// tied nodes).
func CheckPartitionedRelabelInvariance(t *testing.T, mk func() algo.Aligner, n, k int, tol float64) {
	t.Helper()
	p := Pair(t, n, 0.02, 31337)
	run := func(q noise.Pair) float64 {
		mapping, _, err := partition.Align(context.Background(),
			func() (algo.Aligner, error) { return mk(), nil },
			q.Source, q.Target, assign.JonkerVolgenant, partition.Options{K: k})
		if err != nil {
			t.Fatalf("partitioned alignment failed: %v", err)
		}
		return metrics.Accuracy(mapping, q.TrueMap)
	}
	accBase := run(p)

	rng := rand.New(rand.NewSource(271828))
	perm := graph.RandomPermutation(p.Target.N(), rng)
	relabeled, err := graph.Permute(p.Target, perm)
	if err != nil {
		t.Fatal(err)
	}
	composed := make([]int, len(p.TrueMap))
	for u, v := range p.TrueMap {
		composed[u] = perm[v]
	}
	accRelabel := run(noise.Pair{Source: p.Source, Target: relabeled, TrueMap: composed})

	if d := accBase - accRelabel; d > tol || -d > tol {
		t.Errorf("partitioned accuracy moved %.3f -> %.3f under relabeling (tol %.2f)", accBase, accRelabel, tol)
	}
}

// CheckSelfAlignment asserts that aligning a graph with itself recovers an
// identity-dominant mapping: accuracy against the identity ground truth of
// at least minAcc. Automorphisms make a perfect score impossible in general
// (symmetric nodes are interchangeable), which is why thresholds sit below 1.
func CheckSelfAlignment(t *testing.T, a algo.Aligner, n int, minAcc float64) {
	t.Helper()
	base := Pair(t, n, 0, 4242).Source
	identity := make([]int, base.N())
	for i := range identity {
		identity[i] = i
	}
	res, err := algo.Run(context.Background(), a, base, base, algo.Plan{Method: assign.JonkerVolgenant})
	if err != nil {
		t.Fatalf("%s: self-alignment failed: %v", a.Name(), err)
	}
	if acc := metrics.Accuracy(res.Mapping, identity); acc < minAcc {
		t.Errorf("%s: self-alignment accuracy %.3f < %.3f", a.Name(), acc, minAcc)
	}
}

// CheckRelabelInvariance asserts the aligner's quality does not depend on
// how the target's nodes happen to be numbered: relabeling the target by a
// random permutation (with the ground truth composed accordingly) must keep
// accuracy within tol. Exact similarity equality is deliberately not
// required — relabeling reorders float summations — but the structural
// outcome may not hinge on node numbering.
func CheckRelabelInvariance(t *testing.T, mk func() algo.Aligner, n int, tol float64) {
	t.Helper()
	p := Pair(t, n, 0.02, 31337)
	accBase := Accuracy(t, mk(), p, assign.JonkerVolgenant)

	rng := rand.New(rand.NewSource(271828))
	perm := graph.RandomPermutation(p.Target.N(), rng)
	relabeled, err := graph.Permute(p.Target, perm)
	if err != nil {
		t.Fatal(err)
	}
	composed := make([]int, len(p.TrueMap))
	for u, v := range p.TrueMap {
		composed[u] = perm[v]
	}
	q := noise.Pair{Source: p.Source, Target: relabeled, TrueMap: composed}
	accRelabel := Accuracy(t, mk(), q, assign.JonkerVolgenant)

	if d := accBase - accRelabel; d > tol || -d > tol {
		t.Errorf("accuracy moved %.3f -> %.3f under relabeling (tol %.2f)", accBase, accRelabel, tol)
	}
}

// CheckSparseSelfAlignment is CheckSelfAlignment through the sparse
// assignment pipeline (per-row top-k candidates, ε-scaling auction): the
// reduced candidate set must still recover an identity-dominant mapping at
// the same bar as the dense solve — on self-alignment the true match is the
// strongest-scoring column, so top-k pruning must not lose it.
func CheckSparseSelfAlignment(t *testing.T, a algo.Aligner, n, topk int, minAcc float64) {
	t.Helper()
	base := Pair(t, n, 0, 4242).Source
	identity := make([]int, base.N())
	for i := range identity {
		identity[i] = i
	}
	res, err := algo.Run(context.Background(), a, base, base,
		algo.Plan{Method: assign.JonkerVolgenant, TopK: topk, Workers: 1})
	if err != nil {
		t.Fatalf("%s: sparse self-alignment failed: %v", a.Name(), err)
	}
	if acc := metrics.Accuracy(res.Mapping, identity); acc < minAcc {
		t.Errorf("%s: sparse self-alignment accuracy %.3f < %.3f", a.Name(), acc, minAcc)
	}
}

// CheckSparseCandidateIdentity asserts the scorer candidate contract for
// aligners exposing a scorer: candidates generated straight from it (never
// materializing the dense matrix) must equal dense top-k selection over the
// materialized matrix entry for entry — same columns, bitwise the same
// scores. Aligners without a scorer are skipped.
func CheckSparseCandidateIdentity(t *testing.T, a algo.Aligner, n, topk int) {
	t.Helper()
	p := Pair(t, n, 0.02, 99991)
	ctx := context.Background()

	sa, ok := a.(algo.ScoringAligner)
	if !ok {
		t.Skipf("%s exposes no scorer", a.Name())
	}
	s, err := sa.ScorerCtx(ctx, p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	sparse := assign.TopK(s, topk, 1)
	dense := assign.TopK(assign.DenseScorer{Sim: s.Similarity()}, topk, 1)
	if sparse.Rows != dense.Rows || sparse.Cols != dense.Cols || sparse.K != dense.K {
		t.Fatalf("%s: candidate shape (%d,%d,%d) vs dense (%d,%d,%d)", a.Name(),
			sparse.Rows, sparse.Cols, sparse.K, dense.Rows, dense.Cols, dense.K)
	}
	for i := range dense.Col {
		if sparse.Col[i] != dense.Col[i] || sparse.Val[i] != dense.Val[i] {
			t.Fatalf("%s: factored candidates diverge from dense top-k at flat %d: (%d,%v) vs (%d,%v)",
				a.Name(), i, sparse.Col[i], sparse.Val[i], dense.Col[i], dense.Val[i])
		}
	}
	if sparse.Len != nil {
		t.Errorf("%s: factored candidates pruned rows (Len=%v) on a finite similarity", a.Name(), sparse.Len)
	}
}

// CheckCacheByteIdentity asserts the tentpole cache contract at the aligner
// level: the similarity matrix computed with no cache, with a cold cache,
// and with a warm cache (every artifact a hit) are byte-identical. Aligners
// that do not implement algo.Cacheable still pass — for them this reduces
// to a determinism check.
func CheckCacheByteIdentity(t *testing.T, mk func() algo.Aligner, n int) {
	t.Helper()
	p := Pair(t, n, 0.02, 99991)

	uncached, err := mk().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}

	c := cache.New(0)
	for pass, label := range []string{"cold cache", "warm cache"} {
		a := mk()
		algo.ApplyCache(a, c)
		got, err := a.Similarity(context.Background(), p.Source, p.Target)
		if err != nil {
			t.Fatalf("%s (pass %d): %v", label, pass, err)
		}
		requireSameDense(t, label+" vs uncached", got, uncached)
	}
}

// CheckScorerIsSimilarity asserts the factored-similarity contract of an
// algo.ScoringAligner: the scorer's materialized matrix is bitwise the
// aligner's Similarity, with no cache, through a cold cache and through a
// warm one.
func CheckScorerIsSimilarity(t *testing.T, mk func() algo.Aligner, n int) {
	t.Helper()
	p := Pair(t, n, 0.02, 99991)
	ctx := context.Background()
	c := cache.New(0)
	for _, label := range []string{"uncached", "cold cache", "warm cache"} {
		a := mk()
		if label != "uncached" {
			algo.ApplyCache(a, c)
		}
		sim, err := a.Similarity(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		s, err := a.(algo.ScoringAligner).ScorerCtx(ctx, p.Source, p.Target)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		requireSameDense(t, label+": scorer vs Similarity", s.Similarity(), sim)
	}
}

// requireSameDense fails t unless got and want have the same shape and
// bitwise the same entries.
func requireSameDense(t *testing.T, what string, got, want *matrix.Dense) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", what, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range want.Data {
		if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: differs at index %d: %v vs %v", what, i, got.Data[i], want.Data[i])
		}
	}
}

// CheckCancellation asserts the aligner's Similarity honours its context
// itself, not only through algo.Similarity's pre-check: called directly
// with an already-cancelled ctx it must fail with an error that wraps
// context.Canceled.
func CheckCancellation(t *testing.T, a algo.Aligner, n int) {
	t.Helper()
	p := Pair(t, n, 0.02, 99991)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.Similarity(ctx, p.Source, p.Target); !errors.Is(err, context.Canceled) {
		t.Errorf("%s: Similarity under a cancelled ctx returned %v, want an error wrapping context.Canceled", a.Name(), err)
	}
}
