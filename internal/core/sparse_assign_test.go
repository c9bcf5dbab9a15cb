package core

import (
	"context"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algo/isorank"
	"graphalign/internal/algo/lrea"
	"graphalign/internal/algo/nsd"
	"graphalign/internal/algo/regal"
	"graphalign/internal/assign"
	"graphalign/internal/noise"
)

// runOnce is RunInstance on the given aligner instance, without the mapping.
// It suits monolithic runs only: a partitioned run would share a across its
// concurrent shards.
func runOnce(ctx context.Context, a algo.Aligner, p noise.Pair, method assign.Method, spec RunSpec) RunResult {
	res, _ := RunInstance(ctx, instance(a), p, method, spec)
	return res
}

// instance adapts one aligner to RunInstance's constructor argument.
func instance(a algo.Aligner) func() (algo.Aligner, error) {
	return func() (algo.Aligner, error) { return a, nil }
}

// sparseCase is one entry of the sparse-pipeline table: an aligner, whether
// it must expose a scorer (so the dense matrix is never materialized), the
// methods to run, and whether its sparse accuracy must reach the dense
// pipeline's (true for factors, whose top-k is bitwise dense top-k over the
// densified matrix).
type sparseCase struct {
	a         algo.Aligner
	scorer    bool
	methods   []assign.Method
	atLeastJV bool
}

// checkSparseRun runs each case through RunSpec.AssignTopK and checks the
// result is a valid scored mapping with measured assignment time.
func checkSparseRun(t *testing.T, cases ...sparseCase) {
	t.Helper()
	p := smallPair(t)
	for _, c := range cases {
		if _, ok := c.a.(algo.ScoringAligner); ok != c.scorer {
			t.Fatalf("%s: implements algo.ScoringAligner = %v, want %v", c.a.Name(), ok, c.scorer)
		}
		for _, method := range c.methods {
			res := runOnce(context.Background(), c.a, p, method, RunSpec{AssignTopK: 10})
			if res.Err != nil {
				t.Fatalf("%s %s: %v", c.a.Name(), method, res.Err)
			}
			if res.Scores.Accuracy < 0 || res.Scores.Accuracy > 1 {
				t.Fatalf("%s %s: accuracy %v out of range", c.a.Name(), method, res.Scores.Accuracy)
			}
			if res.AssignTime <= 0 {
				t.Errorf("%s %s: assignment time not measured", c.a.Name(), method)
			}
			// MNC is only defined over valid mappings; a negative value would
			// signal a malformed extraction.
			if res.Scores.MNC < 0 {
				t.Errorf("%s %s: MNC %v negative", c.a.Name(), method, res.Scores.MNC)
			}
			if !c.atLeastJV {
				continue
			}
			dense := runOnce(context.Background(), c.a, p, method, RunSpec{})
			if dense.Err != nil {
				t.Fatalf("%s dense: %v", c.a.Name(), dense.Err)
			}
			if res.Scores.Accuracy < dense.Scores.Accuracy-1e-12 {
				t.Fatalf("%s: factored sparse accuracy %v below dense %v",
					c.a.Name(), res.Scores.Accuracy, dense.Scores.Accuracy)
			}
		}
	}
}

var allSparseMethods = []assign.Method{assign.JonkerVolgenant, assign.NearestNeighbor, assign.SortGreedy}

// TestRunInstanceSpecSparseDense: a dense-only aligner (IsoRank) reaches the
// sparse pipeline through bounded-heap selection over its matrix, on every
// dense method it can map from.
func TestRunInstanceSpecSparseDense(t *testing.T) {
	checkSparseRun(t, sparseCase{a: isorank.New(), methods: allSparseMethods})
}

// TestRunInstanceSpecSparseEmbedding: REGAL's scorer is an embedding, so
// candidates come from k-NN search with no dense similarity matrix.
func TestRunInstanceSpecSparseEmbedding(t *testing.T) {
	checkSparseRun(t, sparseCase{a: regal.New(), scorer: true, methods: allSparseMethods})
}

// TestRunInstanceSpecSparseFactored: NSD's and LREA's scorers are factor
// lists; candidates are scored against them with no dense matrix, and with
// the same solver family the result must not lose accuracy to the dense
// pipeline.
func TestRunInstanceSpecSparseFactored(t *testing.T) {
	checkSparseRun(t,
		sparseCase{a: nsd.New(), scorer: true, methods: []assign.Method{assign.JonkerVolgenant}, atLeastJV: true},
		sparseCase{a: lrea.New(), scorer: true, methods: []assign.Method{assign.JonkerVolgenant}, atLeastJV: true})
}

// TestRunInstanceSpecSparseMatchesAcrossWorkers: the sparse pipeline is
// deterministic in the worker count.
func TestRunInstanceSpecSparseMatchesAcrossWorkers(t *testing.T) {
	p := smallPair(t)
	ref := runOnce(context.Background(), isorank.New(), p, assign.JonkerVolgenant,
		RunSpec{AssignTopK: 10, Workers: 1})
	if ref.Err != nil {
		t.Fatal(ref.Err)
	}
	for _, workers := range []int{2, 4} {
		res := runOnce(context.Background(), isorank.New(), p, assign.JonkerVolgenant,
			RunSpec{AssignTopK: 10, Workers: workers})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		// Scores are a pure function of the mapping, so equal scores across
		// worker counts witness the determinism contract end to end.
		if res.Scores != ref.Scores {
			t.Fatalf("workers=%d: scores %+v != serial %+v", workers, res.Scores, ref.Scores)
		}
	}
}

// TestRunInstanceSpecZeroTopKUnchanged: AssignTopK=0 must reproduce the
// dense pipeline exactly (the byte-identity contract the golden test checks
// end to end): the mapping is JV over the aligner's own matrix.
func TestRunInstanceSpecZeroTopKUnchanged(t *testing.T) {
	p := smallPair(t)
	sim, err := isorank.New().Similarity(context.Background(), p.Source, p.Target)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assign.Solve(assign.JonkerVolgenant, sim)
	if err != nil {
		t.Fatal(err)
	}
	res, got := RunInstance(context.Background(), instance(isorank.New()), p, assign.JonkerVolgenant, RunSpec{})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	for u := range want {
		if got[u] != want[u] {
			t.Fatalf("mapping[%d] = %d, want %d", u, got[u], want[u])
		}
	}
}
