package linalg_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/algo"
	"graphalign/internal/algotest"
	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/linalg"
	"graphalign/internal/partition"
)

// priorPairs returns the graph pairs the degree-class SVD is pinned on:
// noisy powerlaw pairs at three sizes, a shard pair of unequal sides as
// partition.Align cuts it, and a pair with isolated nodes on both sides.
func priorPairs(t *testing.T) map[string][2]*graph.Graph {
	t.Helper()
	pairs := map[string][2]*graph.Graph{}
	for _, n := range []int{60, 200, 257} {
		p := algotest.Pair(t, n, 0.01, int64(n))
		pairs[fmt.Sprintf("pair/n%d", n)] = [2]*graph.Graph{p.Source, p.Target}
	}

	// A source with 10% fewer nodes makes every shard pair unequal.
	p := algotest.Pair(t, 400, 0.01, 5)
	kept := make([]int, 360)
	for i := range kept {
		kept[i] = i
	}
	whole, _ := graph.InducedSubgraph(p.Source, kept)
	cp := partition.Graphs(whole, p.Target, 4)
	for i := range cp.SrcClusters {
		if len(cp.SrcClusters[i]) != len(cp.DstClusters[i]) {
			src, _ := graph.InducedSubgraph(whole, cp.SrcClusters[i])
			dst, _ := graph.InducedSubgraph(p.Target, cp.DstClusters[i])
			pairs["shard"] = [2]*graph.Graph{src, dst}
			t.Logf("shard pair %d x %d", src.N(), dst.N())
			break
		}
	}
	if _, ok := pairs["shard"]; !ok {
		t.Fatal("no shard pair with ns != nd")
	}

	rng := rand.New(rand.NewSource(9))
	isolated := func(n, extra int) *graph.Graph {
		g, err := graph.New(n+extra, gen.PowerlawCluster(n, 3, 0.3, rng).Edges())
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	pairs["isolated"] = [2]*graph.Graph{isolated(70, 6), isolated(74, 4)}
	return pairs
}

func requireSameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, reference %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, reference %v", what, i, got[i], want[i])
		}
	}
}

// TestTruncatedSVDDegreeClassPriorBitwise pins NSD's prior decomposition:
// the randomized SVD run on the degree-class operator returns u, s and v
// bitwise equal to the materialized reference run on DegreePrior, at NSD's
// own rank, iteration count and RNG seed and at two other ranks.
func TestTruncatedSVDDegreeClassPriorBitwise(t *testing.T) {
	ctx := context.Background()
	for name, p := range priorPairs(t) {
		src, dst := p[0], p[1]
		dense := algo.DegreePrior(src, dst)
		op := algo.NewDegreeClassPrior(src, dst)
		for _, k := range []int{1, 3, 5} {
			gu, gs, gv, err := linalg.TruncatedSVDCtx(ctx, op, k, 3, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			wu, ws, wv, err := linalg.TruncatedSVDReference(ctx, dense, k, 3, rand.New(rand.NewSource(1)))
			if err != nil {
				t.Fatal(err)
			}
			what := fmt.Sprintf("%s/k%d", name, k)
			requireSameBits(t, what+" u", gu.Data, wu.Data)
			requireSameBits(t, what+" s", gs, ws)
			requireSameBits(t, what+" v", gv.Data, wv.Data)
			if gu.Rows != src.N() || gv.Rows != dst.N() {
				t.Fatalf("%s: u %dx%d, v %dx%d", what, gu.Rows, gu.Cols, gv.Rows, gv.Cols)
			}
		}
	}
}
