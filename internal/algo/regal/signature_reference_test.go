package regal

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
)

// signatureRowReference is REGAL's signature row as it stood before the hop
// walker and the bucket table: a fresh distance map per node and the log
// bucket evaluated on every visit. It is kept as the oracle for signer.
func signatureRowReference(r *REGAL, g *graph.Graph, u, buckets int, row []float64) {
	for i := range row {
		row[i] = 0
	}
	hops := make([][]int, r.K)
	dist := map[int]int{u: 0}
	frontier := []int{u}
	for h := 1; h <= r.K && len(frontier) > 0; h++ {
		var next []int
		for _, x := range frontier {
			for _, v := range g.Neighbors(x) {
				if _, ok := dist[v]; !ok {
					dist[v] = h
					next = append(next, v)
				}
			}
		}
		hops[h-1] = next
		frontier = next
	}
	w := 1.0
	for _, hop := range hops {
		for _, v := range hop {
			d := g.Degree(v)
			if d < 1 {
				continue
			}
			b := int(math.Log2(float64(d)))
			if b >= buckets {
				b = buckets - 1
			}
			row[b] += w
		}
		w *= r.Delta
	}
}

// TestSignerMatchesReference pins every signature row bitwise to the
// map-based reference for K in {1, 2, 3}, on graphs with isolated nodes,
// disconnected components and a hub, including a bucket count below the
// hub's so the cap is exercised.
func TestSignerMatchesReference(t *testing.T) {
	var hub []graph.Edge
	for v := 1; v <= 40; v++ {
		hub = append(hub, graph.Edge{U: 0, V: v})
	}
	for v := 1; v < 40; v += 2 {
		hub = append(hub, graph.Edge{U: v, V: v + 1})
	}
	hub = append(hub, graph.Edge{U: 40, V: 41}, graph.Edge{U: 41, V: 42}, graph.Edge{U: 44, V: 45})
	graphs := []*graph.Graph{
		graph.MustNew(5, nil),
		graph.MustNew(10, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 0}, {U: 2, V: 3}, {U: 5, V: 6}, {U: 6, V: 7}, {U: 7, V: 8}}),
		graph.MustNew(47, hub),
		gen.PowerlawCluster(300, 3, 0.3, rand.New(rand.NewSource(4))),
	}
	for gi, g := range graphs {
		for _, K := range []int{1, 2, 3} {
			r := New()
			r.K = K
			full := bucketCount(g.MaxDegree())
			for _, buckets := range []int{full, max(1, full-2)} {
				s := r.newSigner(g, buckets)
				got := make([]float64, buckets)
				want := make([]float64, buckets)
				for u := 0; u < g.N(); u++ {
					s.row(u, got)
					signatureRowReference(r, g, u, buckets, want)
					for b := range want {
						if math.Float64bits(got[b]) != math.Float64bits(want[b]) {
							t.Fatalf("graph %d, K=%d, buckets=%d, node %d: row %v, want %v", gi, K, buckets, u, got, want)
						}
					}
				}
			}
		}
	}
}

// BenchmarkSignatures computes every structural signature row of one
// Holme–Kim powerlaw graph (m=5, p=0.5, the evolving workload's shape),
// signer set-up included, as embedState and each refresh do.
func BenchmarkSignatures(b *testing.B) {
	for _, n := range []int{600, 4000} {
		g := gen.PowerlawCluster(n, 5, 0.5, rand.New(rand.NewSource(1)))
		r := New()
		buckets := bucketCount(g.MaxDegree())
		row := make([]float64, buckets)
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s := r.newSigner(g, buckets)
				for u := 0; u < n; u++ {
					s.row(u, row)
				}
			}
		})
	}
}
