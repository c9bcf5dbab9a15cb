package graph

import (
	"math/rand"
	"reflect"
	"testing"
)

// kHopNeighborhoodsReference is the map-based k-hop walk HopWalker
// replaced: a fresh distance map per call. It is kept as the oracle for
// the walker.
func kHopNeighborhoodsReference(g *Graph, u, K int) [][]int {
	hops := make([][]int, K)
	dist := map[int]int{u: 0}
	frontier := []int{u}
	for h := 1; h <= K && len(frontier) > 0; h++ {
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
	return hops
}

// hopTestGraphs are the walker's oracle inputs: isolated nodes, two
// disconnected components, a hub, and a seeded random graph.
func hopTestGraphs() []*Graph {
	hub := make([]Edge, 0, 40)
	for v := 1; v <= 30; v++ {
		hub = append(hub, Edge{0, v})
	}
	for v := 1; v < 30; v += 3 {
		hub = append(hub, Edge{v, v + 1})
	}
	hub = append(hub, Edge{30, 31}, Edge{31, 32}, Edge{32, 33})
	rng := rand.New(rand.NewSource(3))
	var random []Edge
	seen := map[Edge]bool{}
	for len(random) < 120 {
		e := Edge{rng.Intn(80), rng.Intn(80)}.Canon()
		if e.U != e.V && !seen[e] {
			seen[e] = true
			random = append(random, e)
		}
	}
	return []*Graph{
		MustNew(4, nil), // isolated nodes only
		MustNew(9, []Edge{{0, 1}, {1, 2}, {2, 3}, {5, 6}, {6, 7}, {7, 5}}), // two components, isolated 4 and 8
		MustNew(36, hub), // hub, chain, isolated 34 and 35
		MustNew(80, random),
	}
}

// TestHopWalkerMatchesReference pins the walker to the map-based walk, hop
// by hop and in the same discovery order, with one walker reused across
// every root.
func TestHopWalkerMatchesReference(t *testing.T) {
	for gi, g := range hopTestGraphs() {
		w := NewHopWalker(g)
		for _, K := range []int{1, 2, 3} {
			for u := 0; u < g.N(); u++ {
				got := w.Hops(u, K)
				want := kHopNeighborhoodsReference(g, u, K)
				if len(got) != len(want) {
					t.Fatalf("graph %d, K=%d, u=%d: %d hops, want %d", gi, K, u, len(got), len(want))
				}
				for h := range want {
					if len(got[h]) != len(want[h]) || (len(want[h]) > 0 && !reflect.DeepEqual(got[h], want[h])) {
						t.Fatalf("graph %d, K=%d, u=%d, hop %d: %v, want %v", gi, K, u, h+1, got[h], want[h])
					}
				}
			}
		}
	}
}
