package graph

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestPermuteBasic(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}, {1, 2}})
	perm := []int{2, 0, 1} // node u -> perm[u]
	p, err := Permute(g, perm)
	if err != nil {
		t.Fatal(err)
	}
	// Edge (0,1) -> (2,0); edge (1,2) -> (0,1).
	if !p.HasEdge(2, 0) || !p.HasEdge(0, 1) || p.HasEdge(1, 2) {
		t.Errorf("permuted edges wrong: %v", p.Edges())
	}
}

func TestPermuteErrors(t *testing.T) {
	g := MustNew(3, []Edge{{0, 1}})
	if _, err := Permute(g, []int{0, 1}); err == nil {
		t.Error("short permutation accepted")
	}
	if _, err := Permute(g, []int{0, 0, 1}); err == nil {
		t.Error("non-bijective permutation accepted")
	}
	if _, err := Permute(g, []int{0, 1, 5}); err == nil {
		t.Error("out-of-range permutation accepted")
	}
}

func TestInversePermutation(t *testing.T) {
	perm := []int{2, 0, 3, 1}
	inv := InversePermutation(perm)
	for i, p := range perm {
		if inv[p] != i {
			t.Fatalf("inv[perm[%d]] = %d, want %d", i, inv[p], i)
		}
	}
	id := IdentityPermutation(4)
	if !reflect.DeepEqual(InversePermutation(id), id) {
		t.Error("identity permutation should be self-inverse")
	}
}

func TestPropertyPermutePreservesDegreeMultiset(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(25, 0.2, seed)
		perm := RandomPermutation(g.N(), rng)
		p, err := Permute(g, perm)
		if err != nil {
			return false
		}
		d1 := g.Degrees()
		d2 := p.Degrees()
		sort.Ints(d1)
		sort.Ints(d2)
		return reflect.DeepEqual(d1, d2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestPropertyPermuteRoundtrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomGraph(20, 0.2, seed)
		perm := RandomPermutation(g.N(), rng)
		p, err := Permute(g, perm)
		if err != nil {
			return false
		}
		back, err := Permute(p, InversePermutation(perm))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(back.Edges(), g.Edges())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestConnectedComponents(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1}, {1, 2}, {3, 4}})
	labels, k := ConnectedComponents(g)
	if k != 3 {
		t.Fatalf("k = %d, want 3", k)
	}
	if labels[0] != labels[1] || labels[1] != labels[2] {
		t.Error("nodes 0,1,2 should share a component")
	}
	if labels[3] != labels[4] {
		t.Error("nodes 3,4 should share a component")
	}
	if labels[5] == labels[0] || labels[5] == labels[3] {
		t.Error("node 5 should be isolated")
	}
	if _, k := ConnectedComponents(triangle(t)); k != 1 {
		t.Errorf("triangle has %d components, want 1", k)
	}
	_, k1 := ConnectedComponents(MustNew(1, nil))
	_, k0 := ConnectedComponents(MustNew(0, nil))
	if k1 != 1 || k0 != 0 {
		t.Errorf("trivial graphs have %d and %d components, want 1 and 0", k1, k0)
	}
}

func TestLargestComponent(t *testing.T) {
	g := MustNew(7, []Edge{{0, 1}, {1, 2}, {2, 0}, {3, 4}, {5, 6}})
	sub, orig := LargestComponent(g)
	if sub.N() != 3 || sub.M() != 3 {
		t.Fatalf("largest component n=%d m=%d, want triangle", sub.N(), sub.M())
	}
	sort.Ints(orig)
	if !reflect.DeepEqual(orig, []int{0, 1, 2}) {
		t.Errorf("origID = %v", orig)
	}
	// Connected graph: returns an equivalent copy.
	tr := triangle(t)
	sub2, orig2 := LargestComponent(tr)
	if sub2.N() != 3 || len(orig2) != 3 {
		t.Error("largest component of a connected graph should be itself")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}})
	sub, newID := InducedSubgraph(g, []int{0, 1, 2})
	if sub.N() != 2+1 || sub.M() != 2 {
		t.Fatalf("induced subgraph n=%d m=%d, want 3/2", sub.N(), sub.M())
	}
	if !sub.HasEdge(newID[0], newID[1]) || !sub.HasEdge(newID[1], newID[2]) {
		t.Error("induced edges missing")
	}
	if sub.HasEdge(newID[0], newID[2]) {
		t.Error("non-edge appeared in induced subgraph")
	}
}

func TestBFSDistances(t *testing.T) {
	g := MustNew(5, []Edge{{0, 1}, {1, 2}, {2, 3}})
	d := BFSDistances(g, 0)
	want := []int{0, 1, 2, 3, -1}
	if !reflect.DeepEqual(d, want) {
		t.Errorf("BFS = %v, want %v", d, want)
	}
}

func TestKHopNeighborhoods(t *testing.T) {
	g := MustNew(6, []Edge{{0, 1}, {0, 2}, {1, 3}, {2, 4}, {4, 5}})
	w := NewHopWalker(g)
	hops := w.Hops(0, 3)
	sets := make([][]int, len(hops))
	for i, h := range hops {
		sets[i] = append([]int(nil), h...)
		sort.Ints(sets[i])
	}
	if !reflect.DeepEqual(sets[0], []int{1, 2}) {
		t.Errorf("hop1 = %v", sets[0])
	}
	if !reflect.DeepEqual(sets[1], []int{3, 4}) {
		t.Errorf("hop2 = %v", sets[1])
	}
	if !reflect.DeepEqual(sets[2], []int{5}) {
		t.Errorf("hop3 = %v", sets[2])
	}

	// The same walker from a second root: the first walk's stamps and
	// buffers must not leak into it.
	hops = w.Hops(5, 3)
	want := [][]int{{4}, {2}, {0}}
	if !reflect.DeepEqual(hops, want) {
		t.Errorf("hops from 5 = %v, want %v", hops, want)
	}
}

func TestTriangleCount(t *testing.T) {
	cases := []struct {
		g    *Graph
		want int
	}{
		{triangle(t), 1},
		{MustNew(4, []Edge{{0, 1}, {1, 2}, {2, 3}}), 0},
		{MustNew(4, []Edge{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}), 4}, // K4
	}
	for i, c := range cases {
		if got := TriangleCount(c.g); got != c.want {
			t.Errorf("case %d: triangles = %d, want %d", i, got, c.want)
		}
	}
}

func TestClusteringCoefficient(t *testing.T) {
	if got := ClusteringCoefficient(triangle(t)); got != 1 {
		t.Errorf("triangle clustering = %v, want 1", got)
	}
	path := MustNew(3, []Edge{{0, 1}, {1, 2}})
	if got := ClusteringCoefficient(path); got != 0 {
		t.Errorf("path clustering = %v, want 0", got)
	}
	if got := ClusteringCoefficient(MustNew(2, []Edge{{0, 1}})); got != 0 {
		t.Errorf("no-wedge graph clustering = %v, want 0", got)
	}
}
