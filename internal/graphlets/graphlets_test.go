package graphlets

import (
	"fmt"
	"math/rand"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
)

func count(t *testing.T, n int, edges []graph.Edge) Counts {
	t.Helper()
	return Count(graph.MustNew(n, edges))
}

func TestOrbit0IsDegree(t *testing.T) {
	g := graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	c := Count(g)
	for u := 0; u < 4; u++ {
		if int(c[u][0]) != g.Degree(u) {
			t.Errorf("orbit0[%d] = %v, want degree %d", u, c[u][0], g.Degree(u))
		}
	}
}

func TestTriangleOrbits(t *testing.T) {
	c := count(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}})
	for u := 0; u < 3; u++ {
		if c[u][3] != 1 {
			t.Errorf("triangle orbit3[%d] = %v, want 1", u, c[u][3])
		}
		if c[u][1] != 0 || c[u][2] != 0 {
			t.Errorf("triangle has no open 2-paths: node %d = %v", u, c[u])
		}
	}
}

func TestPath3Orbits(t *testing.T) {
	// 0-1-2: ends are orbit 1, middle is orbit 2.
	c := count(t, 3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if c[0][1] != 1 || c[2][1] != 1 {
		t.Errorf("path ends: %v %v", c[0], c[2])
	}
	if c[1][2] != 1 {
		t.Errorf("path middle: %v", c[1])
	}
}

func TestPath4Orbits(t *testing.T) {
	// 0-1-2-3.
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}})
	if c[0][4] != 1 || c[3][4] != 1 {
		t.Errorf("P4 ends: %v %v", c[0], c[3])
	}
	if c[1][5] != 1 || c[2][5] != 1 {
		t.Errorf("P4 middles: %v %v", c[1], c[2])
	}
}

func TestClawOrbits(t *testing.T) {
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}})
	if c[0][7] != 1 {
		t.Errorf("claw center orbit7 = %v", c[0][7])
	}
	for u := 1; u < 4; u++ {
		if c[u][6] != 1 {
			t.Errorf("claw leaf orbit6[%d] = %v", u, c[u][6])
		}
	}
}

func TestC4Orbits(t *testing.T) {
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 0}})
	for u := 0; u < 4; u++ {
		if c[u][8] != 1 {
			t.Errorf("C4 orbit8[%d] = %v", u, c[u][8])
		}
	}
}

func TestPawOrbits(t *testing.T) {
	// Triangle 0-1-2 plus pendant 3 attached to 0.
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 0, V: 2}, {U: 0, V: 3}})
	if c[3][9] != 1 {
		t.Errorf("paw tail orbit9 = %v", c[3])
	}
	if c[0][10] != 1 {
		t.Errorf("paw attachment orbit10 = %v", c[0])
	}
	if c[1][11] != 1 || c[2][11] != 1 {
		t.Errorf("paw triangle nodes orbit11 = %v %v", c[1], c[2])
	}
}

func TestDiamondOrbits(t *testing.T) {
	// K4 minus edge (0,3).
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	if c[0][12] != 1 || c[3][12] != 1 {
		t.Errorf("diamond degree-2 nodes: %v %v", c[0], c[3])
	}
	if c[1][13] != 1 || c[2][13] != 1 {
		t.Errorf("diamond degree-3 nodes: %v %v", c[1], c[2])
	}
}

func TestK4Orbits(t *testing.T) {
	c := count(t, 4, []graph.Edge{{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 1, V: 2}, {U: 1, V: 3}, {U: 2, V: 3}})
	for u := 0; u < 4; u++ {
		if c[u][14] != 1 {
			t.Errorf("K4 orbit14[%d] = %v", u, c[u][14])
		}
		// K4 contains no induced paw/diamond/cycle/path/star.
		for _, o := range []int{4, 5, 6, 7, 8, 9, 10, 11, 12, 13} {
			if c[u][o] != 0 {
				t.Errorf("K4 node %d has spurious orbit %d = %v", u, o, c[u][o])
			}
		}
	}
}

// bruteForceCount is the exhaustive oracle: orbits 0-3 from every node
// pair and triple, orbits 4-14 by classifying the induced subgraph on every
// connected 4-subset.
func bruteForceCount(g *graph.Graph) Counts {
	n := g.N()
	c := make(Counts, n)
	for u := range c {
		c[u] = make([]float64, NumOrbits)
		c[u][0] = float64(g.Degree(u))
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			for x := b + 1; x < n; x++ {
				classify3(g, []int{a, b, x}, c)
				for y := x + 1; y < n; y++ {
					classify4(g, []int{a, b, x, y}, c)
				}
			}
		}
	}
	return c
}

// inducedDegrees returns each member's degree inside the subgraph induced
// by sub, and its edge count.
func inducedDegrees(g *graph.Graph, sub []int) (deg []int, edges int) {
	deg = make([]int, len(sub))
	for i := range sub {
		for j := i + 1; j < len(sub); j++ {
			if g.HasEdge(sub[i], sub[j]) {
				deg[i]++
				deg[j]++
				edges++
			}
		}
	}
	return deg, edges
}

// classify3 credits the orbits of a connected induced 3-node subgraph.
func classify3(g *graph.Graph, sub []int, c Counts) {
	deg, edges := inducedDegrees(g, sub)
	for i, d := range deg {
		switch {
		case edges == 3:
			c[sub[i]][3]++
		case edges == 2 && d == 1:
			c[sub[i]][1]++
		case edges == 2 && d == 2:
			c[sub[i]][2]++
		}
	}
}

// classify4 credits the orbits of the induced 4-node subgraph when it is
// connected. Without an isolated member the only disconnected case is two
// disjoint edges (2 edges); otherwise the edge count, the maximum degree
// and a node's own degree fix the graphlet and the node's orbit.
func classify4(g *graph.Graph, sub []int, c Counts) {
	deg, edges := inducedDegrees(g, sub)
	maxd := 0
	for _, d := range deg {
		if d == 0 {
			return
		}
		maxd = max(maxd, d)
	}
	if edges == 2 {
		return
	}
	for i, d := range deg {
		var o int
		switch {
		case edges == 3 && maxd == 3:
			o = map[int]int{1: 6, 3: 7}[d] // claw: leaf, centre
		case edges == 3:
			o = map[int]int{1: 4, 2: 5}[d] // path: end, middle
		case edges == 4 && maxd == 2:
			o = 8 // 4-cycle
		case edges == 4:
			o = map[int]int{1: 9, 2: 11, 3: 10}[d] // paw: leaf, triangle node, attachment
		case edges == 5:
			o = map[int]int{2: 12, 3: 13}[d] // diamond
		default:
			o = 14
		}
		c[sub[i]][o]++
	}
}

// TestPropertyCountMatchesBruteForce checks every orbit of Count against
// the exhaustive oracle on degenerate shapes, random ER graphs and
// high-skew Holme–Kim graphs, whose hubs and dense cores exercise every
// correction term of the combinatorial relations.
func TestPropertyCountMatchesBruteForce(t *testing.T) {
	var star, clique, path []graph.Edge
	for v := 1; v < 9; v++ {
		star = append(star, graph.Edge{U: 0, V: v})
		path = append(path, graph.Edge{U: v - 1, V: v})
	}
	for u := 0; u < 7; u++ {
		for v := u + 1; v < 7; v++ {
			clique = append(clique, graph.Edge{U: u, V: v})
		}
	}
	cases := map[string]*graph.Graph{
		"empty":        graph.MustNew(0, nil),
		"isolated":     graph.MustNew(5, nil),
		"edge+isolate": graph.MustNew(4, []graph.Edge{{U: 1, V: 2}}),
		"star":         graph.MustNew(9, star),
		"clique":       graph.MustNew(7, clique),
		"path":         graph.MustNew(9, path),
		"two-edges":    graph.MustNew(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}}),
	}
	for seed := int64(0); seed < 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		cases[fmt.Sprintf("er-%d", seed)] = gen.ErdosRenyi(12+int(seed)%6, 0.15+0.05*float64(seed%8), rng)
		cases[fmt.Sprintf("holme-kim-%d", seed)] = gen.PowerlawCluster(18+int(seed)%8, 1+int(seed)%4, 0.9, rng)
	}
	for name, g := range cases {
		got, want := Count(g), bruteForceCount(g)
		if len(got) != g.N() {
			t.Fatalf("%s: %d rows for %d nodes", name, len(got), g.N())
		}
		for u := range want {
			for o := range want[u] {
				if got[u][o] != want[u][o] {
					t.Errorf("%s: node %d orbit %d = %v, want %v", name, u, o, got[u][o], want[u][o])
				}
			}
		}
	}
}

func TestOrbitSumIdentity(t *testing.T) {
	// Each 4-node graphlet instance credits exactly 4 node-orbit slots.
	rng := rand.New(rand.NewSource(42))
	var edges []graph.Edge
	n := 12
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			if rng.Float64() < 0.35 {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
	}
	g := graph.MustNew(n, edges)
	c := Count(g)
	var total4 float64
	for u := 0; u < n; u++ {
		for o := 4; o < NumOrbits; o++ {
			total4 += c[u][o]
		}
	}
	if total4 != 0 && int(total4)%4 != 0 {
		t.Errorf("sum of 4-node orbit counts %v not divisible by 4", total4)
	}
}

func TestOrbitWeightsPositive(t *testing.T) {
	w := OrbitWeights()
	for o, v := range w {
		if v <= 0 || v > 1 {
			t.Errorf("weight[%d] = %v out of (0, 1]", o, v)
		}
	}
	if w[0] != 1 {
		t.Errorf("degree orbit should have weight 1, got %v", w[0])
	}
}

// BenchmarkCount counts a 2000-node powerlaw graph. The combinatorial
// relations take milliseconds here; enumerating the connected 4-node
// subgraphs takes tens of seconds, so the bench smoke catches a regression
// to enumeration cost.
func BenchmarkCount(b *testing.B) {
	g := gen.PowerlawCluster(2000, 5, 0.5, rand.New(rand.NewSource(1)))
	b.ReportAllocs()
	for b.Loop() {
		Count(g)
	}
}
