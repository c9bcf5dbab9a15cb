package gen

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"graphalign/internal/graph"
)

func TestErdosRenyiBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := ErdosRenyi(50, 0.2, rng)
	if g.N() != 50 {
		t.Fatalf("n = %d", g.N())
	}
	maxEdges := 50 * 49 / 2
	if g.M() > maxEdges {
		t.Fatal("too many edges")
	}
	// Expectation 245; allow generous slack.
	if g.M() < 150 || g.M() > 350 {
		t.Errorf("edge count %d implausible for p=0.2", g.M())
	}
	if ErdosRenyi(10, 0, rng).M() != 0 {
		t.Error("p=0 should yield empty graph")
	}
	if g2 := ErdosRenyi(10, 1, rng); g2.M() != 45 {
		t.Errorf("p=1 should yield complete graph, got m=%d", g2.M())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n, m := 200, 5
	g := BarabasiAlbert(n, m, rng)
	if g.N() != n {
		t.Fatalf("n = %d", g.N())
	}
	// Every node added after the seed contributes exactly m edges.
	wantM := m + (n-m-1)*m
	if g.M() != wantM {
		t.Errorf("m = %d, want %d", g.M(), wantM)
	}
	// Nodes beyond the seed have degree >= m.
	for u := m + 1; u < n; u++ {
		if g.Degree(u) < m {
			t.Fatalf("node %d degree %d < m", u, g.Degree(u))
		}
	}
	if _, k := graph.ConnectedComponents(g); k != 1 {
		t.Error("BA graph should be connected")
	}
}

func TestBarabasiAlbertPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n <= m should panic")
		}
	}()
	BarabasiAlbert(3, 5, rand.New(rand.NewSource(1)))
}

func TestWattsStrogatz(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// p=0: pure ring lattice, all degrees k, m = n*k/2.
	g := WattsStrogatz(30, 6, 0, rng)
	if g.M() != 30*6/2 {
		t.Fatalf("lattice m = %d, want 90", g.M())
	}
	for u := 0; u < 30; u++ {
		if g.Degree(u) != 6 {
			t.Fatalf("lattice degree %d, want 6", g.Degree(u))
		}
	}
	// p=0.5: same edge count (rewiring preserves it unless stuck).
	g2 := WattsStrogatz(30, 6, 0.5, rng)
	if g2.M() > 90 {
		t.Errorf("rewiring should not add edges: m=%d", g2.M())
	}
	if g2.M() < 80 {
		t.Errorf("rewiring lost too many edges: m=%d", g2.M())
	}
}

func TestNewmanWatts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := NewmanWatts(40, 6, 0, rng)
	if g.M() != 40*6/2 {
		t.Fatalf("NW p=0 m = %d, want 120", g.M())
	}
	g2 := NewmanWatts(40, 6, 0.5, rng)
	if g2.M() < 120 {
		t.Error("NW must never remove lattice edges")
	}
	// Odd k rounds down (the paper's k=7 behaves like 6).
	g3 := NewmanWatts(40, 7, 0, rng)
	if g3.M() != 120 {
		t.Errorf("NW k=7 should act like k=6: m=%d", g3.M())
	}
}

func TestPowerlawCluster(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	n, m := 300, 5
	g := PowerlawCluster(n, m, 0.5, rng)
	wantM := m + (n-m-1)*m
	if g.M() != wantM {
		t.Errorf("m = %d, want %d", g.M(), wantM)
	}
	// Triangle formation should produce higher clustering than plain BA.
	ba := BarabasiAlbert(n, m, rand.New(rand.NewSource(5)))
	if graph.ClusteringCoefficient(g) <= graph.ClusteringCoefficient(ba)*0.9 {
		t.Errorf("PL clustering %.4f not above BA %.4f",
			graph.ClusteringCoefficient(g), graph.ClusteringCoefficient(ba))
	}
}

func TestConfigurationModel(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	deg := []int{3, 3, 2, 2, 2}
	g := ConfigurationModel(deg, rng)
	if g.N() != 5 {
		t.Fatalf("n = %d", g.N())
	}
	// Erased model: realized degree never exceeds requested.
	for u := 0; u < 5; u++ {
		if g.Degree(u) > deg[u] {
			t.Errorf("node %d degree %d exceeds requested %d", u, g.Degree(u), deg[u])
		}
	}
}

func TestNormalDegrees(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	deg := NormalDegrees(500, 10, 2, rng)
	sum := 0
	for _, d := range deg {
		if d < 1 || d > 499 {
			t.Fatalf("degree %d out of range", d)
		}
		sum += d
	}
	if sum%2 != 0 {
		t.Error("degree sum must be even")
	}
	mean := float64(sum) / 500
	if mean < 9 || mean > 11 {
		t.Errorf("mean degree %v far from 10", mean)
	}
}

func TestGenerateDispatch(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	for _, m := range append(Models(), Config) {
		g, err := Generate(m, 200, rng)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if g.N() != 200 {
			t.Errorf("%s: n = %d", m, g.N())
		}
	}
	if _, err := Generate(Model("nope"), 10, rng); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestDeterminism(t *testing.T) {
	for _, m := range Models() {
		g1, _ := Generate(m, 150, rand.New(rand.NewSource(99)))
		g2, _ := Generate(m, 150, rand.New(rand.NewSource(99)))
		if !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
			t.Errorf("%s: generation not deterministic under fixed seed", m)
		}
	}
}

func TestPropertyGeneratorsProduceSimpleGraphs(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for _, m := range Models() {
			g, err := Generate(m, 80, rng)
			if err != nil {
				return false
			}
			// graph.New already rejects duplicates/self-loops; verify edge
			// invariants survived generation.
			for _, e := range g.Edges() {
				if e.U == e.V || e.U < 0 || e.V >= g.N() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Error(err)
	}
}

func TestGenerateScaledPreservesERDensity(t *testing.T) {
	g1, err := GenerateScaled(ER, 1133, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g2, err := GenerateScaled(ER, 200, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	// Expected degree ~ p*(n-1) ~ 10.2 in both cases.
	if d := g1.AvgDegree(); d < 8 || d > 13 {
		t.Errorf("full-size ER avg degree %v", d)
	}
	if d := g2.AvgDegree(); d < 8 || d > 13 {
		t.Errorf("scaled ER avg degree %v", d)
	}
	// Non-ER models pass through unchanged.
	g3, err := GenerateScaled(BA, 200, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	g4, err := Generate(BA, 200, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g3.Edges(), g4.Edges()) {
		t.Error("GenerateScaled must match Generate for fixed-degree models")
	}
}
