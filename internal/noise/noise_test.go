package noise

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
)

func testGraph(seed int64) *graph.Graph {
	return gen.ErdosRenyi(60, 0.15, rand.New(rand.NewSource(seed)))
}

func TestApplyZeroNoiseIsIsomorphic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	g := testGraph(1)
	for _, nt := range Types() {
		pair, err := Apply(g, nt, 0, Options{}, rng)
		if err != nil {
			t.Fatalf("%s: %v", nt, err)
		}
		if pair.Source.M() != g.M() || pair.Target.M() != g.M() {
			t.Errorf("%s: zero noise changed edge count", nt)
		}
		// The true map must be an isomorphism at zero noise.
		for _, e := range pair.Source.Edges() {
			if !pair.Target.HasEdge(pair.TrueMap[e.U], pair.TrueMap[e.V]) {
				t.Fatalf("%s: true map is not an isomorphism", nt)
			}
		}
	}
}

func TestOneWayEdgeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := testGraph(2)
	pair, err := Apply(g, OneWay, 0.1, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	removed := int(0.1*float64(g.M()) + 0.5)
	if pair.Target.M() != g.M()-removed {
		t.Errorf("target m = %d, want %d", pair.Target.M(), g.M()-removed)
	}
	if pair.Source.M() != g.M() {
		t.Error("one-way noise must not touch the source")
	}
}

func TestMultiModalEdgeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := testGraph(3)
	pair, err := Apply(g, MultiModal, 0.1, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Removals and additions balance.
	if pair.Target.M() != g.M() {
		t.Errorf("multi-modal should preserve edge count: %d vs %d", pair.Target.M(), g.M())
	}
	// But the graph must actually differ (with overwhelming probability).
	perm := pair.TrueMap
	same := true
	for _, e := range g.Edges() {
		if !pair.Target.HasEdge(perm[e.U], perm[e.V]) {
			same = false
			break
		}
	}
	if same {
		t.Error("multi-modal noise did not change any edge")
	}
}

func TestRemoveAndAddEdgesNoSelfLoopsNoReinsertion(t *testing.T) {
	// Regression: additions used to treat only the reduced graph's edges as
	// "existing", so an edge removed in the same call could be re-inserted,
	// silently shrinking the effective noise level. Additions must now come
	// from the complement of the original edge set (which also rules out
	// self-loops — the graph constructor would reject those outright).
	for seed := int64(0); seed < 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		g := testGraph(seed)
		level := 0.2
		out, err := RemoveAndAddEdges(g, level, Options{}, rng)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if out.M() != g.M() {
			t.Errorf("seed %d: edge count %d, want %d", seed, out.M(), g.M())
		}
		wantRemoved := int(level*float64(g.M()) + 0.5)
		removed, added := 0, 0
		for _, e := range g.Edges() {
			if !out.HasEdge(e.U, e.V) {
				removed++
			}
		}
		for _, e := range out.Edges() {
			if e.U == e.V {
				t.Fatalf("seed %d: self-loop (%d,%d)", seed, e.U, e.V)
			}
			if !g.HasEdge(e.U, e.V) {
				added++
			}
		}
		// Every one of the wantRemoved removals must survive: a re-inserted
		// removed edge would show up as removed < wantRemoved.
		if removed != wantRemoved {
			t.Errorf("seed %d: %d edges removed, want %d (re-insertion?)", seed, removed, wantRemoved)
		}
		if added != wantRemoved {
			t.Errorf("seed %d: %d edges added, want %d", seed, added, wantRemoved)
		}
	}
}

func TestTwoWayEdgeAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	g := testGraph(4)
	pair, err := Apply(g, TwoWay, 0.1, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	removed := int(0.1*float64(g.M()) + 0.5)
	if pair.Source.M() != g.M()-removed {
		t.Errorf("source m = %d, want %d", pair.Source.M(), g.M()-removed)
	}
	if pair.Target.M() != g.M()-removed {
		t.Errorf("target m = %d, want %d", pair.Target.M(), g.M()-removed)
	}
}

func TestApplyErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := testGraph(5)
	if _, err := Apply(g, OneWay, -0.1, Options{}, rng); err == nil {
		t.Error("negative level accepted")
	}
	if _, err := Apply(g, OneWay, 1.0, Options{}, rng); err == nil {
		t.Error("level 1.0 accepted")
	}
	if _, err := Apply(g, Type("bogus"), 0.1, Options{}, rng); err == nil {
		t.Error("unknown noise type accepted")
	}
}

func TestKeepConnected(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	// A path graph: removing any edge disconnects it.
	var edges []graph.Edge
	for i := 0; i < 19; i++ {
		edges = append(edges, graph.Edge{U: i, V: i + 1})
	}
	g := graph.MustNew(20, edges)
	out, err := RemoveEdges(g, 0.3, Options{KeepConnected: true}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if _, k := graph.ConnectedComponents(out); k != 1 {
		t.Error("KeepConnected produced a disconnected graph")
	}
	if out.M() != g.M() {
		t.Error("a tree has no removable edges under KeepConnected")
	}
	// Without the option the graph loses edges.
	out2, err := RemoveEdges(g, 0.3, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if out2.M() >= g.M() {
		t.Error("unconstrained removal did not remove edges")
	}
}

func TestPropertyTrueMapIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testGraph(seed)
		for _, nt := range Types() {
			pair, err := Apply(g, nt, 0.05, Options{}, rng)
			if err != nil {
				return false
			}
			p := append([]int(nil), pair.TrueMap...)
			sort.Ints(p)
			for i, v := range p {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTargetEdgesSubsetUnderOneWay(t *testing.T) {
	// With one-way noise, every target edge maps back to a source edge.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		g := testGraph(seed + 100)
		pair, err := Apply(g, OneWay, 0.1, Options{}, rng)
		if err != nil {
			return false
		}
		inv := graph.InversePermutation(pair.TrueMap)
		for _, e := range pair.Target.Edges() {
			if !pair.Source.HasEdge(inv[e.U], inv[e.V]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestRemoveEdgesZero(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := testGraph(7)
	out, err := RemoveEdges(g, 0, Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out.Edges(), g.Edges()) {
		t.Error("zero-level removal changed the graph")
	}
}

func TestTypesOrder(t *testing.T) {
	want := []Type{OneWay, MultiModal, TwoWay}
	if !reflect.DeepEqual(Types(), want) {
		t.Errorf("Types() = %v", Types())
	}
}
