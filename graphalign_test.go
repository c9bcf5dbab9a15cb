package graphalign

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"graphalign/internal/gen"
	"graphalign/internal/graph"
	"graphalign/internal/noise"
)

func TestAlgorithmsOrder(t *testing.T) {
	want := []string{"IsoRank", "GRAAL", "NSD", "LREA", "REGAL", "GWL", "S-GWL", "CONE", "GRASP"}
	if !reflect.DeepEqual(Algorithms(), want) {
		t.Errorf("Algorithms() = %v", Algorithms())
	}
}

func TestLookupAndRegistry(t *testing.T) {
	for _, name := range Algorithms() {
		info, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Name != name {
			t.Errorf("info name %q != %q", info.Name, name)
		}
		a := info.New()
		if a.Name() != name {
			t.Errorf("aligner name %q != %q", a.Name(), name)
		}
		if a.DefaultAssignment() != info.Assign {
			t.Errorf("%s: registry assign %s != aligner default %s", name, info.Assign, a.DefaultAssignment())
		}
	}
	if _, err := Lookup("Bogus"); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if _, err := NewAligner("Bogus"); err == nil {
		t.Error("NewAligner accepted unknown name")
	}
}

func TestTable1YearsMatchPaper(t *testing.T) {
	years := map[string]int{
		"IsoRank": 2008, "GRAAL": 2010, "NSD": 2011, "LREA": 2018,
		"REGAL": 2018, "GWL": 2019, "S-GWL": 2019, "CONE": 2020, "GRASP": 2021,
	}
	for name, want := range years {
		info, _ := Lookup(name)
		if info.Year != want {
			t.Errorf("%s year = %d, want %d", name, info.Year, want)
		}
	}
	// IsoRank is the only bio-targeted method in Table 1.
	for _, name := range Algorithms() {
		info, _ := Lookup(name)
		if info.Bio != (name == "IsoRank") {
			t.Errorf("%s bio flag = %v", name, info.Bio)
		}
	}
}

func testPair(t *testing.T, level float64) (src, dst *Graph, trueMap []int) {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	base := gen.PowerlawCluster(70, 3, 0.3, rng)
	p, err := noise.Apply(base, noise.OneWay, level, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	return p.Source, p.Target, p.TrueMap
}

func TestAlignEndToEnd(t *testing.T) {
	src, dst, trueMap := testPair(t, 0)
	mapping, err := Align("IsoRank", src, dst, JV)
	if err != nil {
		t.Fatal(err)
	}
	s := Evaluate(src, dst, mapping, trueMap)
	if s.Accuracy < 0.9 {
		t.Errorf("accuracy %.3f on isomorphic pair", s.Accuracy)
	}
	if s.EC < 0.9 || s.S3 < 0.9 || s.MNC < 0.9 {
		t.Errorf("edge metrics low: %+v", s)
	}
}

// TestAlignEmptyMethodEndToEnd: an empty method runs the algorithm's
// author-proposed assignment (SortGreedy for NSD).
func TestAlignEmptyMethodEndToEnd(t *testing.T) {
	src, dst, trueMap := testPair(t, 0)
	mapping, err := Align("NSD", src, dst, "")
	if err != nil {
		t.Fatal(err)
	}
	sg, err := Align("NSD", src, dst, SG)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mapping, sg) {
		t.Error("empty method mapping differs from NSD's SortGreedy")
	}
	if err != nil {
		t.Fatal(err)
	}
	if acc := Evaluate(src, dst, mapping, trueMap).Accuracy; acc < 0.8 {
		t.Errorf("NSD default accuracy %.3f", acc)
	}
}

func TestAlignUnknownAlgorithm(t *testing.T) {
	src, dst, _ := testPair(t, 0)
	if _, err := Align("Nope", src, dst, JV); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestNewGraphAndFileRoundtrip(t *testing.T) {
	g, err := NewGraph(3, []Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "g.edges")
	if err := WriteGraphFile(path, g); err != nil {
		t.Fatal(err)
	}
	g2, labels, err := ReadGraphFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.N() != 3 || g2.M() != 2 || len(labels) != 3 {
		t.Errorf("roundtrip wrong: n=%d m=%d labels=%v", g2.N(), g2.M(), labels)
	}
	if _, _, err := ReadGraphFile(filepath.Join(dir, "missing.edges")); err == nil {
		t.Error("missing file accepted")
	}
	if err := WriteGraphFile(filepath.Join(dir, "nodir", "g.edges"), g); err == nil {
		t.Error("unwritable path accepted")
	}
	_ = os.Remove(path)
}

func TestAlignMultiple(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := gen.PowerlawCluster(50, 3, 0.3, rng)
	p1, err := noise.Apply(base, noise.OneWay, 0, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := noise.Apply(base, noise.OneWay, 0, noise.Options{}, rng)
	if err != nil {
		t.Fatal(err)
	}
	al, err := AlignMultiple("IsoRank", []*Graph{base, p1.Target, p2.Target}, JV)
	if err != nil {
		t.Fatal(err)
	}
	if len(al.Clusters) == 0 {
		t.Fatal("no clusters")
	}
	m, err := al.PairwiseMap(1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(m) != 50 {
		t.Errorf("pairwise map length %d", len(m))
	}
	if _, err := AlignMultiple("Nope", []*Graph{base, p1.Target}, JV); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func TestAllNineAlignersRunSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	src, dst, trueMap := testPair(t, 0.02)
	for _, name := range Algorithms() {
		mapping, err := Align(name, src, dst, JV)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(mapping) != src.N() {
			t.Errorf("%s: mapping length %d", name, len(mapping))
		}
		acc := Evaluate(src, dst, mapping, trueMap).Accuracy
		if acc < 0.02 {
			t.Errorf("%s: accuracy %.3f is no better than random", name, acc)
		}
	}
}

func TestSubgraphAlignmentAllAlgorithms(t *testing.T) {
	// Source strictly smaller than target: every algorithm must produce a
	// valid injective mapping into the larger graph (the unrestricted
	// problem statement allows |V_A| <= |V_B|).
	if testing.Short() {
		t.Skip("full sweep skipped in -short mode")
	}
	rng := rand.New(rand.NewSource(21))
	dst := gen.PowerlawCluster(70, 3, 0.3, rng)
	// Induce the source on nodes 0..59 of the target.
	keep := make([]int, 60)
	for i := range keep {
		keep[i] = i
	}
	src, _ := graph.InducedSubgraph(dst, keep)
	for _, name := range Algorithms() {
		mapping, err := Align(name, src, dst, JV)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if len(mapping) != 60 {
			t.Errorf("%s: mapping length %d", name, len(mapping))
			continue
		}
		seen := map[int]bool{}
		for _, v := range mapping {
			if v < 0 || v >= 70 || seen[v] {
				t.Errorf("%s: mapping not injective into target: %v", name, mapping)
				break
			}
			seen[v] = true
		}
	}
}
