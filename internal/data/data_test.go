package data

import (
	"math"
	"reflect"
	"testing"
)

func TestCatalogMirrorsTable2(t *testing.T) {
	names := Names()
	if len(names) != 16 {
		t.Fatalf("catalog has %d datasets, Table 2 lists 16", len(names))
	}
	arenas, err := Describe("arenas")
	if err != nil {
		t.Fatal(err)
	}
	if arenas.N != 1133 || arenas.M != 5451 {
		t.Errorf("arenas stats %d/%d do not match Table 2", arenas.N, arenas.M)
	}
	if _, err := Describe("not-a-dataset"); err == nil {
		t.Error("unknown dataset accepted")
	}
}

func TestLoadMatchesCatalogStats(t *testing.T) {
	for _, name := range []string{"arenas", "inf-euroroad", "bio-celegans", "ca-netscience", "highschool"} {
		d, err := Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		g, err := Load(name)
		if err != nil {
			t.Fatal(err)
		}
		if g.N() != d.N {
			t.Errorf("%s: n = %d, want %d", name, g.N(), d.N)
		}
		// Edge count within 10% of the paper's (generators can't always hit
		// it exactly; social PL generators are within ~2%).
		ratio := float64(g.M()) / float64(d.M)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("%s: m = %d vs paper %d (ratio %.3f)", name, g.M(), d.M, ratio)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	g1, err := Load("voles")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := Load("voles")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g1.Edges(), g2.Edges()) {
		t.Error("Load is not deterministic")
	}
}

func TestLoadScaled(t *testing.T) {
	d, _ := Describe("arenas")
	g, err := LoadScaled("arenas", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	wantN := int(float64(d.N) * 0.25)
	if g.N() != wantN {
		t.Errorf("scaled n = %d, want %d", g.N(), wantN)
	}
	// Average degree roughly preserved.
	full, _ := Load("arenas")
	if math.Abs(g.AvgDegree()-full.AvgDegree()) > full.AvgDegree()*0.3 {
		t.Errorf("avg degree %v vs full %v", g.AvgDegree(), full.AvgDegree())
	}
	if _, err := LoadScaled("arenas", 0); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := LoadScaled("arenas", 1.5); err == nil {
		t.Error("scale > 1 accepted")
	}
}

func TestEvolvingVariants(t *testing.T) {
	fractions := []float64{0.8, 0.99}
	pairs, err := EvolvingVariantsScaled("highschool", fractions, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("got %d pairs", len(pairs))
	}
	for i, p := range pairs {
		if p.Source.N() != p.Target.N() {
			t.Error("variant changed node count")
		}
		want := int((1 - fractions[i]) * float64(p.Source.M()))
		got := p.Source.M() - p.Target.M()
		if diff := got - want; diff > 2 || diff < -2 {
			t.Errorf("fraction %.2f: removed %d edges, want ~%d", fractions[i], got, want)
		}
	}
	// Non-evolving datasets refuse.
	if _, err := EvolvingVariantsScaled("arenas", fractions, 1); err == nil {
		t.Error("non-evolving dataset accepted")
	}
	if _, err := EvolvingVariantsScaled("voles", []float64{0}, 1); err == nil {
		t.Error("zero fraction accepted")
	}
}

func TestKindsAssigned(t *testing.T) {
	for _, name := range Names() {
		d, _ := Describe(name)
		switch d.Kind {
		case Communication, Social, Collaboration, Infrastructure, Biological, Proximity:
		default:
			t.Errorf("%s: unknown kind %q", name, d.Kind)
		}
	}
}
